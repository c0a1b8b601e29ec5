import sys
from pathlib import Path

import hypothesis

# helpers.py and oracle.py live next to the test modules; the acceptance
# criteria run the study functions of scripts/
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("suite")
