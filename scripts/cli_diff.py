"""Compare two CLI output trees file by file and say how each one differs.

    python3 scripts/cli_diff.py OLD NEW

OLD and NEW are trees kept by `scripts/cli_digest.py --keep`, made at two
commits. Each file is split into numbers and the text between them; a
number is a token with a decimal point or an exponent, so integers
(labels, counts, sweep numbers) count as text. A file present on both
sides with different bytes is reported as

    numbers only, max relative difference X

when its text is the same and only the values of its numbers moved
(X is max |a - b| / max(|a|, |b|) over its number pairs), and as
"text differs" otherwise. A .json file whose two sides parse to equal
values (compared as Python values, so 0, 0.0 and -0.0 are one value)
is reported as

    same values, layout differs

whatever its bytes. A file on one side only is a text difference too.
timing.csv holds wall-clock times and is left out. The exit status is 1
if any file's text differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"([-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+))")


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name != "timing.csv"}


def compare(old: str, new: str) -> float | None:
    """The largest relative difference of the numbers of two texts that
    differ in their numbers only, or None if their text differs."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    # split with one group alternates text (even indices) and numbers (odd)
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return None
    worst = 0.0
    for x, y in zip(map(float, a[1::2]), map(float, b[1::2])):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def same_json(old: bytes, new: bytes) -> bool:
    """Whether two texts both parse as JSON to equal values."""
    try:
        return json.loads(old) == json.loads(new)
    except ValueError:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    left, right = files(args.old), files(args.new)
    same = numbers = layout = text = 0
    for name in sorted(left | right):
        if name not in left or name not in right:
            print(f"{name}: text differs (only in {'NEW' if name in right else 'OLD'})")
            text += 1
            continue
        old, new = ((root / name).read_bytes() for root in (args.old, args.new))
        if old == new:
            same += 1
            continue
        if name.endswith(".json") and same_json(old, new):
            print(f"{name}: same values, layout differs")
            layout += 1
            continue
        worst = compare(old.decode(), new.decode())
        if worst is None:
            print(f"{name}: text differs")
            text += 1
        else:
            print(f"{name}: numbers only, max relative difference {worst:.1e}")
            numbers += 1
    print(f"{same + numbers + layout + text} files: {same} identical, {numbers} numbers only, "
          f"{layout} same values, layout differs, {text} text differs")
    return 1 if text else 0


if __name__ == "__main__":
    sys.exit(main())
