"""CSV and JSON serialization with reproducible bytes.

CSV numbers are written with "%.17g", which round-trips any double
exactly, and files are written with "\n" line endings on every
platform. JSON is written by the json module: each float as the
shortest decimal that reads back to the same double, keys in insertion
order, and NaN or infinities refused; so serialize -> parse ->
serialize is byte-identical.

x.csv and y.csv are read by one routine. A file of one-digit cells in
the exact layout write_x_csv produces (equal "d,d,...,d" lines, each
ending in "\n", no blank line) is decoded from its bytes, each cell its
digit as a uint8, which x keeps as its values without widening; every
other file is parsed per token, numpy reading each line's tokens exactly
as float() would (x is then stored as uint8 too). One vectorized test
then checks every cell (0 or 1 in x, finite in y), and only on failure
is the file scanned again, token by token, to name the first offending
cell. Blank lines are skipped, so a y.csv cannot carry p = 0 columns;
write_y_csv refuses such a table. write_x_csv writes the file's bytes
in one call.

CSV formats:
    x.csv / y.csv          headerless, comma separated, one row per individual
    labels.csv             kind,index,label  (kind is "row" or "col", 1-based)
    free_energy.csv        iteration,value   (one row per sub-step)
    bic_grid.csv           g,d,free_energy,bic,converged
    influence.csv          j,score,col_label,rank
    timing.csv             n,d,rep,sweeps,seconds  (sweeps of the winning restart)
"""

from __future__ import annotations

import json

import numpy as np

from .errors import CoblockError, DimensionMismatch, NonBinaryValue, ParseError
from .model import BinaryMatrix, CovariateTable, HardLabels, ModelParams


_FLOAT_FORMAT = "%.17g"


def format_float(value) -> str:
    return _FLOAT_FORMAT % float(value)


def _read_bytes(path, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc


def _text_rows(raw: bytes, path, what: str):
    """(line number, text) of every non-blank line, all with one field count."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path} is not UTF-8 text: {exc}") from exc
    # the universal newlines of text-mode reading: CRLF and a lone CR end a line
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
    if not rows:
        raise ParseError(f"{what} file {path} contains no data rows")
    width = rows[0][1].count(",") + 1
    for lineno, line in rows:
        if line.count(",") + 1 != width:
            raise ParseError(
                f"{what} line {lineno} has {line.count(',') + 1} fields, expected {width}",
                line=lineno,
            )
    return rows


def _digit_cells(raw: bytes):
    """The uint8 cells of a file of equal "d,d,...,d\\n" lines of one-digit
    cells, each its byte minus ord("0") (the value float() gives); None
    for any other file."""
    k = raw.find(b"\n")
    if k < 1 or k % 2 == 0 or len(raw) % (k + 1):
        return None
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(-1, k + 1)
    digits = lines[:, 0:k:2] - np.uint8(ord("0"))
    if (
        (digits > 9).any()
        or (lines[:, 1:k:2] != ord(",")).any()
        or (lines[:, k] != ord("\n")).any()
    ):
        return None
    return digits


def _read_matrix(path, what: str, error, rule: str, ok):
    """Matrix of a headerless CSV whose every cell passes ok, uint8 if
    _digit_cells decoded it and float otherwise; if a cell fails, error
    names the first one, in reading order, that is not a number or breaks
    the rule."""
    raw = _read_bytes(path, what)
    values = _digit_cells(raw)
    if values is not None and ok(values).all():
        return values
    rows = _text_rows(raw, path, what)
    values = np.empty((len(rows), rows[0][1].count(",") + 1))
    try:
        for i, (_, line) in enumerate(rows):
            values[i] = line.split(",")
    except ValueError:
        pass
    else:
        if ok(values).all():
            return values
    for lineno, line in rows:
        for j, tok in enumerate(f.strip() for f in line.split(",")):
            where = f"{what} entry {tok!r} at line {lineno}, column {j + 1}"
            try:
                val = float(tok)
            except ValueError as exc:
                raise error(f"{where} is not a number", line=lineno, column=j + 1) from exc
            if not ok(val):
                raise error(f"{where} is {rule}", line=lineno, column=j + 1)
    raise AssertionError("unreachable: a failed parse names no cell")


def load_dataset(x_path, y_path):
    """Parse the binary matrix and covariate table.

    x must contain only 0/1 entries; y must be numeric and finite; the
    two files must agree on the number of rows. Errors carry the 1-based
    line and column of the first offending cell. Blank lines are
    ignored.
    """
    xv = _read_matrix(x_path, "x", NonBinaryValue, "not 0 or 1", lambda v: (v == 0) | (v == 1))
    yv = _read_matrix(y_path, "y", ParseError, "not finite", np.isfinite)
    if xv.shape[0] != yv.shape[0]:
        raise DimensionMismatch(
            f"x has {xv.shape[0]} rows but y has {yv.shape[0]}"
        )
    # xv is fresh and its every cell passed the 0/1 test above
    return BinaryMatrix._adopt(xv.astype(np.uint8, copy=False)), CovariateTable(yv)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_x_csv(path, x: BinaryMatrix) -> None:
    # one (n, 2m) byte image of the file: digit, comma, ..., digit, newline
    lines = np.full((x.n, 2 * x.m), ord(","), dtype=np.uint8)
    lines[:, 0::2] = x.values
    lines[:, 0::2] += ord("0")
    lines[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(lines)


def write_y_csv(path, y: CovariateTable) -> None:
    if y.p == 0:
        raise CoblockError("cannot write y with p = 0 columns: its lines would be blank")
    rows = np.char.mod(_FLOAT_FORMAT, y.values).tolist()
    _write_text(path, "\n".join(",".join(row) for row in rows) + "\n")


def _write_csv(path, header: str, lines) -> None:
    """The header line, then each of lines, every line ending in "\n"."""
    _write_text(path, "\n".join([header, *lines]) + "\n")


def write_labels_csv(path, labels: HardLabels) -> None:
    lines = [f"row,{i + 1},{int(z)}" for i, z in enumerate(labels.row_labels)]
    lines += [f"col,{j + 1},{int(w)}" for j, w in enumerate(labels.col_labels)]
    _write_csv(path, "kind,index,label", lines)


def read_labels_csv(path) -> HardLabels:
    rows = [
        (n, [f.strip() for f in line.split(",")])
        for n, line in _text_rows(_read_bytes(path, "labels"), path, "labels")
    ]
    header_line, header = rows[0]
    if [h.lower() for h in header] != ["kind", "index", "label"]:
        raise ParseError(f"labels header {header!r} unexpected", line=header_line)
    z, w = {}, {}
    for lineno, fields in rows[1:]:
        kind, idx_tok, lab_tok = fields
        try:
            idx, lab = int(idx_tok), int(lab_tok)
        except ValueError as exc:
            raise ParseError(f"labels line {lineno} is not integral", line=lineno) from exc
        if kind not in ("row", "col"):
            raise ParseError(f"labels kind {kind!r} at line {lineno}", line=lineno)
        labels = z if kind == "row" else w
        if idx in labels:
            raise ParseError(f"labels line {lineno} repeats {kind} index {idx}", line=lineno)
        labels[idx] = lab
    if sorted(z) != list(range(1, len(z) + 1)) or sorted(w) != list(range(1, len(w) + 1)):
        raise ParseError("labels indices are not contiguous from 1")
    return HardLabels(
        [z[i] for i in range(1, len(z) + 1)],
        [w[j] for j in range(1, len(w) + 1)],
    )


def write_free_energy_csv(path, trace) -> None:
    _write_csv(path, "iteration,value",
               (f"{i},{format_float(v)}" for i, v in enumerate(np.asarray(trace, dtype=float))))


def write_bic_grid_csv(path, grid) -> None:
    lines = []
    for key in sorted(grid.entries):
        cell = grid.entries[key]
        conv = "true" if cell.fit.converged else "false"
        lines.append(
            f"{cell.g},{cell.d},{format_float(cell.free_energy)},{format_float(cell.bic)},{conv}"
        )
    _write_csv(path, "g,d,free_energy,bic,converged", lines)


def write_influence_csv(path, report, labels: HardLabels) -> None:
    ranks = np.empty(report.ranking.size, dtype=np.int64)
    ranks[report.ranking - 1] = np.arange(1, report.ranking.size + 1)
    lines = []
    for j in range(report.scores.size):
        lines.append(
            f"{j + 1},{format_float(report.scores[j])},"
            f"{int(labels.col_labels[j])},{ranks[j]}"
        )
    _write_csv(path, "j,score,col_label,rank", lines)


def write_timing_csv(path, rows) -> None:
    _write_csv(path, "n,d,rep,sweeps,seconds",
               (f"{n},{d},{rep},{sweeps},{format_float(sec)}" for n, d, rep, sweeps, sec in rows))


def dumps_json(value) -> str:
    """JSON text by the json module, indented by two spaces; NaN and
    infinities raise ValueError, as JSON has no spelling for them."""
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def write_json(path, value) -> None:
    _write_text(path, dumps_json(value))


_PARAM_FIELDS = ("row_props", "col_props", "coefs", "means", "covs")


def write_params_json(path, params: ModelParams) -> None:
    """The parameters as plain nested lists (covariances row-major)."""
    write_json(path, {key: getattr(params, key).tolist() for key in _PARAM_FIELDS})


def read_params_json(path) -> ModelParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read params file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"params file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"params file {path} is not a JSON object")
    missing = [k for k in _PARAM_FIELDS if k not in payload]
    if missing:
        raise ParseError(f"params file {path} missing fields: {', '.join(missing)}")
    arrays = {}
    for key in _PARAM_FIELDS:
        try:
            arrays[key] = np.array(payload[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"params file {path} field {key!r} is not numeric: {exc}") from exc
    if arrays["means"].ndim == 2 and arrays["means"].shape[1] == 0:
        # p = 0 collapses the nested-list covariances to shape (g, 0)
        arrays["covs"] = arrays["covs"].reshape((arrays["means"].shape[0], 0, 0))
    return ModelParams(**arrays)
