"""File formats: coefficient JSON, sampled CSV, norm-sequence CSV, reports.

All writers are deterministic (sorted entries, fixed key order) and atomic
(write to a sibling temp file, then rename), so identical inputs produce
byte-identical files.  Reports are strict JSON: ``json_value`` is the one
converter from report fields to plain values, and non-finite floats are
written as null.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from io import StringIO
from itertools import chain
from pathlib import Path

import numpy as np

from .series import HermiteSeries
from .spectral import NormSequence
from .logscalar import LogScalar

__all__ = ["series_json", "save_series", "load_series", "load_samples_csv",
           "norm_sequence_csv", "save_norm_sequence_csv", "json_value",
           "report_json", "save_json_report", "atomic_write_text", "InputFormatError"]


class InputFormatError(ValueError):
    pass


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def series_to_json_dict(series: HermiteSeries) -> dict:
    """The coefficient JSON object of a series, entries sorted by alpha."""
    order = np.lexsort(series.indices.T[::-1])     # entries sorted by alpha
    vals = series.values[order]
    entries = [{"alpha": a, "re": re, "im": im} for a, re, im in
               zip(series.indices[order].tolist(), vals.real.tolist(), vals.imag.tolist())]
    return {"d": series.dimension, "max_degree": series.max_degree, "entries": entries}


def series_json(series: HermiteSeries, config: dict | None = None) -> str:
    """Coefficient JSON text of a series, with a trailing ``"config"`` object
    when one is given.

    The bytes are those of ``json.dumps(payload, indent=1, allow_nan=False)
    + "\\n"`` for ``payload = series_to_json_dict(series)`` plus the config,
    but the entries are formatted in bulk, one %-template per entry: ``%d``
    for alpha components and ``%r`` (``float.__repr__``, as ``json`` writes
    floats) for re and im.  The stdlib encoder falls back to pure Python
    when ``indent`` is set, which is several times slower on large tensors.
    """
    bad = ~np.isfinite(series.values)
    if bad.any():
        alpha = tuple(series.indices[np.argmax(bad)].tolist())
        raise ValueError(f"coefficient at index {alpha} is not finite")
    order = np.lexsort(series.indices.T[::-1])
    vals = series.values[order]
    entry = ('\n  {\n   "alpha": [\n' + ",\n".join(["    %d"] * series.dimension)
             + '\n   ],\n   "re": %r,\n   "im": %r\n  }')
    rows = zip(*series.indices[order].T.tolist(), vals.real.tolist(), vals.imag.tolist())
    entries = ",".join(map(entry.__mod__, rows))
    text = ('{\n "d": %d,\n "max_degree": %d,\n "entries": [%s]'
            % (series.dimension, series.max_degree, entries + "\n " if entries else ""))
    if config is None:
        return text + "\n}\n"
    # '{\n "config": {...}\n}' less its opening brace continues the object
    return text + "," + json.dumps({"config": config}, indent=1, allow_nan=False)[1:] + "\n"


def save_series(series: HermiteSeries, path) -> None:
    """Write the coefficient JSON format (``series_json``):

        {"d": int, "max_degree": int,
         "entries": [{"alpha": [int, ...], "re": float, "im": float}, ...]}
    """
    atomic_write_text(path, series_json(series))


def load_series(path) -> HermiteSeries:
    """Read the coefficient JSON format.

    ``d``, ``max_degree`` and the ``alpha`` components must be JSON integers
    (not booleans), ``re`` and ``im`` JSON numbers; ``im`` defaults to 0.
    Anything else raises InputFormatError naming the file and, for a bad
    entry, its position in ``entries``.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:     # JSONDecodeError, undecodable bytes, huge ints
        raise InputFormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return _series_from_json(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{path}: bad coefficient entry ({exc})") from exc


def _series_from_json(data) -> HermiteSeries:
    d, max_degree, entries = data["d"], data["max_degree"], data["entries"]
    for key, value in (("d", d), ("max_degree", max_degree)):
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value!r}")
    if type(entries) is not list:
        raise ValueError(f"entries must be a list, got {type(entries).__name__}")
    try:
        # whole columns at once; the entry walk below runs only on failure
        alphas = [entry["alpha"] for entry in entries]
        re = [entry["re"] for entry in entries]
        im = [entry.get("im", 0.0) for entry in entries]
        if not (set(map(type, alphas)) <= {list}
                and set(map(type, chain.from_iterable(alphas))) <= {int}
                and set(map(type, re + im)) <= {int, float}):
            raise TypeError("an entry is not of the coefficient format")
        values = np.empty(len(entries), dtype=complex)
        values.real = re
        values.imag = im
        return HermiteSeries.from_arrays(d, max_degree, alphas, values,
                                         str(data.get("truncation_tag", "file")))
    except (KeyError, TypeError, ValueError, OverflowError):
        for i, entry in enumerate(entries):
            problem = _entry_problem(entry, d)
            if problem:
                raise ValueError(f"entry {i}: {problem}") from None
        raise


def _entry_problem(entry, d: int) -> str | None:
    """Why one parsed entry is not a coefficient entry, or None."""
    if type(entry) is not dict or "alpha" not in entry or "re" not in entry:
        return 'needs keys "alpha" and "re"'
    alpha = entry["alpha"]
    if type(alpha) is not list or len(alpha) != d or any(type(a) is not int for a in alpha):
        return f"alpha must be a list of {d} integers, got {alpha!r}"
    int64 = np.iinfo(np.int64)
    if any(not int64.min <= a <= int64.max for a in alpha):
        return f"alpha {alpha!r} is out of range for int64"
    for key in ("re", "im"):
        value = entry.get(key, 0.0)
        if type(value) not in (int, float):
            return f"{key} must be a number, got {value!r}"
        try:
            float(value)
        except OverflowError:
            return f"{key} is out of range"
    return None


def load_samples_csv(path):
    """Read the two-column sampled-data format (x, f(x)); header optional.

    Returns (x, y) as float arrays sorted by x.  Malformed rows raise
    InputFormatError naming the row.
    """
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise InputFormatError(f"{path}: row {row_no} has {len(row)} column(s), need 2")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if row_no == 1:
                    continue  # header line
                raise InputFormatError(f"{path}: row {row_no} is not numeric: {row!r}")
            xs.append(x)
            ys.append(y)
    if not xs:
        raise InputFormatError(f"{path}: no data rows")
    order = np.argsort(xs)
    return np.asarray(xs)[order], np.asarray(ys)[order]


def norm_sequence_csv(seq: NormSequence, config_line: str = "") -> str:
    """CSV text with columns N, log_norm, norm_kind; the log of a zero norm
    is an empty field (JSON reports write null there), and a norm kind with
    commas (``mod:p,q,w``) is quoted."""
    out = StringIO()
    if config_line:
        out.write(f"# {config_line}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("N", "log_norm", "norm_kind"))
    writer.writerows((n, repr(v.log_magnitude) if v.sign else "", seq.norm_kind)
                     for n, v in seq.values)
    return out.getvalue()


def save_norm_sequence_csv(seq: NormSequence, path, config_line: str = "") -> None:
    """Write ``norm_sequence_csv(seq, config_line)`` to path."""
    atomic_write_text(path, norm_sequence_csv(seq, config_line))


def json_value(obj):
    """Plain JSON value of a report field, walking dicts, lists and tuples.

    LogScalar becomes {"sign", "log"}, numpy scalars and arrays become plain
    values, and non-finite floats become None (null).
    """
    if isinstance(obj, float):  # numpy float64 included
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_value(v) for v in obj]
    if isinstance(obj, LogScalar):
        return json_value(obj.to_json_pair())
    if isinstance(obj, (np.ndarray, np.generic)):
        return json_value(obj.tolist())
    return obj


def report_json(payload: dict) -> str:
    """Strict JSON text of a report (no NaN or Infinity tokens)."""
    return json.dumps(json_value(payload), indent=1, allow_nan=False) + "\n"


def save_json_report(payload: dict, path) -> None:
    atomic_write_text(path, report_json(payload))
