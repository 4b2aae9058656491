"""File formats: coefficient JSON, sampled CSV, norm-sequence CSV, reports.

All writers are deterministic (sorted entries, fixed key order) and atomic
(write to a sibling temp file, then rename), so identical inputs produce
byte-identical files.  Reports are strict JSON with the layout of
``json.dumps(..., indent=1)``.  One set of rules (``_plain``) turns report
fields into plain values: a dataclass report becomes {field name: value} in
declaration order, with each field marked by ``log_field`` (a log as a
float, -inf for zero) written as the pair {"sign": 0 or 1, "log": x or null}
(this module owns that format), numpy values become their ``tolist()``, and
non-finite floats null.  ``report_json`` applies the rules while it writes,
in one walk, and the coefficient JSON writer uses that walk for its config
object; ``json_value`` applies them without writing, for a report wanted as
a dict.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile
from io import StringIO
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .series import HermiteSeries
from .spectral import NormSequence

__all__ = ["series_json", "save_series", "load_series", "load_samples_csv",
           "norm_sequence_csv", "save_norm_sequence_csv", "json_value",
           "report_json", "save_json_report", "atomic_write_text", "log_field",
           "InputFormatError"]


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
    The config is written by the report walk (``report_json``).
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
    return text + ',\n "config": ' + _json_text(config, " ") + "\n}\n"


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
    writer.writerows((n, repr(v) if v > -math.inf else "", seq.norm_kind)
                     for n, v in zip(seq.powers.tolist(), seq.logs.tolist()))
    return out.getvalue()


def save_norm_sequence_csv(seq: NormSequence, path, config_line: str = "") -> None:
    """Write ``norm_sequence_csv(seq, config_line)`` to path."""
    atomic_write_text(path, norm_sequence_csv(seq, config_line))


def log_field(**kwargs):
    """A report dataclass field that holds a log: a float, -inf for a zero
    value, or None for an absent one.  Reports write a float there as
    {"sign": 0 or 1, "log": x or null}."""
    return dataclasses.field(metadata={"log": True}, **kwargs)


def _field_value(obj, f: dataclasses.Field):
    """Field ``f`` of a dataclass, a ``log_field`` float as its pair."""
    value = getattr(obj, f.name)
    if value is None or not f.metadata.get("log"):
        return value
    if math.isnan(value):
        raise ValueError(f"log field {f.name} must not be NaN")
    return {"sign": 0, "log": None} if value == -math.inf else {"sign": 1, "log": value}


def _plain(obj):
    """One node under the report rules: a dataclass instance becomes
    {field name: value} in declaration order, with ``log_field`` floats as
    their {"sign", "log"} pairs (its fields are walked in turn, not
    converted here), numpy scalars and arrays their ``tolist()`` values,
    non-finite floats None (null); anything else is returned as it is."""
    if isinstance(obj, float):  # numpy float64 included
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    if dataclasses.is_dataclass(obj):
        return {f.name: _field_value(obj, f) for f in dataclasses.fields(obj)}
    return obj


def json_value(obj):
    """Plain JSON value of a report or a report field: ``_plain`` at every
    node of its dataclasses, dicts, lists and tuples (tuples become lists)."""
    obj = _plain(obj)
    if isinstance(obj, dict):
        return {k: json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_value(v) for v in obj]
    return obj


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: str, float, bool, None or int."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float) and not math.isfinite(key):
        raise ValueError(f"Out of range float values are not JSON compliant: {key!r}")
    if isinstance(key, (float, int)) or key is None:    # bool is an int
        return '"' + _json_text(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_text(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


# text of a node of exactly one of these types, which the rules leave as it is
_LEAF_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
              bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json_text(obj, indent: str) -> str:
    """JSON text of ``json_value(obj)`` at nesting ``indent`` (one space a
    level), byte for byte what ``json.dumps(..., indent=1, allow_nan=False)``
    writes for it, built in the same walk that applies the rules."""
    obj = _plain(obj)
    get = _LEAF_TEXT.get
    leaf = get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = indent + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [leaf(v) if (leaf := get(type(v))) else _json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_key(k) + ": " + (leaf(v) if (leaf := get(type(v))) else _json_text(v, inner))
                 for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, str):    # subclasses of str and int, as json writes them
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def report_json(payload) -> str:
    """Strict JSON text of a report, a payload dict or a report dataclass
    (no NaN or Infinity tokens): one walk that applies ``json_value``'s
    rules while it writes the bytes of
    ``json.dumps(json_value(payload), indent=1, allow_nan=False) + "\\n"``.
    The stdlib encoder falls back to pure Python when ``indent`` is set and
    would walk the payload a second time."""
    return _json_text(payload, "") + "\n"


def save_json_report(payload: dict, path) -> None:
    atomic_write_text(path, report_json(payload))
