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
from pathlib import Path

import numpy as np

from .series import HermiteSeries
from .spectral import NormSequence
from .logscalar import LogScalar

__all__ = ["save_series", "load_series", "load_samples_csv", "norm_sequence_csv",
           "save_norm_sequence_csv", "save_stft_field_csv", "json_value", "report_json",
           "save_json_report", "atomic_write_text", "InputFormatError"]


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
    order = np.lexsort(series.indices.T[::-1])     # entries sorted by alpha
    vals = series.values[order]
    entries = [{"alpha": a, "re": re, "im": im} for a, re, im in
               zip(series.indices[order].tolist(), vals.real.tolist(), vals.imag.tolist())]
    return {"d": series.dimension, "max_degree": series.max_degree, "entries": entries}


def save_series(series: HermiteSeries, path) -> None:
    """Write the coefficient JSON format:

        {"d": int, "max_degree": int,
         "entries": [{"alpha": [int, ...], "re": float, "im": float}, ...]}
    """
    atomic_write_text(path, json.dumps(series_to_json_dict(series), indent=1) + "\n")


def load_series(path) -> HermiteSeries:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        entries = data["entries"]
        values = np.empty(len(entries), dtype=complex)
        values.real = [float(entry["re"]) for entry in entries]
        values.imag = [float(entry.get("im", 0.0)) for entry in entries]
        return HermiteSeries.from_arrays(
            int(data["d"]), int(data["max_degree"]), [entry["alpha"] for entry in entries],
            values, str(data.get("truncation_tag", "file")))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: bad coefficient entry ({exc})") from exc


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


def save_stft_field_csv(fld, path) -> None:
    """Write an STFT field: grid-spec header lines, then row-major |V| values.

    Rows sweep the spatial axes, columns the frequency axes (flattened in C
    order for dimension 2).
    """
    g = fld.grid
    lines = [
        f"# stft_field d={fld.dimension}",
        f"# spatial_step={g.spatial_step!r} freq_step={g.freq_step!r}",
        f"# spatial_extent={g.spatial_extent!r} freq_extent={g.freq_extent!r}",
        f"# window_width={g.window_width!r}",
        f"# nx={fld.x_axis.size} nxi={fld.xi_axis.size}",
    ]
    mag = np.abs(fld.values)
    d = fld.dimension
    rows = mag.reshape(fld.x_axis.size**d, fld.xi_axis.size**d)
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


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
