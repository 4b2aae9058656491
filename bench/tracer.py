"""Outside-in tracer: spans around the public functions of each hgl module.

``install()`` replaces each listed function by a timing wrapper, in its own
module and in every hgl module that imported it by name (``from .series
import synthesize_many`` leaves an alias the module attribute alone would
not catch), and ``uninstall()`` puts the originals back.  Modules are looked
up in ``sys.modules``: the package attribute ``hgl.classify`` is the
re-exported function, not the module.

Span stacks are kept per thread, so suites that ``verify-lemmas`` runs on a
thread pool hang under the job's root span instead of under whatever span
another thread has open.  ``logscalar`` and the pointwise envelope formulas
that the check suites call thousands of times per job are not wrapped: a
wrapper would cost more than they do, so their time stays in their callers'
self time.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import time

import numpy as np

# module -> functions wrapped; a span is named "<layer>.<function>"
TRACED = {
    "hgl.hermite": ("hermite_eval", "hermite_eval_multi", "hermite_matrix",
                    "log_abs_hermite_sumsq"),
    "hgl.quadrature": ("gauss_hermite_rule",),
    "hgl.series": ("analyze", "synthesize", "synthesize_many"),
    "hgl.spectral": ("apply_H", "l2_norm", "lp_norm", "norm_sequence", "stirling_bounds"),
    "hgl.modulation": ("stft", "modulation_norm", "norm_sequence_mod", "norm_equiv_harness"),
    "hgl.classify": ("shell_profile", "fit_flat_sigma", "fit_s_type", "estimate_sigma",
                     "estimate_s", "classify", "fit_radius_from_norms", "cross_validate",
                     "coeff_bound_from_norms"),
    "hgl.envelopes": ("envelope_norm_flat", "envelope_coeff_flat", "envelope_coeff_s",
                      "envelope_norm_s", "check_factor_ratios_bounded",
                      "check_envelope_factor_monotone", "infimum_coeff_bound",
                      "check_infimum_bound", "check_peak_term_bounded"),
    "hgl.presets": ("build_preset", "synthetic_flat", "synthetic_s", "finite_random"),
    "hgl.io": ("load_series", "load_samples_csv", "series_to_json_dict", "save_series",
               "save_norm_sequence_csv", "save_json_report", "atomic_write_text"),
}
LAYERS = ("cli", "quadrature", "hermite", "series", "spectral", "modulation",
          "classify", "envelopes", "presets", "io")


def _fit_powers(args, kwargs, result):
    seq = args[0]
    sigma = kwargs.get("sigma", args[1] if len(args) > 1 else None)
    sigma = seq.sigma if sigma is None else float(sigma)
    return int(np.count_nonzero((seq.orders() * sigma > math.e) & np.isfinite(seq.log_norms())))


def _points(args, kwargs, result):
    pts = np.asarray(args[1])
    return int(pts.shape[0]) if pts.ndim else 1


# span name -> work count recorded with the span (computed after its end time)
COUNTS = {
    "quadrature.gauss_hermite_rule": lambda a, k, r: int(a[0]),     # the order
    "hermite.hermite_matrix": lambda a, k, r: (int(a[0]) + 1) * int(np.size(a[1])),
    "series.synthesize_many": _points,
    "series.construct": lambda a, k, r: len(a[0].coefficients),
    "classify.fit_radius_from_norms": _fit_powers,
    "io.load_series": lambda a, k, r: os.path.getsize(a[0]),
    "io.load_samples_csv": lambda a, k, r: os.path.getsize(a[0]),
}


class Tracer:
    """Records spans as (id, name, start, end, parent, job, count) tuples.

    A span is appended when it closes; open spans live on per-thread stacks
    as [id, name, parent, start].
    """

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._job = None
        self._patched: list = []

    # -- span bookkeeping ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else self._root
        frame = [next(self._ids), name, parent, 0.0]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _close(self, frame: list, end: float, count=None) -> None:
        self._stack().pop()
        self.spans.append((frame[0], frame[1], frame[3], end, frame[2], self._job, count))

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._root = None
        self._root = self._open("cli.main")[0]

    def end_job(self) -> None:
        self._close(self._stack()[-1], time.perf_counter())
        self._root = self._job = None

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, time.perf_counter())
                raise
            end = time.perf_counter()
            tracer._close(frame, end, count(args, kwargs, result) if count else None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hgl" or n.startswith("hgl.")]
        for mod_name, names in TRACED.items():
            layer = mod_name.split(".", 1)[1]
            mod = sys.modules[mod_name]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        series_cls = sys.modules["hgl.series"].HermiteSeries
        post_init = series_cls.__post_init__
        self._patched.append((series_cls, "__post_init__", post_init))
        series_cls.__post_init__ = self._wrap("series.construct", post_init)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list):
    """Per span id: (self time, overlap) where self time is the duration less
    the union of its children's intervals, and overlap is how much the
    children's durations exceed that union (children on parallel threads).
    Also returns the number of children that stick out of their parent."""
    children: dict = {}
    for rec in spans:
        if rec[4] is not None:
            children.setdefault(rec[4], []).append(rec)
    by_id = {rec[0]: rec for rec in spans}
    out = {}
    escapes = 0
    for sid, rec in by_id.items():
        kids = children.get(sid, [])
        start, end = rec[2], rec[3]
        ivs = []
        for k in kids:
            if k[2] < start - 1e-6 or k[3] > end + 1e-6:
                escapes += 1
            ivs.append((max(k[2], start), min(k[3], end)))
        union = _covered(ivs)
        out[sid] = ((end - start) - union, sum(e - s for s, e in ivs) - union)
    return out, escapes
