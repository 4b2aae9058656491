"""Per-layer metrics from the spans of a traced run.

Times are self times (a span's duration less what its child spans cover)
summed per pass; the four suite times of ``envelopes`` are inclusive.  Every
figure is a mean over the traced passes, so runs of different length
compare.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, self_times

# share of each traced job's wall time, as the harness measured it, that the
# layer self times must cover; the rest is the tracer's bookkeeping
MIN_ACCOUNTED = 0.95

# metric -> (span names, what to sum, unit); "self", "incl", "calls", "count"
SPAN_METRICS = {
    "quadrature.rule_self_s": (("quadrature.gauss_hermite_rule",), "self", "s"),
    "quadrature.rule_builds": (("quadrature.gauss_hermite_rule",), "calls", "count"),
    "hermite.matrix_s": (("hermite.hermite_matrix",), "self", "s"),
    "hermite.matrix_calls": (("hermite.hermite_matrix",), "calls", "count"),
    "hermite.matrix_entries": (("hermite.hermite_matrix",), "count", "count"),
    "hermite.sumsq_s": (("hermite.log_abs_hermite_sumsq",), "self", "s"),
    "series.synth_self_s": (("series.synthesize_many", "series.synthesize"), "self", "s"),
    "series.synth_calls": (("series.synthesize_many",), "calls", "count"),
    "series.synth_points": (("series.synthesize_many",), "count", "count"),
    "series.analyze_self_s": (("series.analyze",), "self", "s"),
    "series.construct_s": (("series.construct",), "self", "s"),
    "series.construct_entries": (("series.construct",), "count", "count"),
    "spectral.lp_norm_self_s": (("spectral.lp_norm",), "self", "s"),
    "spectral.lp_norm_calls": (("spectral.lp_norm",), "calls", "count"),
    "spectral.apply_H_s": (("spectral.apply_H",), "self", "s"),
    "spectral.apply_H_calls": (("spectral.apply_H",), "calls", "count"),
    "spectral.norm_sequence_self_s": (("spectral.norm_sequence",), "self", "s"),
    "modulation.stft_self_s": (("modulation.stft",), "self", "s"),
    "modulation.stft_calls": (("modulation.stft",), "calls", "count"),
    "modulation.mixed_norm_s": (("modulation.modulation_norm",), "self", "s"),
    "classify.radius_fit_s": (("classify.fit_radius_from_norms",), "self", "s"),
    "classify.radius_fit_powers": (("classify.fit_radius_from_norms",), "count", "count"),
    "classify.coeff_fit_s": (("classify.fit_flat_sigma", "classify.fit_s_type",
                              "classify.estimate_sigma", "classify.estimate_s"), "self", "s"),
    "classify.shell_profile_s": (("classify.shell_profile",), "self", "s"),
    "envelopes.factor_ratios_s": (("envelopes.check_factor_ratios_bounded",), "incl", "s"),
    "envelopes.factor_monotone_s": (("envelopes.check_envelope_factor_monotone",), "incl", "s"),
    "envelopes.infimum_s": (("envelopes.check_infimum_bound",), "incl", "s"),
    "envelopes.peak_term_s": (("envelopes.check_peak_term_bounded",), "incl", "s"),
    "io.load_series_s": (("io.load_series",), "self", "s"),
    "io.series_to_json_s": (("io.series_to_json_dict",), "self", "s"),
    "io.bytes_read": (("io.load_series", "io.load_samples_csv"), "count", "bytes"),
    "cli.self_s": (("cli.main",), "self", "s"),
}


def per_layer_metrics(tracer, traced: list, plain: list):
    """(metrics {name: (value, unit)}, printable table, accounting failures)."""
    spans = tracer.spans
    selfs, escapes = self_times(spans)
    n_pass = len(traced)
    results = {r.job_id: r for p in traced for r in p}

    by_name = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0, "count": 0})
    layer_self = defaultdict(float)
    job_account = defaultdict(float)
    orders_by_job = defaultdict(set)
    for rec in spans:
        sid, name, start, end, _, job, count = rec
        own, overlap = selfs[sid]
        agg = by_name[name]
        agg["self"] += own
        agg["incl"] += end - start
        agg["calls"] += 1
        agg["count"] += count or 0
        layer_self[name.split(".")[0]] += own
        job_account[job] += own - overlap
        if name == "quadrature.gauss_hermite_rule":
            orders_by_job[job].add(count)

    metrics = {}
    for metric, (names, field, unit) in SPAN_METRICS.items():
        metrics[metric] = (sum(by_name[n][field] for n in names) / n_pass, unit)

    builds = by_name["quadrature.gauss_hermite_rule"]["calls"]
    distinct = sum(len(v) for v in orders_by_job.values())
    jobs_per_order = defaultdict(int)
    for orders in orders_by_job.values():
        for q in orders:
            jobs_per_order[q] += 1
    shared = sum(1 for v in jobs_per_order.values() if v > 1)
    metrics["quadrature.rule_orders_distinct"] = (distinct / n_pass, "count")
    metrics["quadrature.rule_reuse"] = (builds / distinct if distinct else 0.0, "ratio")
    metrics["quadrature.rule_orders_cross_job"] = (
        shared / len(jobs_per_order) if jobs_per_order else 0.0, "ratio")
    metrics["presets.build_self_s"] = (layer_self["presets"] / n_pass, "s")

    lemma_jobs = [r for p in plain for r in p if r.kind == "verify-lemmas"]
    wall = sum(r.wall for r in lemma_jobs)
    metrics["envelopes.cpu_over_wall"] = (sum(r.cpu for r in lemma_jobs) / wall
                                          if wall else 0.0, "ratio")
    metrics["cli.report_bytes"] = (sum(r.report_bytes for r in results.values()) / n_pass,
                                   "bytes")

    plain_p50 = statistics.median(sum(r.wall for r in p) for p in plain)
    traced_p50 = statistics.median(sum(r.wall for r in p) for p in traced)
    metrics["trace.overhead_frac"] = (traced_p50 / plain_p50 - 1.0, "ratio")

    failures = []
    for jid, res in results.items():
        if job_account[jid] < MIN_ACCOUNTED * res.wall:
            failures.append((res.argv, f"trace accounting: layer self times sum to "
                                       f"{job_account[jid]:.6f} s of a {res.wall:.6f} s job"))
    if escapes:
        failures.append((traced[0][0].argv, f"trace accounting: {escapes} spans outside "
                                           "their parent"))
    metrics["trace.accounted_frac"] = (min(job_account[jid] / res.wall
                                           for jid, res in results.items()), "ratio")

    total = sum(r.wall for r in results.values()) / n_pass
    lines = [f"per-layer self time per traced pass ({n_pass} traced, {len(plain)} untraced "
             f"passes; job wall {total:.4f} s per pass)"]
    for layer in LAYERS:
        lines.append(f"  {layer:11s} {layer_self[layer] / n_pass:10.4f} s  "
                     f"{100.0 * layer_self[layer] / n_pass / total:5.1f}%")
    overlap = (sum(layer_self.values()) - sum(job_account.values())) / n_pass
    lines.append(f"  {'sum':11s} {sum(layer_self.values()) / n_pass:10.4f} s  "
                 f"(less {overlap:.4f} s of parallel-thread overlap = "
                 f"{sum(job_account.values()) / n_pass:.4f} s accounted)")
    lines.append("spans by function (per traced pass; mean inclusive time per call):")
    for name, agg in sorted(by_name.items(), key=lambda kv: -kv[1]["self"]):
        if agg["calls"]:
            lines.append(f"  {name:44s} {agg['calls'] / n_pass:9.1f} calls "
                         f"{agg['self'] / n_pass:9.4f} s self "
                         f"{1e3 * agg['incl'] / agg['calls']:10.3f} ms/call")
    lines.append("per-layer metrics (per traced pass):")
    for name, (val, unit) in metrics.items():
        lines.append(f"  {name:34s} {val:14.6g} {unit}")
    return metrics, "\n".join(lines), failures
