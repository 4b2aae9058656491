"""Seeded job generators for the three benchmark workloads.

A workload is a stream of passes; a pass is a fixed list of job slots whose
parameters are drawn per pass.  Degrees, powers and ``--quad-order`` values
are dealt from seeded decks (see Deck) and preset parameters are drawn per
job, so within one run no two jobs share an input and every run covers each
range evenly, which keeps pass times comparable between seeds.  The sizes
that set a job's cost are dealt at mirrored positions of their ranges (a
large size in one slot, small ones in others), so that one pass costs about
as much as the next.  Every job carries its own output check (see checks.py).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gammaln

import checks
from checks import CheckError, Coeffs, close, close_log, strict_json


@dataclass
class Job:
    kind: str
    argv: list
    check: Callable[[str], None]
    out_path: str | None = None                 # report file, if the job writes --out
    remove_after: list = field(default_factory=list)


POSITIONS = 16          # slices of a deck's range that a pass can deal from


class Deck:
    """Deals the values of a range without replacement, in seeded order.

    The first deal is the top of the range, so a generator's first pass
    holds the largest size of every range: the untimed warm-up pass, where
    the process reaches its peak memory whatever the seed, and the set-up
    job (the first job of a generator with a fixed seed).
    After that the range is cut into ``strata`` equal slices, and each round
    of deals takes one value from every slice in shuffled order, so any
    stretch of deals covers the range evenly.  A slice starts over once it
    is used up.  ``deal(at)`` instead takes the slice at position ``at`` of
    ``POSITIONS`` (0 is the bottom of the range).
    """

    def __init__(self, rng: random.Random, values, strata: int = POSITIONS):
        self.rng = rng
        vals = list(values)
        k = min(strata, len(vals))
        self.slices = [vals[i * len(vals) // k:(i + 1) * len(vals) // k] for i in range(k)]
        self.unused = [sl[:] for sl in self.slices]
        self.order: list = []
        self.fresh = True

    def deal(self, at: int | None = None):
        if self.fresh:
            self.fresh = False
            return self.unused[-1].pop()
        if at is not None:
            i = at * len(self.slices) // POSITIONS
        else:
            if not self.order:
                self.order = list(range(len(self.slices)))
                self.rng.shuffle(self.order)
            i = self.order.pop()
        if not self.unused[i]:
            self.unused[i] = self.slices[i][:]
        return self.unused[i].pop(self.rng.randrange(len(self.unused[i])))


def mirror(at: int) -> int:
    return POSITIONS - 1 - at


def fmt(x: float) -> str:
    return f"{x:.4f}"


def parse_norms_csv(text: str) -> list:
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("N,"):
            continue
        n, log, _ = line.split(",", 2)
        rows.append((int(n), float(log)))
    return rows


def expect_orders(rows, n_max: int) -> None:
    got = [n for n, _ in rows]
    if got != list(range(n_max + 1)):
        raise CheckError(f"norm rows cover N={got[:3]}..., expected 0..{n_max}")


# ----------------------------------------------------------------------
# coeff-route: classification, cross-validation and certification
# ----------------------------------------------------------------------

class CoeffRoute:
    """Exact coefficient-space presets through classify / norms l2 /
    envelope / verify-lemmas.  No quadrature, Hermite evaluation or STFT."""

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.deg = {name: Deck(rng, range(60, 201)) for name in
                    ("flat", "s", "l2", "env")}
        self.random_deg = {1: Deck(rng, range(5, 201)), 2: Deck(rng, range(5, 61)),
                           3: Deck(rng, range(5, 25))}
        self.random_seed = Deck(rng, range(1, 100_000))
        self.n_classify = Deck(rng, range(20, 121))
        self.n_l2 = Deck(rng, range(100, 401))
        self.n_env = Deck(rng, range(60, 401))
        self.t_max = Deck(rng, range(1500, 15001))    # tenths
        self.dims = Deck(rng, (1, 2, 3))
        self.position = Deck(rng, range(POSITIONS))
        self.passes = 0

    def make_pass(self) -> list:
        """n_max sets a classify job's cost, so the three classify jobs take
        it from three thirds of its range, each at the mirror of its M."""
        self.passes += 1
        at = self.position.deal()
        return [self.classify_flat(at), self.classify_s((at + 5) % POSITIONS),
                self.classify_random((at + 11) % POSITIONS),
                self.norms_l2(), self.envelope_norm(), self.envelope_coeff(),
                self.verify_lemmas()]

    def _synthetic(self, name: str, M: int):
        """Draw (scale, r) whose generator keeps every entry above exp(-690),
        so the library drops none of them."""
        while True:
            if name == "synthetic_flat":
                scale, r = self.rng.uniform(0.5, 3.0), self.rng.uniform(0.3, 3.0)
            else:
                scale, r = self.rng.uniform(0.5, 2.0), self.rng.uniform(0.5, 3.0)
            scale, r = float(fmt(scale)), float(fmt(r))
            log_c = checks.synthetic_log_coeffs(name, scale, r, M)
            if log_c.min() > -690.0:
                return scale, r, log_c

    def classify_flat(self, at: int) -> Job:
        M = self.deg["flat"].deal(mirror(at))
        sigma, r, _ = self._synthetic("synthetic_flat", M)
        n_max = self.n_classify.deal(at)
        spec = f"synthetic_flat:{fmt(sigma)},{fmt(r)},{M}"

        def check(text):
            rep = strict_json(text)
            cls = rep["classification"]
            if cls["kind"] != "flat_sigma" or cls["flavor"] != "roumieu":
                raise CheckError(f"{spec}: classified {cls['kind']}/{cls['flavor']}")
            close(cls["parameter"], sigma, 1e-6, f"{spec}: sigma-hat")
            cv = rep["cross_validation"]
            if not (cv["agrees"] and cv["coeff_flavor"] == cv["norm_flavor"] == "roumieu"):
                raise CheckError(f"{spec}: routes disagree {cv['coeff_flavor']}"
                                 f"/{cv['norm_flavor']}")
            fit = cv["coeff_fit"]
            if fit["orders"] != list(range(3, M + 1)):
                raise CheckError(f"{spec}: coefficient fit used shells {fit['orders'][:3]}...")
            # implied radius t_k = (c_k k!^{1/(2 sigma)})^{1/k} is exactly r
            for v in fit["log_radii"]:
                close(v, math.log(r), 1e-9, f"{spec}: implied radius")

        argv = ["classify", "--preset", spec, "--sigma", fmt(sigma), "--n-max", str(n_max)]
        return Job("classify-flat", argv, check)

    def classify_s(self, at: int) -> Job:
        M = self.deg["s"].deal(mirror(at))
        s, r, _ = self._synthetic("synthetic_s", M)
        sigma = float(fmt(self.rng.uniform(0.5, 2.0)))
        spec = f"synthetic_s:{fmt(s)},{fmt(r)},{M}"

        def check(text):
            rep = strict_json(text)
            cls = rep["classification"]
            if cls["kind"] != "s_type" or cls["flavor"] != "roumieu":
                raise CheckError(f"{spec}: classified {cls['kind']}/{cls['flavor']}")
            close(cls["parameter"], s, 1e-6, f"{spec}: s-hat")
            # implied rate u_k = -log c_k / k^{1/(2s)} is exactly r
            for v in cls["diagnostics"]["s_fit"]["log_radii"]:
                close(v, math.log(r), 1e-8, f"{spec}: implied rate")
            if rep["cross_validation"]["sigma"] != sigma:
                raise CheckError(f"{spec}: cross-validation ran at another sigma")

        argv = ["classify", "--preset", spec, "--sigma", fmt(sigma),
                "--n-max", str(self.n_classify.deal(at))]
        return Job("classify-s", argv, check)

    def classify_random(self, at: int) -> Job:
        d = self.dims.deal()
        M = self.random_deg[d].deal(mirror(at))
        seed = self.random_seed.deal()
        sigma = float(fmt(self.rng.uniform(0.5, 3.0)))
        spec = f"finite_random:{M},{seed}"

        def check(text):
            rep = strict_json(text)
            cls = rep["classification"]
            # every |alpha| <= M carries a nonzero gaussian draw, so shells
            # 3..M are all occupied: a finite expansion iff fewer than 8
            if M - 2 < 8:
                if cls["kind"] != "finite_expansion" or cls["degree"] != M:
                    raise CheckError(f"{spec} d={d}: {cls['kind']} degree {cls['degree']}")
                if rep["cross_validation"]["coeff_flavor"] != "beurling":
                    raise CheckError(f"{spec} d={d}: finite expansion not universal")
            elif cls["kind"] == "finite_expansion":
                raise CheckError(f"{spec} d={d}: {M - 2} shells called finite")
            # flavors are not compared: the finite-shell heuristic may split them

        argv = ["classify", "--preset", spec, "--dim", str(d), "--sigma", fmt(sigma),
                "--n-max", str(self.n_classify.deal(at))]
        return Job(f"classify-random-d{d}", argv, check)

    def norms_l2(self) -> Job:
        name = "synthetic_flat" if self.passes % 2 else "synthetic_s"
        M = self.deg["l2"].deal()
        scale, r, log_c = self._synthetic(name, M)
        n_max = self.n_l2.deal()
        spec = f"{name}:{fmt(scale)},{fmt(r)},{M}"
        ref = checks.log_l2_powers(log_c, 2.0 * np.arange(M + 1) + 1.0, range(n_max + 1))

        def check(text):
            rep = strict_json(text)
            rows = [(v["N"], v["log_norm"]) for v in rep["values"]]
            expect_orders(rows, n_max)
            for (n, got), want in zip(rows, ref):
                close_log(got, want, 1e-9, f"{spec}: log||H^{n} f||")

        argv = ["norms", "--preset", spec, "--norm", "l2", "--n-max", str(n_max),
                "--format", "json"]
        return Job("norms-l2", argv, check)

    def envelope_norm(self) -> Job:
        sigma = float(fmt(self.rng.uniform(0.5, 3.0)))
        r = float(fmt(self.rng.uniform(0.3, 3.0)))
        n_max = self.n_env.deal()

        def check(text):
            rep = strict_json(text)
            kept = [n for n in range(n_max + 1) if n >= 1 and n * sigma > math.e]
            if rep["skipped"] != n_max + 1 - len(kept):
                raise CheckError(f"envelope sigma={sigma}: skipped {rep['skipped']}")
            if [row["order"] for row in rep["rows"]] != kept:
                raise CheckError(f"envelope sigma={sigma}: wrong rows")
            for row in rep["rows"]:
                close(row["log_envelope"], checks.envelope_norm_flat_mp(row["order"], sigma, r),
                      1e-10, f"norm envelope N={row['order']}")

        argv = ["envelope", "--sigma", fmt(sigma), "--radius", fmt(r),
                "--n-max", str(n_max), "--format", "json"]
        return Job("envelope-norm", argv, check)

    def envelope_coeff(self) -> Job:
        M = self.deg["env"].deal()
        r = float(fmt(self.rng.uniform(0.3, 3.0)))
        classical = self.passes % 2 == 0
        scale = float(fmt(self.rng.uniform(0.5, 2.0 if classical else 3.0)))
        ref = checks.envelope_coeff_s_mp if classical else checks.envelope_coeff_flat_mp

        def check(text):
            rep = strict_json(text)
            rows = rep["rows"]
            if [row["order"] for row in rows] != list(range(M + 1)):
                raise CheckError(f"coefficient envelope: wrong rows for M={M}")
            for row in rows:
                close(row["log_envelope"], ref(row["order"], scale, r), 1e-10,
                      f"coefficient envelope k={row['order']}")

        argv = ["envelope", "--target", "coeff", "--s" if classical else "--sigma",
                fmt(scale), "--radius", fmt(r), "--max-degree", str(M), "--format", "json"]
        return Job("envelope-coeff", argv, check)

    def verify_lemmas(self) -> Job:
        t_max = self.t_max.deal() / 10.0

        def check(text):
            rep = strict_json(text)
            if len(rep["suites"]) != 9:
                raise CheckError(f"verify-lemmas: {len(rep['suites'])} suites, expected 9")
            failed = [s["name"] for s in rep["suites"] if not s["passed"]]
            if not rep["all_passed"] or failed:
                raise CheckError(f"verify-lemmas --t-max {t_max}: failed {failed}")

        return Job("verify-lemmas", ["verify-lemmas", "--t-max", f"{t_max:.1f}"], check)


# ----------------------------------------------------------------------
# grid-route: norms that synthesize H^N f on grids (linf, lp, mod)
# ----------------------------------------------------------------------

class GridRoute:
    """Analyzed gaussian / modulated_gaussian presets through the grid-based
    norms.  The checks evaluate H^N f from the analyzed coefficients with
    their own recurrence and trapezoid sums (see checks.Coeffs)."""

    WIDTHS = ((0.6, 0.85), (1.2, 1.8))   # away from 1: see README, findings
    MOD_PARAMS = ("2,2,const", "2,2,v1", "2,2,1/v1", "inf,inf,const")

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.deg = {"linf1": Deck(rng, range(12, 41)), "linf2": Deck(rng, range(12, 17)),
                    "lp1": Deck(rng, range(12, 41)), "lp2": Deck(rng, range(12, 25)),
                    "mod": Deck(rng, range(12, 41)), "pair": Deck(rng, range(12, 41))}
        # one deck for every job: >= M + 8 for all M here, ~50 passes' worth
        self.quad = Deck(rng, range(48, 401))
        self.n_max: dict = {}
        self.p = {1: Deck(rng, (1, 3, 4)), 2: Deck(rng, (1, 2, 3, 4))}
        self.mod_params = Deck(rng, self.MOD_PARAMS)
        self.modulated = Deck(rng, (False, True))
        self.width_range = Deck(rng, range(len(self.WIDTHS)))
        self.position = Deck(rng, range(POSITIONS))

    def make_pass(self) -> list:
        """M and n_max set a job's cost.  linf d = 1, lp d = 2 and the pair
        take both at one position of their ranges, the other three at its
        mirror, so that the two groups' costs rise and fall against each
        other."""
        at = self.position.deal()
        return [self.norm_job("linf", 1, "linf1", (2, 5), at),
                self.norm_job("linf", 2, "linf2", (1, 1), mirror(at)),
                self.norm_job(f"lp:{self.p[1].deal()}", 1, "lp1", (4, 10), mirror(at)),
                self.norm_job(f"lp:{self.p[2].deal()}", 2, "lp2", (2, 6), at),
                self.norm_job(f"mod:{self.mod_params.deal()}", 1, "mod", (3, 8), mirror(at)),
                *self.pair(at)]

    def _width(self) -> float:
        lo, hi = self.WIDTHS[self.width_range.deal()]
        return float(fmt(self.rng.uniform(lo, hi)))

    def _n_max(self, slot: str, n_range, at: int) -> int:
        if slot not in self.n_max:
            self.n_max[slot] = Deck(self.rng, range(n_range[0], n_range[1] + 1))
        return self.n_max[slot].deal(at)

    def _preset(self, d: int) -> str:
        w = self._width()
        if d == 1 and self.modulated.deal():
            shift = float(fmt(self.rng.uniform(-1.5, 1.5)))
            freq = float(fmt(self.rng.uniform(-2.0, 2.0)))
            return f"modulated_gaussian:{fmt(w)},{fmt(shift)},{fmt(freq)}"
        return f"gaussian:{fmt(w)}"

    def _argv(self, spec, d, M, q, norm, n_max):
        return ["norms", "--preset", spec, "--dim", str(d), "--max-degree", str(M),
                "--quad-order", str(q), "--norm", norm, "--n-max", str(n_max)]

    def norm_job(self, norm: str, d: int, slot: str, n_range, at: int) -> Job:
        M = self.deg[slot].deal(at)
        q = self.quad.deal()
        n_max = self._n_max(slot, n_range, at)
        spec = self._preset(d)
        argv = self._argv(spec, d, M, q, norm, n_max)

        def check(text):
            rows = parse_norms_csv(text)
            expect_orders(rows, n_max)
            coeffs = analyzed_coeffs(spec, d, M, q)
            for n, got in rows:
                check_grid_norm(norm, coeffs, n, got, f"{spec} d={d} M={M} {norm} N={n}")

        return Job(f"{norm.split(':')[0]}-d{d}", argv, check)

    def pair(self, at: int):
        """lp:2 and l2 on one preset: each must match the Parseval sum, and
        the two reports each other, to 1e-9."""
        M, q = self.deg["pair"].deal(at), self.quad.deal()
        n_max = self._n_max("pair", (4, 10), at)
        spec = self._preset(1)
        reports: dict = {}

        def checker(norm):
            def check(text):
                rows = parse_norms_csv(text)
                expect_orders(rows, n_max)
                coeffs = analyzed_coeffs(spec, 1, M, q)
                for n, got in rows:
                    close_log(got, coeffs.log_l2(n), 1e-9,
                              f"{spec} M={M} {norm} N={n} vs Parseval")
                reports[norm] = rows
                if len(reports) == 2:
                    for (n, a), (_, b) in zip(reports["lp:2"], reports["l2"]):
                        close_log(a, b, 1e-9, f"{spec} M={M} lp:2 vs l2 at N={n}")
            return check

        return [Job(f"{norm.split(':')[0]}-pair", self._argv(spec, 1, M, q, norm, n_max),
                    checker(norm)) for norm in ("lp:2", "l2")]


def analyzed_coeffs(spec: str, d: int, M: int, q: int) -> Coeffs:
    """The coefficients the job's --preset resolves to, checked against an
    independent projection before they serve as the norm reference.

    They come from ``hgl.presets.build_preset`` because quadrature roundoff
    in the small top coefficients is amplified by (2M+d)^N: only the exact
    coefficients the job used give a reference for H^N f.
    """
    from hgl.presets import Preset, build_preset
    series = build_preset(Preset.parse(spec), dimension=d, max_degree=M, quad_order=q)
    coeffs = Coeffs.from_series(series)
    ref = independent_coeffs(spec, d, M)
    err = float(np.max(np.abs(coeffs.dense - ref)))
    if err > 1e-4 * float(np.max(np.abs(ref))):
        raise CheckError(f"{spec} d={d} M={M} q={q}: analyzed coefficients off by {err:.3g}")
    return coeffs


def independent_coeffs(spec: str, d: int, M: int) -> np.ndarray:
    name, _, rest = spec.partition(":")
    params = [float(v) for v in rest.split(",")]
    if name == "gaussian":
        c1 = checks.gaussian_coeffs_1d(params[0], M)
        dense = c1 if d == 1 else np.outer(c1, c1)
    else:
        w, shift, freq = params
        dense = checks.projected_coeffs_1d(
            lambda x: np.exp(-((x - shift) ** 2) / (2.0 * w * w) + 1j * freq * x),
            M, extent=abs(shift) + 12.0 * w + 4.0, step=0.01)
    dense = np.asarray(dense, dtype=complex)
    if d == 2:
        k = np.add.outer(np.arange(M + 1), np.arange(M + 1))
        dense[k > M] = 0.0
    return dense


# grid spacings of the references: fine enough that the trapezoid error of
# |f|^p with kinks (odd p) stays below 2e-5; smooth |f|^4 converges spectrally
LP_STEP = {(1, False): 0.005, (1, True): 0.02, (2, False): 0.03, (2, True): 0.06}
LINF_STEP = {1: 0.002, 2: 0.02}
# log tolerances of lp at odd p, by (p, d): |f|^p has kinks at the zeros of
# f, where the library's Gauss-Hermite sum (order 4M + 64) converges slowly.
# About 1.5x (d = 1) and 2x (d = 2) the worst error of a sweep over this
# workload's presets, degrees and powers; see README, "Output checks"
LP_LOG_TOL = {(1.0, 1): 0.1, (1.0, 2): 2e-2, (3.0, 1): 1e-2, (3.0, 2): 1e-3}


def check_grid_norm(norm: str, coeffs: Coeffs, n: int, got: float, what: str) -> None:
    l2 = coeffs.log_l2(n)
    if norm == "linf":
        grid_max, peak = coeffs.peak(n, LINF_STEP[coeffs.d])
        sampled = max(coeffs.value_mp(n, peak),
                      coeffs.value_mp(n, tuple(0.0 for _ in peak)))
        if not got >= math.log(sampled) - 1e-9:
            raise CheckError(f"{what}: sup {got!r} below |f| = log {math.log(sampled)!r} "
                             f"at {peak}")
        if not got <= math.log(grid_max) + 1e-2:
            raise CheckError(f"{what}: sup {got!r} above the fine-grid peak")
    elif norm.startswith("lp:"):
        p = float(norm[3:])
        if p == 2:
            close_log(got, l2, 1e-9, f"{what} vs Parseval")
            return
        tol = LP_LOG_TOL.get((p, coeffs.d), 1e-7)
        close_log(got, coeffs.log_lp(n, p, LP_STEP[coeffs.d, p % 2 == 0]), tol, what)
    else:
        params = norm[4:]
        energy = math.log(1.02)
        if not math.isfinite(got):
            raise CheckError(f"{what}: not finite")
        if params == "2,2,const":
            close_log(got, l2, energy, f"{what} energy identity")
        elif params == "2,2,v1" and got < l2 - energy:
            raise CheckError(f"{what}: weight >= 1 but norm {got!r} below L2 {l2!r}")
        elif params == "2,2,1/v1" and got > l2 + energy:
            raise CheckError(f"{what}: weight <= 1 but norm {got!r} above L2 {l2!r}")
        elif params == "inf,inf,const" and got > l2 + 1e-9:
            raise CheckError(f"{what}: sup |V f| {got!r} above ||f||_2 {l2!r}")


# ----------------------------------------------------------------------
# bulk-io: the series layer as a bulk data container
# ----------------------------------------------------------------------

class BulkIO:
    """Large coefficient JSON through analyze --input and classify --input,
    and big tensor-quadrature analyses (d = 3, and d = 1 at high order)."""

    def __init__(self, rng: random.Random, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.np_rng = np.random.default_rng(rng.randrange(2**32))
        self.deg_file = Deck(rng, range(44, 51))
        self.deg_d3 = Deck(rng, range(30, 41))
        self.deg_d1 = Deck(rng, range(20, 61))
        self.quad_d3 = Deck(rng, range(50, 81))
        self.quad_d1 = Deck(rng, range(600, 2001))
        self.n_max = Deck(rng, range(20, 61))
        self.position = Deck(rng, range(POSITIONS))
        self.passes = 0

    def make_pass(self) -> list:
        """The file's M sets the cost of two jobs; the two analyses take
        their sizes at its mirror position, so a large file comes with small
        analyses."""
        self.passes += 1
        at = self.position.deal()
        convert, classify = self.file_round_trip(at)
        return [convert, classify, self.analyze_d3(mirror(at)), self.analyze_d1(mirror(at))]

    def file_round_trip(self, at: int):
        """A d = 3 flat-scale tensor with random phases, written as coefficient
        JSON; analyze --input re-emits it, classify --input reads that."""
        M = self.deg_file.deal(at)
        sigma = float(fmt(self.rng.uniform(0.5, 3.0)))
        r = float(fmt(self.rng.uniform(0.3, 3.0)))
        n_max = self.n_max.deal()
        src = os.path.join(self.workdir, f"tensor{self.passes}.json")
        dst = os.path.join(self.workdir, f"tensor{self.passes}.out.json")
        written = write_flat_tensor(src, M, sigma, r, self.np_rng)

        def check_convert(text):
            rep = strict_json(text)
            if rep["d"] != 3 or rep["max_degree"] != M:
                raise CheckError(f"{src}: header changed")
            seen = np.zeros(written.shape, dtype=bool)
            for e in rep["entries"]:
                a = tuple(e["alpha"])
                if seen[a] or complex(e["re"], e["im"]) != written[a]:
                    raise CheckError(f"{src}: entry {a} repeated or changed")
                seen[a] = True
            if seen.sum() != np.count_nonzero(written):
                raise CheckError(f"{src}: {seen.sum()} of {np.count_nonzero(written)} entries")

        def check_classify(text):
            rep = strict_json(text)
            fit = rep["cross_validation"]["coeff_fit"]
            if fit["orders"] != list(range(3, M + 1)):
                raise CheckError(f"M={M}: coefficient fit used shells {fit['orders'][:3]}...")
            # shell maxima |c| = r^k / min_{|alpha|=k} alpha!^{1/(2 sigma)}
            for k, v in zip(fit["orders"], fit["log_radii"]):
                want = (math.log(r) + (math.lgamma(k + 1)
                        - checks.min_log_multifactorial(k, 3)) / (2.0 * sigma * k))
                close(v, want, 1e-9, f"M={M} sigma={sigma}: implied radius k={k}")
            kept = [n for n in range(n_max + 1) if n * sigma > math.e]
            if rep["cross_validation"]["norm_fit"]["orders"] != kept:
                raise CheckError(f"M={M}: norm fit powers differ from N sigma > e")

        convert = Job("analyze-input-d3", ["analyze", "--input", src, "--out", dst],
                      check_convert, out_path=dst, remove_after=[src])
        classify = Job("classify-input-d3", ["classify", "--input", dst, "--sigma", fmt(sigma),
                                             "--n-max", str(n_max)],
                       check_classify, remove_after=[dst])
        return convert, classify

    def _analyze_gaussian(self, d: int, M: int, q: int, lo: float, hi: float,
                          tol: float) -> Job:
        w = float(fmt(self.rng.uniform(lo, hi)))
        spec = f"gaussian:{fmt(w)}"

        def check(text):
            rep = strict_json(text)
            c1 = checks.gaussian_coeffs_1d(w, M)
            worst = 0.0
            for e in rep["entries"]:
                alpha = e["alpha"]
                if len(alpha) != d or sum(alpha) > M:
                    raise CheckError(f"{spec}: stray index {alpha}")
                want = math.prod(c1[a] for a in alpha)
                worst = max(worst, abs(complex(e["re"], e["im"]) - want))
            if worst > tol:
                raise CheckError(f"{spec} d={d} M={M} q={q}: off the closed form by {worst:.3g}")

        argv = ["analyze", "--preset", spec, "--dim", str(d), "--max-degree", str(M),
                "--quad-order", str(q)]
        return Job(f"analyze-d{d}", argv, check)

    def analyze_d3(self, at: int) -> Job:
        return self._analyze_gaussian(3, self.deg_d3.deal(at), self.quad_d3.deal(at),
                                      0.75, 1.35, 1e-8)

    def analyze_d1(self, at: int) -> Job:
        return self._analyze_gaussian(1, self.deg_d1.deal(), self.quad_d1.deal(at),
                                      0.6, 1.8, 1e-12)


def write_flat_tensor(path: str, M: int, sigma: float, r: float, rng) -> np.ndarray:
    """Write c_alpha = r^|alpha| alpha!^{-1/(2 sigma)} e^{i phi} (random phase)
    for every |alpha| <= M in d = 3, as coefficient JSON streamed entry by
    entry; returns the dense tensor written (0 where |alpha| > M)."""
    k = np.arange(M + 1)
    a, b, c = np.meshgrid(k, k, k, indexing="ij")
    log_c = ((a + b + c) * math.log(r)
             - (gammaln(a + 1.0) + gammaln(b + 1.0) + gammaln(c + 1.0)) / (2.0 * sigma))
    dense = np.exp(log_c + 1j * rng.uniform(0.0, 2.0 * math.pi, size=log_c.shape))
    dense[a + b + c > M] = 0.0
    with open(path, "w") as fh:
        fh.write(f'{{"d": 3, "max_degree": {M}, "entries": [')
        sep = ""
        for alpha in zip(*np.nonzero(dense)):
            v = complex(dense[alpha])
            fh.write(f'{sep}{{"alpha": [{alpha[0]}, {alpha[1]}, {alpha[2]}], '
                     f'"re": {v.real!r}, "im": {v.imag!r}}}')
            sep = ", "
        fh.write("]}")
    return dense


WORKLOADS = {"coeff-route": CoeffRoute, "grid-route": GridRoute, "bulk-io": BulkIO}
