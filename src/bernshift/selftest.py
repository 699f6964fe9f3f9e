"""The acceptance suite: one callable per criterion, each returning a
pass/fail result with a small JSON-safe detail payload.

Every check is deterministic given the base seed; detail payloads never
include wall-clock numbers, so two runs with the same seed produce
byte-identical output (thread count only changes how chunked tallies are
scheduled, never their merged values).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import bit_alphabet, index_matrix, star_base
from .entropy import LOG2, run_recursion, shannon, solve_p, star_base_entropy
from .factormaps import ow, plane_projection, star, swap_bits, timar
from .freegroup import ball
from .pipeline import coinduced_map
from .verify import (
    _patterns,
    _require_threads,
    check_cocycle,
    check_coset_roundtrip,
    check_equivariance,
    exact_coset_pushforward,
    exact_pushforward,
    mc_pushforward,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {self.name}: {status}"


def c01_ow_exact_pushforward(seed: int, threads: int) -> CriterionResult:
    rep = exact_pushforward(ow(), 2, 1, threads=threads)
    counts = np.asarray(rep.counts)
    passed = (
        rep.total == 131072
        and rep.n_patterns == 1024
        and bool((counts == 128).all())
        and rep.max_deviation == 0.0
        and rep.verdict == "pass"
    )
    return CriterionResult(
        1,
        "ow_exact_pushforward",
        passed,
        {
            "total": rep.total,
            "n_patterns": rep.n_patterns,
            "expected_count": rep.expected_count,
            "max_deviation": rep.max_deviation,
        },
    )


def _ow_output_patterns() -> np.ndarray:
    """Packed output pattern on ball(1) for every binary input on ball(2).

    Symbols of the four-letter output alphabet are bit pairs, so XOR of
    packed base-4 patterns is pointwise GF(2) addition (base-4 digits
    never carry under XOR).
    """
    b2, b1 = ball(2), ball(1)
    values = index_matrix(2, len(b2), 0, 1 << len(b2))
    return _patterns(ow().apply_batch(values, b2, b1), 4)


def c02_ow_additivity(seed: int, threads: int) -> CriterionResult:
    f = _ow_output_patterns()
    n_bits = len(ball(2))
    # A GF(2)-linear check that covers all pairs: f(0) = 0 and f agrees
    # with the XOR of its basis images on every input.  Given those two
    # facts, f(x ^ y) = f(x) ^ f(y) for all 2^17 * 2^17 pairs.
    basis_ok = int(f[0]) == 0
    idx = np.arange(1 << n_bits, dtype=np.int64)
    predicted = np.zeros_like(f)
    for j in range(n_bits):
        bit_set = ((idx >> j) & 1).astype(bool)
        predicted ^= np.where(bit_set, f[1 << j], 0)
    linear_ok = bool((predicted == f).all())
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 1 << n_bits, 1 << 20)
    ys = rng.integers(0, 1 << n_bits, 1 << 20)
    pairs_ok = bool((f[xs ^ ys] == (f[xs] ^ f[ys])).all())
    passed = basis_ok and linear_ok and pairs_ok
    return CriterionResult(
        2,
        "ow_additivity",
        passed,
        {
            "maps_zero_to_zero": basis_ok,
            "basis_decomposition_exact": linear_ok,
            "random_pairs_checked": 1 << 20,
            "random_pairs_exact": pairs_ok,
        },
    )


def c03_timar_stabilization(seed: int, threads: int) -> CriterionResult:
    sites = ball(6)
    # trial k is row k of one draw; site-major int8 for the kernels
    draws = np.random.default_rng(seed).integers(0, 2, (200, len(sites)))
    xs = np.ascontiguousarray(draws.T, dtype=np.int8)
    planes = {k: timar(k).apply_batch(xs, sites, sites) for k in range(1, 6)}
    mismatches, compared = {}, {}
    for m in (1, 2, 3):
        short = planes[m]
        long = plane_projection(m + 2, m).apply_batch(planes[m + 2], sites, sites)
        both = (short >= 0) & (long >= 0)
        compared[m] = int(both.sum())
        mismatches[m] = int((both & ((((short ^ long) >> (m - 1)) & 1) == 1)).sum())
    passed = all(v == 0 for v in mismatches.values()) and all(v > 0 for v in compared.values())
    return CriterionResult(
        3,
        "timar_stabilization",
        passed,
        {"trials": 200, "compared_sites": compared, "plane_mismatches": mismatches},
    )


def c04_star_marginal(seed: int, threads: int) -> CriterionResult:
    rep = mc_pushforward(
        star(0.25), star_base(0.25), 30, 0, 10**6, seed, threshold=0.004, threads=threads
    )
    passed = (
        rep.verdict == "pass"
        and rep.tv_distance is not None
        and rep.tv_distance <= 0.004
        and rep.truncation_rate is not None
        and rep.truncation_rate < 1e-4
    )
    return CriterionResult(
        4,
        "star_marginal",
        passed,
        {
            "samples": rep.total,
            "tv_distance": rep.tv_distance,
            "threshold": 0.004,
            "truncation_count": rep.truncation_count,
            "truncation_rate": rep.truncation_rate,
        },
    )


def c05_star_entropy_identity(seed: int, threads: int) -> CriterionResult:
    worst = 0.0
    for p in np.linspace(0.01, 0.49, 50):
        p = float(p)
        d_in = star_base(p)
        d_out = star(p).pushforward(d_in)
        gap = abs((shannon(d_out) - shannon(d_in)) - 2.0 * p * LOG2)
        worst = max(worst, gap)
    passed = worst <= 1e-12
    return CriterionResult(
        5,
        "star_entropy_identity",
        passed,
        {"grid_points": 50, "worst_gap": worst, "tolerance": 1e-12},
    )


def c06_solver_residual(seed: int, threads: int) -> CriterionResult:
    grid = np.linspace(0.01, 0.69, 100)
    ps = [solve_p(float(h)) for h in grid]
    worst = max(abs(star_base_entropy(p) - float(h)) for p, h in zip(ps, grid))
    increasing = all(b > a for a, b in zip(ps, ps[1:]))
    passed = worst < 1e-10 and increasing
    return CriterionResult(
        6,
        "solver_residual",
        passed,
        {
            "grid_points": 100,
            "worst_residual": worst,
            "tolerance": 1e-10,
            "strictly_increasing": increasing,
        },
    )


def c07_recursion_termination(seed: int, threads: int) -> CriterionResult:
    grid_ok = True
    monotone_ok = True
    for h0 in np.linspace(0.01, 0.69, 35):
        rec = run_recursion(float(h0))
        grid_ok &= rec.terminated
        monotone_ok &= all(b >= a for a, b in zip(rec.p_sequence, rec.p_sequence[1:]))
    trace = run_recursion(0.5)
    reference = (0.5, 0.5966, 0.7214)
    trace_ok = (
        trace.steps == 2
        and trace.terminated
        and all(abs(h - r) < 1e-3 for h, r in zip(trace.H_sequence, reference))
    )
    passed = grid_ok and monotone_ok and trace_ok
    return CriterionResult(
        7,
        "recursion_termination",
        passed,
        {
            "grid_points": 35,
            "all_terminated": grid_ok,
            "p_nondecreasing": monotone_ok,
            "H0_0.5_steps": trace.steps,
            "H0_0.5_trace": list(trace.H_sequence),
        },
    )


def c08_cocycle_identity(seed: int, threads: int) -> CriterionResult:
    rep = check_cocycle(10000, seed)
    return CriterionResult(
        8,
        "cocycle_identity",
        rep.failures == 0,
        {"trials": rep.trials, "failures": rep.failures},
    )


def c09_coset_conjugacy(seed: int, threads: int) -> CriterionResult:
    rt = check_coset_roundtrip(4, 500, seed)
    push = exact_coset_pushforward(2, threads=threads)
    passed = rt.failures == 0 and push.verdict == "pass" and push.max_deviation == 0.0
    return CriterionResult(
        9,
        "coset_conjugacy",
        passed,
        {
            "roundtrip_trials": rt.trials,
            "roundtrip_failures": rt.failures,
            "pushforward_patterns": push.n_patterns,
            "pushforward_expected": push.expected_count,
            "pushforward_max_deviation": push.max_deviation,
        },
    )


def c10_equivariance_suite(seed: int, threads: int) -> CriterionResult:
    from .factormaps import identity_map

    cases = [
        (ow(), 3),
        (timar(3), 5),
        (star(0.25), 3),
        (coinduced_map(identity_map(bit_alphabet(1))), 3),
        (coinduced_map(swap_bits()), 3),
    ]
    detail = {}
    passed = True
    for k, (fmap, r) in enumerate(cases):
        rep = check_equivariance(fmap, r, 1000, seed + k)
        detail[fmap.name] = {"trials": rep.trials, "failures": rep.failures}
        passed &= rep.failures == 0
    return CriterionResult(10, "equivariance_suite", passed, detail)


def c11_thread_determinism(seed: int, threads: int) -> CriterionResult:
    """Byte-compare the thread-sensitive reports across worker counts.

    The full selftest byte-identity across separate invocations is
    checked externally by rerunning the CLI; here the chunk-merged
    reports are recomputed with 1 and 4 workers and compared as
    serialized JSON.
    """
    pairs = []
    for t in (1, 4):
        exact = exact_pushforward(ow(), 2, 1, threads=t).to_json()
        mc = mc_pushforward(
            star(0.25), star_base(0.25), 30, 0, 10**6, seed, threshold=0.004, threads=t
        ).to_json()
        pairs.append(json.dumps([exact, mc], sort_keys=True))
    passed = pairs[0] == pairs[1]
    return CriterionResult(
        11,
        "thread_determinism",
        passed,
        {"compared_reports": ["exact_pushforward[ow]", "mc_pushforward[star]"], "identical": passed},
    )


CRITERIA = (
    c01_ow_exact_pushforward,
    c02_ow_additivity,
    c03_timar_stabilization,
    c04_star_marginal,
    c05_star_entropy_identity,
    c06_solver_residual,
    c07_recursion_termination,
    c08_cocycle_identity,
    c09_coset_conjugacy,
    c10_equivariance_suite,
    c11_thread_determinism,
)


def run_selftest(seed: int = 0, threads: int = 1) -> list[CriterionResult]:
    """Run every acceptance criterion with per-criterion derived seeds."""
    _require_threads(threads)
    results = []
    for k, criterion in enumerate(CRITERIA, start=1):
        results.append(criterion(seed * 100 + k, threads))
    return results
