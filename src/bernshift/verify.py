"""The evidence engine: exact pushforward verification by exhaustive
enumeration, seeded Monte Carlo distribution checks, and property-test
drivers for equivariance, the cocycle identity, and the coset-splitting
round trip.

Exact mode uses integer arithmetic only; a pass there is a statement
about the finite window, not a statistical one.  Randomized checks are
fully reproducible: the seed and parameters determine the report, and
chunked runs merge associatively so thread count never changes a tally.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coinduce import act_slots, agree_slots, cocycles, merge_slots, split_layout, split_slots
from .config import (
    DEFAULT_ENUMERATION_CAP,
    Configuration,
    Distribution,
    EnumerationTooLarge,
    bit_alphabet,
    block_rows,
    index_matrix,
    sample_matrix,
    symbol_dtype,
)
from .factormaps import FactorMap, InsufficientRadius, _horner, _index_dtype
from .freegroup import ball, decode, inv_codes, mul_codes, random_reduced_codes, strip_a_codes
from .freegroup import translated_sites

CHUNK_SIZE = 1 << 16
MC_MIN_SAMPLES = 1000
G_RADIUS = 2  # property checks translate by the words of ball(G_RADIUS)
COCYCLE_MAX_LEN = 6  # the longest word the cocycle check draws


class WindowTooSmall(ValueError):
    """The input ball cannot cover the output window plus the map cost."""


@dataclass(frozen=True)
class PushforwardReport:
    """Outcome of one pushforward verification run."""

    map_name: str
    mode: str  # "exact" | "monte_carlo"
    input_alphabet: str
    output_alphabet: str
    input_sites: tuple[str, ...]
    output_sites: tuple[str, ...]
    total: int
    n_patterns: int
    counts: tuple[int, ...] | None
    max_deviation: float
    truncation_count: int
    verdict: str  # "pass" | "fail" | "withheld"
    expected_count: int | None = None
    valid_samples: int | None = None
    tv_distance: float | None = None
    threshold: float | None = None
    truncation_rate: float | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "map": self.map_name,
            "mode": self.mode,
            "input_alphabet": self.input_alphabet,
            "output_alphabet": self.output_alphabet,
            "input_sites": list(self.input_sites),
            "output_sites": list(self.output_sites),
            "total": self.total,
            "valid_samples": self.valid_samples,
            "n_patterns": self.n_patterns,
            "expected_count": self.expected_count,
            "counts": None if self.counts is None else list(self.counts),
            "max_deviation": self.max_deviation,
            "tv_distance": self.tv_distance,
            "threshold": self.threshold,
            "truncation_count": self.truncation_count,
            "truncation_rate": self.truncation_rate,
            "verdict": self.verdict,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a randomized property check."""

    name: str
    trials: int
    failures: int
    first_counterexample: dict | None
    seed: int

    @property
    def verdict(self) -> str:
        return "pass" if self.failures == 0 else "fail"

    def to_json(self) -> dict:
        return {
            "property": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "seed": self.seed,
            "verdict": self.verdict,
        }


def _run_chunks(worker: Callable, chunks: Sequence, threads: int) -> list:
    """Run the worker over chunks, preserving chunk order in the results
    so merges are deterministic regardless of thread count."""
    if threads <= 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


def _chunks(total: int, size: int = CHUNK_SIZE) -> list[tuple[int, int]]:
    """Rows (or trials) lo..hi-1 of ``total``, ``size`` at a time."""
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _require_batch(fmap: FactorMap) -> None:
    """Refuse a map without batch evaluation (neither a plan compiler nor
    its own ``apply_batch``) before any input matrix exists."""
    kind = type(fmap)
    if getattr(kind, "_compile", FactorMap._compile) is FactorMap._compile and (
            getattr(kind, "apply_batch", FactorMap.apply_batch) is FactorMap.apply_batch):
        raise NotImplementedError(f"{fmap.name} has no batch evaluation")


def _require_threads(threads: int) -> None:
    """Refuse a thread count below one, before any work starts."""
    if threads < 1:
        raise ValueError(f"need at least one thread, got {threads}")


def _require_trials(trials: int) -> None:
    """A run of no trials could not fail; refuse it."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")


def _patterns(out: np.ndarray, out_size: int) -> np.ndarray:
    """Each column of a site-major matrix as one pattern, site 0 least
    significant, in the narrowest dtype that holds out_size ** sites - 1."""
    return _horner(out[::-1], out_size, out.shape[1], _index_dtype(out_size ** out.shape[0]))


def _pattern_counts(out: np.ndarray, out_size: int) -> tuple[np.ndarray, int]:
    """Tally the output-window patterns of a site-major (sites, rows)
    matrix; columns containing undefined entries are excluded and counted
    as truncated."""
    valid = (out >= 0).all(axis=0)
    truncated = int(out.shape[1] - valid.sum())
    return np.bincount(_patterns(out, out_size)[valid], minlength=out_size ** out.shape[0]), truncated


def _tally(apply: Callable, size_out: int, rows: Callable, chunks: Sequence, threads: int):
    """Map the input rows ``rows(*chunk)`` of every chunk by ``apply`` and
    tally the output patterns over ``size_out`` symbols: the counts, and
    the number of truncated rows."""

    def worker(chunk: tuple) -> tuple[np.ndarray, int]:
        return _pattern_counts(apply(rows(*chunk)), size_out)

    results = _run_chunks(worker, chunks, threads)
    return np.asarray(sum(r[0] for r in results), dtype=np.int64), sum(r[1] for r in results)


def _exact_report(names: tuple[str, str, str], input_sites, output_sites, total: int, counts: np.ndarray,
                  truncated: int) -> PushforwardReport:
    """The verdict of an exhaustive count: every output pattern must occur
    exactly total / n_patterns times, and no input may be truncated.
    ``names`` are the map's and its input and output alphabets'."""
    n_patterns = len(counts)
    divisible = total % n_patterns == 0
    expected = total // n_patterns
    max_dev = float(np.abs(counts - (expected if divisible else total / n_patterns)).max())
    return PushforwardReport(
        map_name=names[0],
        mode="exact",
        input_alphabet=names[1],
        output_alphabet=names[2],
        input_sites=tuple(input_sites),
        output_sites=tuple(output_sites),
        total=total,
        n_patterns=n_patterns,
        counts=tuple(int(c) for c in counts) if n_patterns <= 4096 else None,
        max_deviation=max_dev,
        truncation_count=truncated,
        verdict="pass" if (divisible and max_dev == 0.0 and not truncated) else "fail",
        expected_count=expected if divisible else None,
    )


def exact_pushforward(
    fmap: FactorMap,
    r_in: int,
    r_out: int,
    *,
    threads: int = 1,
) -> PushforwardReport:
    """Enumerate every input on ball(r_in) under the uniform product law
    and check the output pattern counts on ball(r_out) are exactly equal.
    """
    _require_threads(threads)
    if fmap.window_cost is None:
        raise ValueError(f"{fmap.name} has unbounded lookahead; use mc_pushforward")
    _require_batch(fmap)
    if r_out + fmap.window_cost > r_in:
        raise WindowTooSmall(
            f"need r_out + {fmap.window_cost} <= r_in; got r_in={r_in}, r_out={r_out}"
        )
    sites_in = ball(r_in)
    sites_out = ball(r_out)
    total = fmap.input_alphabet.size ** len(sites_in)
    n_patterns = fmap.output_alphabet.size ** len(sites_out)
    if total > DEFAULT_ENUMERATION_CAP or n_patterns > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{fmap.input_alphabet.size}^{len(sites_in)} inputs / {fmap.output_alphabet.size}^{len(sites_out)}"
            f" patterns exceed cap {DEFAULT_ENUMERATION_CAP}"
        )

    rows = functools.partial(index_matrix, fmap.input_alphabet.size, len(sites_in))
    apply = functools.partial(fmap.apply_batch, sites=sites_in, out_sites=sites_out)
    counts, truncated = _tally(apply, fmap.output_alphabet.size, rows, _chunks(total), threads)
    # a bounded map defines every output inside its window; any truncated
    # input is a fault of the map, and fails the check
    names = (fmap.name, fmap.input_alphabet.name, fmap.output_alphabet.name)
    return _exact_report(names, map(str, sites_in), map(str, sites_out), total, counts, truncated)


def _target_pattern_probs(target: Distribution, n_out: int) -> np.ndarray:
    """Joint law of the output window under the declared product target;
    pattern index has site 0 least significant."""
    w = np.asarray(target.float_weights())
    probs = np.array([1.0])
    for _ in range(n_out):
        probs = (w[:, None] * probs[None, :]).ravel(order="F")
    return probs


def mc_pushforward(
    fmap: FactorMap,
    input_dist: Distribution,
    r_in: int,
    r_out: int,
    n_samples: int,
    seed: int,
    *,
    threshold: float | None = None,
    threads: int = 1,
) -> PushforwardReport:
    """Seeded i.i.d. sampling of the map's input dependency sites, with
    the empirical output-window law compared to the declared product
    target by total-variation distance.

    Samples whose output window contains an undefined entry (star-map ray
    truncation at the window edge) are excluded and counted.  The default
    threshold is the 4 * sqrt(n_patterns / N) rule; it is echoed in the
    report either way.  Verdicts are withheld below ``MC_MIN_SAMPLES`` valid
    samples, and when the threshold is 1 or more: total variation never
    exceeds 1, so such a test could not fail.  They are also withheld when
    the truncation rate reaches the threshold: the valid samples follow
    the law conditioned on no truncation, and conditioning on an event E
    moves a law by up to P(not E) in total variation, so a correct map
    could fail.  A threshold that is not positive and finite, or a
    negative ``r_in``, is refused before anything is drawn.
    """
    _require_threads(threads)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if r_in < 0:
        raise ValueError("radius must be nonnegative")
    if threshold is not None and not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    if input_dist.alphabet != fmap.input_alphabet:
        raise ValueError(f"{fmap.name} expects {fmap.input_alphabet.name} inputs")
    _require_batch(fmap)
    out_sites = ball(r_out)
    dep_sites = fmap.dependency_sites(out_sites, r_in)
    n_patterns = fmap.output_alphabet.size ** len(out_sites)
    if n_patterns > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{fmap.output_alphabet.size}^{len(out_sites)} output patterns exceed cap {DEFAULT_ENUMERATION_CAP}"
        )
    target = fmap.pushforward(input_dist)
    target_probs = _target_pattern_probs(target, len(out_sites))
    if threshold is None:
        threshold = 4.0 * math.sqrt(n_patterns / n_samples)

    bounds = _chunks(n_samples)
    seeds = np.random.SeedSequence(seed).spawn(len(bounds))

    def rows(lo: int, hi: int, chunk_seed) -> np.ndarray:
        return sample_matrix(input_dist, len(dep_sites), hi - lo, np.random.default_rng(chunk_seed))

    chunks = [(lo, hi, chunk_seed) for (lo, hi), chunk_seed in zip(bounds, seeds)]
    apply = functools.partial(fmap.apply_batch, sites=dep_sites, out_sites=out_sites)
    counts, truncated = _tally(apply, fmap.output_alphabet.size, rows, chunks, threads)
    n_valid = int(counts.sum())
    deviation = np.abs(counts / max(n_valid, 1) - target_probs)
    tv = 0.5 * float(deviation.sum()) if n_valid else 1.0
    truncation_rate = truncated / n_samples
    if n_valid < MC_MIN_SAMPLES or threshold >= 1 or truncation_rate >= threshold:
        verdict = "withheld"
    else:
        verdict = "pass" if tv <= threshold else "fail"
    return PushforwardReport(
        map_name=fmap.name,
        mode="monte_carlo",
        input_alphabet=fmap.input_alphabet.name,
        output_alphabet=fmap.output_alphabet.name,
        input_sites=tuple(str(w) for w in dep_sites),
        output_sites=tuple(str(w) for w in out_sites),
        total=n_samples,
        n_patterns=n_patterns,
        counts=tuple(int(c) for c in counts) if n_patterns <= 4096 else None,
        max_deviation=float(deviation.max()),
        truncation_count=int(truncated),
        verdict=verdict,
        valid_samples=n_valid,
        tv_distance=tv,
        threshold=threshold,
        truncation_rate=truncation_rate,
        seed=seed,
    )


def _translated_by_g(sites, g_pool, picks: np.ndarray, xs: np.ndarray):
    """For each g that a block drew (``picks`` into ``g_pool``): g, its columns, g * sites
    with the permutation onto it, and those columns of ``xs`` moved there by one scatter."""
    for pick in np.unique(picks):
        cols = np.flatnonzero(picks == pick)
        moved_sites, perm = translated_sites(sites, g_pool[pick])
        moved = np.empty((len(sites), len(cols)), dtype=xs.dtype)
        moved[perm] = xs[:, cols]
        yield g_pool[pick], cols, moved_sites, perm, moved


def check_equivariance(fmap, r: int, trials: int, seed: int) -> PropertyReport:
    """Translation equivariance: applying the map commutes with the shift
    at every site where both sides are defined (exact symbol equality).

    Each trial draws g from ball(G_RADIUS), then x on ball(r), a block of
    trials in one draw of a (trials, 1 + |ball(r)|) matrix.  A block of
    trials maps its x at once on ball(r); the trials sharing a g are moved
    by one scatter and mapped at once on g * ball(r), beside their moved
    images.  A run that compares no site could not fail, and is refused.
    """
    _require_trials(trials)
    _require_batch(fmap)
    rng = np.random.default_rng(seed)
    sites = ball(r)
    g_pool = ball(G_RADIUS).words
    alpha = fmap.input_alphabet
    highs = np.r_[len(g_pool), np.full(len(sites), alpha.size)]
    failures = compared = 0
    first = None
    for lo, hi in _chunks(trials, block_rows(8 * len(highs))):
        draws = rng.integers(0, highs, size=(hi - lo, len(highs)))
        picks, xs = draws[:, 0], draws[:, 1:].T.astype(symbol_dtype(alpha.size), order="C")
        images = fmap.apply_batch(xs, sites, sites)
        for g, cols, moved_sites, perm, moved in _translated_by_g(sites, g_pool, picks, xs):
            lhs = fmap.apply_batch(moved, moved_sites, moved_sites)
            rhs = np.empty_like(lhs)
            rhs[perm] = images[:, cols]
            both = (lhs >= 0) & (rhs >= 0)
            compared += int(both.sum())
            bad = both & (lhs != rhs)
            failed = np.flatnonzero(bad.any(axis=0))
            failures += len(failed)
            if len(failed) and (first is None or lo + cols[failed[0]] < first["trial"]):
                col, i = failed[0], int(np.argmax(bad[:, failed[0]]))
                x = Configuration(alpha, sites, xs[:, cols[col]]).to_json()
                first = {"trial": lo + int(cols[col]), "g": str(g), "site": str(moved_sites[i]),
                         "lhs": int(lhs[i, col]), "rhs": int(rhs[i, col]), "x": x}
    if not compared:
        raise InsufficientRadius(f"{fmap.name} defines no site on both sides at radius {r}")
    return PropertyReport(f"equivariance[{fmap.name}]", trials, failures, first, seed)


def check_cocycle(trials: int, seed: int) -> PropertyReport:
    """The cocycle identity c(g1 g2, c) = c(g1, c) + c(g2, g1^-1 c) over
    random pairs and cosets, as exact integer equality of a-exponents.
    Words of up to ``COCYCLE_MAX_LEN`` letters are drawn straight as
    shortlex codes, three per trial, and computed on in blocks."""
    _require_trials(trials)
    rng = np.random.default_rng(seed)
    failures = 0
    first = None
    for lo, hi in _chunks(trials, block_rows(3 * 8 * (COCYCLE_MAX_LEN + 1))):
        g1, g2, word = random_reduced_codes(rng, 3 * (hi - lo), COCYCLE_MAX_LEN).reshape(-1, 3).T
        c = strip_a_codes(word)[0]
        c2 = strip_a_codes(mul_codes(inv_codes(g1), c))[0]
        # a trial's three cocycles side by side, so the first to fail is the first checked
        pairs = zip((mul_codes(g1, g2), c), (g1, c), (g2, c2))
        g, cosets = (np.stack(side, axis=1).ravel() for side in pairs)
        e = cocycles(g, cosets)[1].reshape(-1, 3)
        lhs, rhs = e[:, 0], e[:, 1] + e[:, 2]
        bad = np.flatnonzero(lhs != rhs)
        failures += len(bad)
        if len(bad) and first is None:
            t = int(bad[0])
            g1w, g2w, cw = decode(np.array([g1[t], g2[t], c[t]]))
            first = {"trial": lo + t, "g1": str(g1w), "g2": str(g2w), "coset": str(cw),
                     "lhs": int(lhs[t]), "rhs": int(rhs[t])}
    return PropertyReport("cocycle_identity", trials, failures, first, seed)


def check_coset_roundtrip(r: int, trials: int, seed: int) -> PropertyReport:
    """Round trip and equivariance of the coset-splitting conjugacy on random binary
    configurations, in blocks as in ``check_equivariance`` (each block one draw, x before
    g): one split and merge per block, and one scatter, split and coinduced action per
    drawn g.  A trial whose round trip loses a site is reported as that loss."""
    _require_trials(trials)
    rng = np.random.default_rng(seed)
    sites = ball(r)
    g_pool = ball(G_RADIUS).words
    highs = np.r_[np.full(len(sites), 2), len(g_pool)]
    failures = 0
    first = None
    for lo, hi in _chunks(trials, block_rows(8 * len(highs))):
        draws = rng.integers(0, highs, size=(hi - lo, len(highs)))
        xs, picks = draws[:, :-1].T.astype(symbol_dtype(2), order="C"), draws[:, -1]
        layout, split = split_slots(sites, xs)
        merged_sites, merged = merge_slots(layout, split)
        back = merged_sites.indices_of(sites)
        lost = np.where(back[:, None] >= 0, merged[back], -1) != xs  # -1: a site the merge lost
        bad = {int(col): {"kind": "roundtrip", "site": str(sites[int(np.argmax(lost[:, col]))])}
               for col in np.flatnonzero(lost.any(axis=0))}
        for g, cols, moved_sites, _, moved in _translated_by_g(sites, g_pool, picks, xs):
            lhs = split_slots(moved_sites, moved)
            for col, mismatch in agree_slots(*lhs, *act_slots(g, layout, split[:, cols])).items():
                bad.setdefault(int(cols[col]), {"kind": "equivariance", "g": str(g), **mismatch})
        failures += len(bad)
        if bad and first is None:
            t = min(bad)
            first = {"trial": lo + t, **bad[t], "x": Configuration(bit_alphabet(1), sites, xs[:, t]).to_json()}
    return PropertyReport("coset_conjugacy", trials, failures, first, seed)


def exact_coset_pushforward(r: int = 2, *, threads: int = 1) -> PushforwardReport:
    """Exact-uniformity counting for the coset-splitting map on binary
    inputs over ball(r).

    The slot-to-site table is read off the layout of the real conjugacy
    (not assumed), then every binary input is enumerated and the joint
    pattern over a fixed slot window (representatives of length <= 1,
    positions |j| <= 1) is tallied; the split is measure-preserving iff
    all counts are equal.
    """
    _require_threads(threads)
    sites = ball(r)
    n = len(sites)
    if 2**n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLarge(f"2^{n} inputs exceed cap")
    layout = split_layout(sites, 1)
    # the window's slots: those of the representatives of length <= 1, i.e. codes <= 4, which come first
    slots = int(layout.offsets[np.count_nonzero(layout.reps.codes <= 4)])
    site_idx = layout.order[:slots]
    total = 1 << n
    inputs = functools.partial(index_matrix, 2, n)
    counts, truncated = _tally(lambda values: values[site_idx], 2, inputs, _chunks(total), threads)
    cosets, exponents = layout.slot_cosets[:slots].tolist(), layout.exponent[:slots].tolist()
    output_sites = (f"{layout.reps[c]}.a^{j}" for c, j in zip(cosets, exponents))
    return _exact_report(("coset_split", "U2", "U2"), map(str, sites), output_sites, total, counts, truncated)
