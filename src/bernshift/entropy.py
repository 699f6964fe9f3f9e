"""Shannon entropy, the star-weight equation solver, and the
entropy-boosting recursion.

All entropies are in nats.  The recursion starts from a base entropy
H0 in (0, log 2), repeatedly solves

    H = -2p log p - (1 - 2p) log(1 - 2p)

for the star weight p and adds the exact gain 2 p log 2 of one star-map
stage, until the running entropy reaches log 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .config import Distribution

LOG2 = math.log(2.0)


class OutOfRange(ValueError):
    """Entropy argument outside the open interval (0, log 2)."""


def shannon(dist: Distribution | Sequence) -> float:
    """-sum w log w in nats, with the convention 0 log 0 = 0."""
    weights = dist.float_weights() if isinstance(dist, Distribution) else [float(w) for w in dist]
    acc = 0.0
    for w in weights:
        if not math.isfinite(w):
            raise ValueError(f"weight {w!r} is not finite")
        if w < 0:
            raise ValueError("negative weight")
        if w > 0:
            acc -= w * math.log(w)
    return acc


def star_base_entropy(p: float) -> float:
    """Entropy of the three-symbol law (p, p, 1-2p) for p in (0, 1/2]."""
    if not 0 < p <= 0.5:
        raise ValueError("p must lie in (0, 1/2]")
    q = 1.0 - 2.0 * p
    acc = -2.0 * p * math.log(p)
    if q > 0:
        acc -= q * math.log(q)
    return acc


def solve_p(H: float) -> float:
    """The unique p in (0, 1/3) with star_base_entropy(p) = H.

    Bisection on the increasing branch: the three-symbol entropy rises
    from 0 to log 3 on (0, 1/3] and stays above log 2 on [1/3, 1/2], so
    for H < log 2 the solution below 1/3 is unique (and is the branch on
    which p -> 0 as H -> 0).  Derivative-free to stay clear of the log
    singularity at p -> 0.
    """
    if not 0.0 < H < LOG2:
        raise OutOfRange(f"H must lie in (0, log 2); got {H!r}")
    lo, hi = 0.0, 1.0 / 3.0  # f(lo+) < 0 and f(hi) = log 3 - H > 0 by the range check
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if star_base_entropy(mid) < H:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def boost_step(H: float) -> tuple[float, float]:
    """One star-map stage: returns (p, H + 2 p log 2)."""
    p = solve_p(H)
    return p, H + 2.0 * p * LOG2


@dataclass(frozen=True)
class EntropyRecursion:
    """The trace of the boosting iteration.

    H_sequence starts at H0 and is strictly increasing; p_sequence holds
    the per-step star weights and is nondecreasing.  terminated means the
    final entropy reached log 2 within the step budget.
    """

    H0: float
    p_sequence: tuple[float, ...]
    H_sequence: tuple[float, ...]
    terminated: bool

    @property
    def steps(self) -> int:
        return len(self.p_sequence)

    def to_json(self) -> dict:
        return {
            "H": list(self.H_sequence),
            "p": list(self.p_sequence),
            "terminated": self.terminated,
            "steps": self.steps,
        }


def run_recursion(H0: float, max_steps: int = 10000) -> EntropyRecursion:
    """Iterate boost_step from H0 until the entropy reaches log 2.

    H0 >= log 2 terminates immediately with zero steps.  If the step
    budget runs out the partial trace is returned with terminated False
    (each step adds at least 2 p1 log 2 > 0, so this only happens for
    absurdly small budgets).
    """
    if not math.isfinite(H0):
        raise OutOfRange(f"H0 must be finite; got {H0!r}")
    if H0 <= 0:
        raise OutOfRange(f"H0 must be positive; got {H0!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative; got {max_steps!r}")
    hs = [H0]
    ps: list[float] = []
    H = H0
    while H < LOG2 and len(ps) < max_steps:
        p, H_next = boost_step(H)
        if ps and p < ps[-1]:
            raise AssertionError("star weights must be nondecreasing")
        if H_next <= H:
            raise AssertionError("entropy must strictly increase")
        ps.append(p)
        hs.append(H_next)
        H = H_next
    return EntropyRecursion(H0, tuple(ps), tuple(hs), terminated=H >= LOG2)
