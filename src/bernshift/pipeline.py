"""Composition driver: plans the star-map boosting chain from the entropy
recursion, runs constructive chains with window bookkeeping, and lifts
per-coset cell maps to the whole group as block codes along the cosets.

A plan is honest about which of its links are executable: recoding stages
that invoke a non-constructive isomorphism are first-class `external`
stages.  Planning tracks their entropy ledger exactly; running a chain
requires every stage to be constructive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coinduce import a_exponents
from .config import Configuration, Distribution, json_boundary, star_base
from .entropy import LOG2, run_recursion, shannon
from .factormaps import BlockMap, FactorMap, InsufficientRadius, parse_map_spec, star


class ExternalStageUnresolved(RuntimeError):
    """A chain with non-constructive stages cannot be executed."""


@dataclass(frozen=True)
class PlanStage:
    """One link of a chain: a map spec plus its declared laws.

    ``map`` is a CLI map name ("star", "ow", "timar", ...) or "external"
    for a non-constructive recoding.  Weights are the declared input and
    output single-site laws; window_cost is None for unbounded lookahead
    and for external stages.
    """

    map: str
    params: dict
    input_weights: tuple[float, ...] | None
    output_weights: tuple[float, ...] | None
    window_cost: int | None

    @property
    def is_external(self) -> bool:
        return self.map == "external"

    def spec_string(self) -> str:
        if self.map == "star":
            return f"star:{self.params['p']!r}"
        if self.map == "timar":
            return f"timar:{self.params['m']}"
        if self.map == "project":
            return f"project:{self.params['planes_in']}:{self.params['planes_out']}"
        return self.map

    def to_json(self) -> dict:
        out: dict = {"map": self.map}
        out.update(self.params)
        out["input_weights"] = None if self.input_weights is None else list(self.input_weights)
        out["output_weights"] = None if self.output_weights is None else list(self.output_weights)
        out["window_cost"] = self.window_cost
        return out

    @classmethod
    @json_boundary
    def from_json(cls, data: dict) -> "PlanStage":
        if not isinstance(data["map"], str):
            raise ValueError(f"stage map must be a map name, got {data['map']!r}")
        params = {
            k: v
            for k, v in data.items()
            if k not in ("map", "input_weights", "output_weights", "window_cost")
        }
        def _tup(v):
            return None if v is None else tuple(v)
        return cls(
            map=data["map"],
            params=params,
            input_weights=_tup(data.get("input_weights")),
            output_weights=_tup(data.get("output_weights")),
            window_cost=data.get("window_cost"),
        )


@dataclass(frozen=True)
class ChainPlan:
    """An ordered chain of stages with an exact entropy ledger.

    ``entropy_ledger[i]`` is the declared base entropy after stage i;
    external recodings leave it unchanged.
    """

    H0: float
    stages: tuple[PlanStage, ...]
    entropy_ledger: tuple[float, ...]
    terminated: bool

    @property
    def has_external(self) -> bool:
        return any(s.is_external for s in self.stages)

    @property
    def total_window_cost(self) -> int | None:
        """Sum of bounded stage costs; None if any stage is unbounded."""
        total = 0
        for s in self.stages:
            if s.is_external:
                continue
            if s.window_cost is None:
                return None
            total += s.window_cost
        return total

    def to_json(self) -> dict:
        return {
            "H0": self.H0,
            "stages": [s.to_json() for s in self.stages],
            "entropy_ledger": list(self.entropy_ledger),
            "total_window_cost": self.total_window_cost,
            "terminated": self.terminated,
        }

    @classmethod
    @json_boundary
    def from_json(cls, data: dict) -> "ChainPlan":
        return cls(
            H0=data["H0"],
            stages=tuple(PlanStage.from_json(s) for s in data["stages"]),
            entropy_ledger=tuple(data["entropy_ledger"]),
            terminated=data["terminated"],
        )


def plan_boost_chain(lambda0: Distribution, max_steps: int = 10000) -> ChainPlan:
    """Star-map stages whose weights follow the entropy recursion.

    The input law must have the three-symbol star shape (p, p, 1-2p).
    Between consecutive star stages the five-symbol output must be recoded
    back to the next three-symbol star law; that recoding is an
    entropy-preserving isomorphism with no local rule here, so it is
    emitted as an `external` stage.  The star-stage count equals the
    recursion's step count, and the final declared entropy is >= log 2.
    """
    if lambda0.alphabet.tag != "star_extended" or lambda0.alphabet.planes != 1:
        raise ValueError("boost chains start from the three-symbol star alphabet")
    w = lambda0.float_weights()
    if abs(w[0] - w[1]) > 1e-12:
        raise ValueError(f"star shape requires equal bit weights; got {w[0]!r}, {w[1]!r}")
    H0 = shannon(lambda0)
    if H0 >= LOG2:
        return ChainPlan(H0, (), (), terminated=True)
    rec = run_recursion(H0, max_steps=max_steps)
    stages: list[PlanStage] = []
    ledger: list[float] = []
    current = lambda0
    for i, p in enumerate(rec.p_sequence):
        if i > 0:
            recoded = star_base(p)
            stages.append(
                PlanStage(
                    map="external",
                    params={"note": "isomorphic recoding of the five-symbol law back to star shape"},
                    input_weights=current.float_weights(),
                    output_weights=recoded.float_weights(),
                    window_cost=None,
                )
            )
            ledger.append(rec.H_sequence[i])
            current = recoded
        out_dist = star(p).pushforward(current)
        stages.append(
            PlanStage(
                map="star",
                params={"p": p},
                input_weights=current.float_weights(),
                output_weights=out_dist.float_weights(),
                window_cost=None,
            )
        )
        ledger.append(rec.H_sequence[i + 1])
        current = out_dist
    return ChainPlan(H0, tuple(stages), tuple(ledger), terminated=rec.terminated)


LEDGER_TOLERANCE = 1e-12


def validate_plan(plan: ChainPlan) -> list[str]:
    """Ledger consistency: the declared output law of every stage must
    carry exactly the ledgered entropy."""
    issues = []
    for i, stage in enumerate(plan.stages):
        if stage.output_weights is None:
            continue
        h = shannon(stage.output_weights)
        if abs(h - plan.entropy_ledger[i]) > LEDGER_TOLERANCE:
            issues.append(
                f"stage {i} ({stage.map}): declared output entropy {h!r} "
                f"!= ledger {plan.entropy_ledger[i]!r}"
            )
    return issues


@dataclass(frozen=True)
class ChainRun:
    """Execution record: the final configuration plus per-stage
    defined-region sizes."""

    output: Configuration
    stages: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"stages": [dict(s) for s in self.stages], "output": self.output.to_json()}


def run_chain(plan: ChainPlan, x: Configuration) -> ChainRun:
    """Apply the chain's stages left to right with window bookkeeping.

    Raises if the plan contains external stages or if some stage leaves
    nothing defined (input window too small for the total cost).
    """
    externals = [i for i, s in enumerate(plan.stages) if s.is_external]
    if externals:
        raise ExternalStageUnresolved(
            f"stage(s) {externals} are external; supply a constructive recoding"
        )
    reports = []
    cur = x
    for i, stage in enumerate(plan.stages):
        fmap = parse_map_spec(stage.spec_string())
        before = cur.defined_count
        cur = fmap.apply(cur)
        after = cur.defined_count
        reports.append(
            {
                "stage": i,
                "map": fmap.name,
                "window_cost": "unbounded_lookahead" if fmap.window_cost is None else fmap.window_cost,
                "defined_before": before,
                "defined_after": after,
            }
        )
        if after == 0:
            raise InsufficientRadius(
                f"stage {i} ({fmap.name}) left no defined sites; start from a larger ball"
            )
    return ChainRun(cur, tuple(reports))


class CoinducedCellMap(BlockMap):
    """A per-coset cell map lifted to group-indexed configurations.

    The site g = c * a^j gets the cell rule on the positions j + o of its
    coset, which are the sites g * a^o: the lift is the block code with
    the rule's offsets a^o and table.  It commutes with the translation
    action, and equals split-apply-merge through the coset conjugacy
    restricted to the original sites.
    """

    def __init__(self, cell_map: BlockMap):
        a_exponents(cell_map)  # a cell rule reads its own coset only
        super().__init__(
            f"coinduced:{cell_map.name}",
            cell_map.input_alphabet,
            cell_map.output_alphabet,
            cell_map.offsets,
            cell_map.table,
        )
        self.cell_map = cell_map

    apply = FactorMap.apply  # bound here so a tracer can wrap it per class


def coinduced_map(fmap: BlockMap) -> CoinducedCellMap:
    """Lift a per-coset cell rule, a block code along <a> (a BlockMap
    whose offsets are a-powers), to the group."""
    if not isinstance(fmap, BlockMap):
        raise ValueError("coinduced lifts need a per-coset cell rule, a block code along <a>")
    return CoinducedCellMap(fmap)


def coinduce_chain_step(cell_map, x: Configuration) -> Configuration:
    """Run one coinduced chain step on a group-indexed configuration."""
    return coinduced_map(cell_map).apply(x)
