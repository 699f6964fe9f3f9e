"""The benchmark's three closed-loop workloads and their correctness gate.

Each workload builds its map descriptors and laws once (``setup``), then
hands out rounds: a fixed list of calls into the public API of
``freegroup``, ``config``, ``factormaps``, ``coinduce``, ``verify`` and
``pipeline``, with inputs drawn from the round's seed.  Calls go through
module attributes at call time, so a ``Tracer`` installed around a round
sees them.

A call's check returns None when the call is fine, or (kind, message):
``wrong`` is an output that contradicts what the call is known to
compute; ``error`` (the call raised) and ``powerless`` (an MC ``pass``
whose threshold is >= 1, so it could not have failed) are calls that
delivered no usable verdict.  Every non-None kind counts as a failed call.
Each workload's ``BASELINE_FAILURES`` names the calls that fail today and
the kind each fails with; any other failure makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bernshift import coinduce, config, entropy, factormaps, freegroup, pipeline, verify
from bernshift.freegroup import GEN_A, GEN_B


@dataclass
class Call:
    name: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str] | None]


def ball_size(r: int) -> int:
    return 1 if r == 0 else 2 * 3**r - 1


def round_seeds(seed: int, round_index: int, n: int) -> list[int]:
    state = np.random.SeedSequence([seed, round_index]).generate_state(n, dtype=np.uint32)
    return [int(s) for s in state]


def _report_key(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


# --------------------------------------------------------------------------
# pushforward: the batch engines


def _exact_check(report):
    if report.verdict != "pass":
        return "wrong", f"exact verdict {report.verdict}, max deviation {report.max_deviation}"
    return None


def _mc_check(report):
    if report.verdict != "pass":
        kind = "wrong" if report.verdict == "fail" else "powerless"
        return kind, f"mc verdict {report.verdict}, tv {report.tv_distance}"
    if report.threshold >= 1:
        return "powerless", f"pass with threshold {report.threshold:.3f} >= 1"
    return None


class Pushforward:
    """Exact enumeration and seeded Monte Carlo pushforward calls."""

    name = "pushforward"
    unit = "inputs enumerated + samples drawn"
    threaded = True  # the engines take a threads= option
    # CoinducedCellMap has no apply_batch, and 200000 samples give timar:3
    # on a radius-1 output window a default threshold of about 1.62.
    BASELINE_FAILURES = {"exact[coinduced:swap]": "error", "mc[timar:3/5/1]": "powerless"}
    # (map spec, r_in, r_out): every input on ball(r_in), 2^17 here.
    EXACT = (
        ("ow", 2, 1),
        ("timar:1", 2, 1),
        ("timar:2", 2, 0),
        ("coinduced:swap", 2, 1),
    )
    COSET_RADIUS = 2
    # (map spec, law, r_in, r_out, samples, threshold)
    MC = (
        ("star:0.25", "star", 30, 0, 10**6, 0.004),
        ("star:0.25", "star", 30, 1, 131_072, None),
        ("timar:3", "uniform", 5, 1, 200_000, None),
    )

    def setup(self) -> None:
        self.maps = {spec: factormaps.parse_map_spec(spec) for spec, *_ in self.EXACT + self.MC}
        self.laws = {"star": config.star_base(0.25), "uniform": config.uniform(config.bit_alphabet(1))}

    def describe(self) -> list[dict]:
        calls = [
            {"call": "exact_pushforward", "map": spec, "r_in": rin, "r_out": rout,
             "inputs": 2 ** ball_size(rin)}
            for spec, rin, rout in self.EXACT
        ]
        calls.append({"call": "exact_coset_pushforward", "r": self.COSET_RADIUS,
                      "inputs": 2 ** ball_size(self.COSET_RADIUS)})
        calls += [
            {"call": "mc_pushforward", "map": spec, "law": law, "r_in": rin, "r_out": rout,
             "samples": n, "threshold": thr}
            for spec, law, rin, rout, n, thr in self.MC
        ]
        return calls

    def calls(self, seed: int, round_index: int, threads: int = 1, *,
              record: dict | None = None, reference: dict | None = None) -> list[Call]:
        """One round at ``threads``.  Each report's JSON is stored in
        ``record``, or must match the one in ``reference`` (the serial
        round with the same seeds) byte for byte."""
        seeds = round_seeds(seed, round_index, len(self.MC))

        def gated(label, check):
            def full_check(report):
                key = _report_key(report)
                if reference is not None and reference.get(label) != key:
                    return "wrong", f"threads={threads} report differs from threads=1"
                if record is not None:
                    record[label] = key
                return check(report)
            return full_check

        out = []
        for spec, rin, rout in self.EXACT:
            out.append(Call(
                f"exact[{spec}]",
                2 ** ball_size(rin),
                lambda spec=spec, rin=rin, rout=rout: verify.exact_pushforward(
                    self.maps[spec], rin, rout, threads=threads),
                gated(spec, _exact_check),
            ))
        out.append(Call(
            "exact_coset",
            2 ** ball_size(self.COSET_RADIUS),
            lambda: verify.exact_coset_pushforward(self.COSET_RADIUS, threads=threads),
            gated("coset", _exact_check),
        ))
        for (spec, law, rin, rout, n, thr), s in zip(self.MC, seeds):
            label = f"{spec}/{rin}/{rout}"
            out.append(Call(
                f"mc[{label}]",
                n,
                lambda spec=spec, law=law, rin=rin, rout=rout, n=n, thr=thr, s=s: verify.mc_pushforward(
                    self.maps[spec], self.laws[law], rin, rout, n, s, threshold=thr, threads=threads),
                gated(label, _mc_check),
            ))
        return out


# --------------------------------------------------------------------------
# property: the Python-object path


def _property_check(report):
    if report.failures:
        return "wrong", f"{report.failures} of {report.trials} trials failed"
    return None


class Property:
    """Equivariance, cocycle and coset round-trip property trials."""

    name = "property"
    unit = "trials"
    threaded = False
    BASELINE_FAILURES: dict[str, str] = {}
    # (map spec, radius); the c10 suite
    EQUIVARIANCE = (
        ("ow", 3),
        ("timar:3", 5),
        ("star:0.25", 3),
        ("coinduced:identity", 3),
        ("coinduced:swap", 3),
    )
    EQUIVARIANCE_TRIALS = 100
    COCYCLE_TRIALS = 2000
    ROUNDTRIP_RADIUS = 4
    ROUNDTRIP_TRIALS = 50

    def setup(self) -> None:
        self.maps = {spec: factormaps.parse_map_spec(spec) for spec, _ in self.EQUIVARIANCE}

    def describe(self) -> list[dict]:
        calls = [
            {"call": "check_equivariance", "map": spec, "r": r, "trials": self.EQUIVARIANCE_TRIALS}
            for spec, r in self.EQUIVARIANCE
        ]
        calls.append({"call": "check_cocycle", "trials": self.COCYCLE_TRIALS})
        calls.append({"call": "check_coset_roundtrip", "r": self.ROUNDTRIP_RADIUS,
                      "trials": self.ROUNDTRIP_TRIALS})
        return calls

    def calls(self, seed: int, round_index: int) -> list[Call]:
        seeds = round_seeds(seed, round_index, len(self.EQUIVARIANCE) + 2)
        out = [
            Call(
                f"equivariance[{spec}]",
                self.EQUIVARIANCE_TRIALS,
                lambda spec=spec, r=r, s=s: verify.check_equivariance(
                    self.maps[spec], r, self.EQUIVARIANCE_TRIALS, s),
                _property_check,
            )
            for (spec, r), s in zip(self.EQUIVARIANCE, seeds)
        ]
        out.append(Call(
            "cocycle",
            self.COCYCLE_TRIALS,
            lambda: verify.check_cocycle(self.COCYCLE_TRIALS, seeds[-2]),
            _property_check,
        ))
        out.append(Call(
            "coset_roundtrip",
            self.ROUNDTRIP_TRIALS,
            lambda: verify.check_coset_roundtrip(self.ROUNDTRIP_RADIUS, self.ROUNDTRIP_TRIALS, seeds[-1]),
            _property_check,
        ))
        return out


# --------------------------------------------------------------------------
# window: one wide, cold ball


class Window:
    """Table building, sampling, map application, the coset conjugacy and
    a one-stage chain run, all on one fresh large ball per round."""

    name = "window"
    unit = "sites processed"
    threaded = False
    BASELINE_FAILURES: dict[str, str] = {}
    RADIUS = 9
    H0 = 0.6  # one star stage clears log 2 from here
    TIMAR_PLANES = 3

    def setup(self) -> None:
        self.p = entropy.solve_p(self.H0)
        self.coin = config.uniform(config.bit_alphabet(1))
        self.star_law = config.star_base(self.p)
        self.timar = factormaps.timar(self.TIMAR_PLANES)
        self.star = factormaps.star(self.p)
        self.plan = pipeline.plan_boost_chain(self.star_law)
        if self.plan.has_external or len(self.plan.stages) != 1:
            raise RuntimeError(f"expected a one-stage constructive plan from H0={self.H0}")
        self.offsets = self.timar.stages[0].offsets

    def describe(self) -> list[dict]:
        n = ball_size(self.RADIUS)
        return [
            {"call": "ball+neighbor_indices+ray_indices", "r": self.RADIUS, "sites": n},
            {"call": "sample", "law": "U2 uniform", "sites": n},
            {"call": "sample", "law": f"star_base({self.p!r})", "sites": n},
            {"call": "apply", "map": self.timar.name, "sites": n},
            {"call": "apply", "map": self.star.name, "sites": n},
            {"call": "to_coset_config", "sites": n},
            {"call": "from_coset_config", "sites": n},
            {"call": "run_chain", "plan": "plan_boost_chain(star_base(solve_p(0.6)))", "sites": n},
        ]

    def calls(self, seed: int, round_index: int) -> list[Call]:
        r = self.RADIUS
        n = ball_size(r)
        s_coin, s_star = round_seeds(seed, round_index, 2)
        st: dict = {}

        def build_ball():
            sites = freegroup.ball(r)
            for off in self.offsets:
                sites.neighbor_indices(off)
            for letter in (GEN_A, GEN_B):
                sites.ray_indices(letter)
            st["ball"] = sites
            return sites

        def check_ball(sites):
            if len(sites) != n:
                return "wrong", f"|ball({r})| = {len(sites)}, expected {n}"
            return None

        def sample(key, law, s):
            def run():
                st[key] = config.sample(law, st["ball"], s)
                return st[key]
            return run

        def check_total(x):
            if len(x.sites) != n or not x.is_total:
                return "wrong", "sampled configuration is not total on the ball"
            return None

        def apply(key, fmap, src):
            def run():
                st[key] = fmap.apply(st[src])
                return st[key]
            return run

        def check_timar(y):
            want = ball_size(r - self.timar.window_cost)
            if y.defined_count != want:
                return "wrong", f"timar defined {y.defined_count} sites, window cost gives {want}"
            return None

        def check_star(z):
            star_in = self.star.input_alphabet.star_index
            star_out = self.star.output_alphabet.star_index
            xs = st["xs"].values
            for v_in, v_out in zip(xs, z.values):
                if (v_in == star_in) != (v_out == star_out):
                    return "wrong", "star map did not keep exactly the input stars"
            return None

        def split():
            st["split"] = coinduce.to_coset_config(st["x"])
            return st["split"]

        def check_split(y):
            if y.defined_count != n:
                return "wrong", f"split defined {y.defined_count} slots, expected {n}"
            return None

        def merge():
            return coinduce.from_coset_config(st["split"])

        def check_merge(back):
            x = st["x"]
            if back.defined_count != n or config.restrict(back, x.sites) != x:
                return "wrong", "split then merge did not return the input"
            return None

        def chain():
            return pipeline.run_chain(self.plan, st["xs"])

        def check_chain(run):
            if run.stages[0]["defined_before"] != n or run.output != st["star"]:
                return "wrong", "run_chain output differs from the star map applied directly"
            return None

        return [
            Call("ball_tables", n, build_ball, check_ball),
            Call("sample[coin]", n, sample("x", self.coin, s_coin), check_total),
            Call("sample[star]", n, sample("xs", self.star_law, s_star), check_total),
            Call("apply[timar]", n, apply("timar", self.timar, "x"), check_timar),
            Call("apply[star]", n, apply("star", self.star, "xs"), check_star),
            Call("split", n, split, check_split),
            Call("merge", n, merge, check_merge),
            Call("run_chain", n, chain, check_chain),
        ]


WORKLOADS = {w.name: w for w in (Pushforward, Property, Window)}
