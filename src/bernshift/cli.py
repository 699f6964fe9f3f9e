"""Command-line front end: map application, verification runs, entropy
tools, coinduction tools, chain planning and execution, and the full
acceptance selftest.

Reports go to standard output as JSON; diagnostics to standard error.
Exit codes: 0 on success or a passing verdict, 1 on a failing verdict or a
closed standard output, 2 on usage errors (which print a machine-readable
error object).  All randomness derives from --seed, and output for a fixed
(command, seed) pair is byte-identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .coinduce import CosetConfiguration, cocycle, coinduced_act, coset_of, from_coset_config, to_coset_config
from .config import Configuration, Distribution, sample, star_base, uniform
from .entropy import LOG2, OutOfRange, run_recursion, shannon, solve_p, star_base_entropy
from .factormaps import parse_map_spec
from .freegroup import Word, ball
from .pipeline import ChainPlan, ExternalStageUnresolved, plan_boost_chain, run_chain, validate_plan
from .selftest import run_selftest
from .verify import (
    check_cocycle,
    check_coset_roundtrip,
    check_equivariance,
    exact_coset_pushforward,
    exact_pushforward,
    mc_pushforward,
)

USAGE_ERROR = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(obj: dict) -> None:
    try:
        print(json.dumps(obj, indent=2, allow_nan=False), flush=True)  # a NaN or infinity raises
    except BrokenPipeError:
        # the reader has gone: devnull takes the rest, so the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _load_config(path: str) -> Configuration:
    return Configuration.from_json(_read_json(path))


def build_parser() -> _Parser:
    parser = _Parser(prog="bernshift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser(
        "map",
        help="apply a factor map (ow, timar:m, star:p, ...) to a configuration",
        description="Apply a named local rule: the Ornstein-Weiss doubling rule (ow), "
        "the iterated bit-plane expansion (timar:m), the star-extended doubling rule "
        "with ray lookahead (star:p), relabelings and plane projections.",
    )
    p_map.add_argument("spec", help="map name, e.g. ow | timar:3 | star:0.25 | swap")
    p_map.add_argument("--input", default=None, help="configuration JSON file, or - for stdin")
    p_map.add_argument(
        "--sample-radius",
        type=int,
        default=None,
        help="sample a random input on this ball instead (star:p draws from star_base(p), other maps uniformly)",
    )
    p_map.add_argument("--seed", type=int, default=0)
    p_map.add_argument("--emit-output", action="store_true", help="include the output configuration in the report")

    p_verify = sub.add_parser("verify", help="pushforward and property verification")
    v_sub = p_verify.add_subparsers(dest="check", required=True)

    v_exact = v_sub.add_parser(
        "exact",
        help="exhaustive pushforward counting on a Cayley-ball window",
        description="Enumerate every input on ball(rin) under the uniform product law and "
        "check the output pattern counts on ball(rout) are exactly equal (integer arithmetic).",
    )
    v_exact.add_argument("--map", required=True)
    v_exact.add_argument("--rin", type=int, required=True)
    v_exact.add_argument("--rout", type=int, required=True)
    v_exact.add_argument("--threads", type=int, default=1)

    v_mc = v_sub.add_parser(
        "mc",
        help="seeded Monte Carlo pushforward check by total-variation distance",
        description="Sample the map's input dependency sites i.i.d. and compare the "
        "empirical output-window law against the declared product target.",
    )
    v_mc.add_argument("--map", required=True)
    v_mc.add_argument("--rin", type=int, required=True)
    v_mc.add_argument("--rout", type=int, required=True)
    v_mc.add_argument("-N", "--samples", type=int, required=True)
    v_mc.add_argument("--seed", type=int, default=0)
    v_mc.add_argument("--threshold", type=float, default=None)
    v_mc.add_argument(
        "--dist",
        default=None,
        help="input law: uniform or star:p (default: star maps use their own p, others uniform)",
    )
    v_mc.add_argument("--threads", type=int, default=1)

    v_eq = v_sub.add_parser(
        "equivariance",
        help="translation-equivariance property trials",
        description="Random shifts against random configurations: the map must commute "
        "with the translation action at every defined site.",
    )
    v_eq.add_argument("--map", required=True)
    v_eq.add_argument("-r", "--radius", type=int, default=3)
    v_eq.add_argument("--trials", type=int, default=1000)
    v_eq.add_argument("--seed", type=int, default=0)

    v_cc = v_sub.add_parser(
        "cocycle",
        help="coset-transfer cocycle identity trials",
        description="The cocycle of the <a>-coset section must satisfy the "
        "composition identity as exact integer arithmetic.",
    )
    v_cc.add_argument("--trials", type=int, default=10000)
    v_cc.add_argument("--seed", type=int, default=0)

    v_j = v_sub.add_parser(
        "jroundtrip",
        help="coset-splitting conjugacy round trip and equivariance",
        description="Splitting a configuration along <a>-cosets and merging back must "
        "be the identity and must intertwine the shift with the coinduced action; "
        "also counts the exact pushforward uniformity on ball(2).",
    )
    v_j.add_argument("-r", "--radius", type=int, default=4)
    v_j.add_argument("--trials", type=int, default=500)
    v_j.add_argument("--seed", type=int, default=0)
    v_j.add_argument("--threads", type=int, default=1)

    p_entropy = sub.add_parser("entropy", help="entropy tools")
    e_sub = p_entropy.add_subparsers(dest="tool", required=True)
    e_sh = e_sub.add_parser("shannon", help="Shannon entropy (nats) of a weight vector")
    e_sh.add_argument("weights", type=float, nargs="+")
    e_sp = e_sub.add_parser(
        "solve-p",
        help="invert the three-symbol star entropy for the weight p",
        description="Solve H = -2p log p - (1-2p) log(1-2p) on the branch p in (0, 1/3).",
    )
    e_sp.add_argument("H", type=float)
    e_rec = e_sub.add_parser(
        "recursion",
        help="run the entropy-boosting recursion until log 2 is reached",
    )
    e_rec.add_argument("H0", type=float)
    e_rec.add_argument("--max-steps", type=int, default=10000)

    p_co = sub.add_parser("coinduce", help="coset sections, cocycles, and the conjugacy")
    c_sub = p_co.add_subparsers(dest="tool", required=True)
    c_cc = c_sub.add_parser("cocycle", help="transfer cocycle a-exponent for (g, coset)")
    c_cc.add_argument("g")
    c_cc.add_argument("coset")
    c_act = c_sub.add_parser("act", help="coinduced action of g on a coset configuration (JSON)")
    c_act.add_argument("g")
    c_act.add_argument("--input", default="-")
    c_j = c_sub.add_parser("J", help="split a configuration along <a>-cosets")
    c_j.add_argument("--input", default="-")
    c_ji = c_sub.add_parser("Jinv", help="merge a coset configuration back to group-indexed form")
    c_ji.add_argument("--input", default="-")

    p_pipe = sub.add_parser("pipeline", help="chain planning and execution")
    pl_sub = p_pipe.add_subparsers(dest="tool", required=True)
    pl_plan = pl_sub.add_parser(
        "plan",
        help="plan the star-map boosting chain from a base entropy",
        description="Emit the star stages whose weights follow the entropy recursion; "
        "the isomorphic recodings between stages are marked external.",
    )
    pl_plan.add_argument("--H0", type=float, required=True)
    pl_plan.add_argument("--max-steps", type=int, default=10000)
    pl_run = pl_sub.add_parser("run", help="execute a constructive chain on a sampled input")
    pl_run.add_argument("--plan", required=True, help="plan JSON file, or - for stdin")
    pl_run.add_argument("--radius", type=int, required=True)
    pl_run.add_argument("--seed", type=int, default=0)
    pl_run.add_argument("--emit-output", action="store_true")

    p_self = sub.add_parser(
        "selftest",
        help="run the full acceptance suite (one pass/fail line per criterion)",
    )
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--threads", type=int, default=1)

    return parser


def _input_dist(fmap, spec: str | None):
    from .factormaps import StarMap

    if spec is None:
        # a star map's p parameter pins its associated input law
        return star_base(fmap.p) if isinstance(fmap, StarMap) else uniform(fmap.input_alphabet)
    if spec == "uniform":
        return uniform(fmap.input_alphabet)
    head, _, rest = spec.partition(":")
    if head == "star":
        return star_base(float(rest))
    raise UsageError(f"unknown input distribution {spec!r}")


def _cmd_map(args) -> int:
    fmap = parse_map_spec(args.spec)
    if args.input is not None:
        x = _load_config(args.input)
    elif args.sample_radius is not None:
        x = sample(_input_dist(fmap, None), ball(args.sample_radius), args.seed)
    else:
        raise UsageError("map needs --input or --sample-radius")
    y = fmap.apply(x)
    # bounded maps lose exactly the window margin, which the defined-region
    # sizes already show; truncation counts ray scans that hit the edge
    truncated = int(np.count_nonzero((x.indices >= 0) & (y.indices < 0))) if fmap.window_cost is None else 0
    report = {
        "map": fmap.describe(),
        "input_defined": x.defined_count,
        "output_defined": y.defined_count,
        "truncation_count": truncated,
    }
    if args.emit_output or args.input is not None:
        report["output"] = y.to_json()
    _emit(report)
    return 0


def _cmd_verify(args) -> int:
    if args.check == "exact":
        rep = exact_pushforward(parse_map_spec(args.map), args.rin, args.rout, threads=args.threads)
    elif args.check == "mc":
        fmap = parse_map_spec(args.map)
        rep = mc_pushforward(
            fmap,
            _input_dist(fmap, args.dist),
            args.rin,
            args.rout,
            args.samples,
            args.seed,
            threshold=args.threshold,
            threads=args.threads,
        )
    elif args.check == "equivariance":
        rep = check_equivariance(parse_map_spec(args.map), args.radius, args.trials, args.seed)
    elif args.check == "cocycle":
        rep = check_cocycle(args.trials, args.seed)
    else:  # jroundtrip
        rt = check_coset_roundtrip(args.radius, args.trials, args.seed)
        push = exact_coset_pushforward(2, threads=args.threads)
        out = {"roundtrip": rt.to_json(), "pushforward": push.to_json()}
        _emit(out)
        return 0 if rt.verdict == "pass" and push.verdict == "pass" else 1
    _emit(rep.to_json())
    return 0 if rep.verdict == "pass" else 1


def _cmd_entropy(args) -> int:
    if args.tool == "shannon":
        _emit({"weights": args.weights, "H": shannon(args.weights)})
        return 0
    if args.tool == "solve-p":
        p = solve_p(args.H)
        _emit({"H": args.H, "p": p, "residual": abs(star_base_entropy(p) - args.H)})
        return 0
    rec = run_recursion(args.H0, max_steps=args.max_steps)
    _emit(rec.to_json())
    return 0 if rec.terminated else 1


def _cmd_coinduce(args) -> int:
    if args.tool == "cocycle":
        g = Word.parse(args.g)
        c = coset_of(Word.parse(args.coset))
        _emit({"g": str(g), "coset": str(c), "a_power": cocycle(g, c)})
        return 0
    if args.tool == "act":
        y = CosetConfiguration.from_json(_read_json(args.input))
        out = coinduced_act(Word.parse(args.g), y)
        _emit(out.to_json())
        return 0
    if args.tool == "J":
        x = _load_config(args.input)
        _emit(to_coset_config(x).to_json())
        return 0
    y = CosetConfiguration.from_json(_read_json(args.input))
    _emit(from_coset_config(y).to_json())
    return 0


def _cmd_pipeline(args) -> int:
    if args.tool == "plan":
        if args.H0 <= 0:
            raise UsageError("--H0 must be positive")
        if not math.isfinite(args.H0):
            raise OutOfRange(f"H0 must be finite; got {args.H0!r}")
        if args.max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative; got {args.max_steps!r}")
        if args.H0 >= LOG2:
            plan = ChainPlan(args.H0, (), (), terminated=True)
        else:
            plan = plan_boost_chain(star_base(solve_p(args.H0)), max_steps=args.max_steps)
        issues = validate_plan(plan)
        out = plan.to_json()
        out["ledger_issues"] = issues
        _emit(out)
        return 0 if not issues else 1
    plan = ChainPlan.from_json(_read_json(args.plan))
    first = next((s for s in plan.stages if not s.is_external), None)
    if first is None or first.input_weights is None:
        raise UsageError("plan has no constructive stage with a declared input law")
    fmap = parse_map_spec(first.spec_string())
    dist = Distribution(fmap.input_alphabet, tuple(first.input_weights))
    x = sample(dist, ball(args.radius), args.seed)
    run = run_chain(plan, x)
    out = {"stages": list(run.stages)}
    if args.emit_output:
        out["output"] = run.output.to_json()
    _emit(out)
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, threads=args.threads)
    for res in results:
        print(res.line())
    summary = {
        "seed": args.seed,
        "criteria": [
            {"number": r.number, "name": r.name, "pass": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }
    _emit(summary)
    return 0 if summary["all_pass"] else 1


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "map":
            return _cmd_map(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "entropy":
            return _cmd_entropy(args)
        if args.command == "coinduce":
            return _cmd_coinduce(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        return _cmd_selftest(args)
    except UsageError as exc:
        _emit({"error": {"code": "usage", "message": str(exc)}})
        return USAGE_ERROR
    except (ValueError, NotImplementedError, ExternalStageUnresolved, OSError, KeyError) as exc:
        _emit({"error": {"code": type(exc).__name__, "message": str(exc)}})
        return USAGE_ERROR


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
