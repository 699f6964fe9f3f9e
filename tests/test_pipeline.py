import numpy as np
import pytest

from bernshift import (
    ChainPlan,
    Configuration,
    ExternalStageUnresolved,
    InsufficientRadius,
    LOG2,
    PlanStage,
    ball,
    bit_alphabet,
    check_equivariance,
    coinduce_chain_step,
    coinduced_map,
    identity_map,
    ow,
    plan_boost_chain,
    plane_projection,
    run_chain,
    run_recursion,
    sample,
    shannon,
    solve_p,
    star_base,
    swap_bits,
    timar,
    timar_stage,
    uniform,
    validate_plan,
)

from oracles import ZBlockMap, enumerate_configurations, z_relabel

U2 = bit_alphabet(1)


def _plan_of(specs):
    stages = tuple(
        PlanStage(map=m, params=p, input_weights=None, output_weights=None, window_cost=c)
        for m, p, c in specs
    )
    return ChainPlan(0.0, stages, tuple(0.0 for _ in stages), terminated=True)


# ----------------------------------------------------------------- planning


def test_plan_boost_chain_from_half():
    lam = star_base(solve_p(0.5))
    plan = plan_boost_chain(lam)
    rec = run_recursion(0.5)
    star_stages = [s for s in plan.stages if s.map == "star"]
    external = [s for s in plan.stages if s.is_external]
    assert len(star_stages) == rec.steps == 2
    assert len(external) == 1
    assert plan.terminated
    assert plan.entropy_ledger[-1] >= LOG2
    assert validate_plan(plan) == []
    # each star stage carries mass p/2 on the four pair symbols
    for s, p in zip(star_stages, rec.p_sequence):
        assert np.allclose(s.output_weights[:4], p / 2, atol=1e-12)
        assert abs(s.params["p"] - p) < 1e-12
    # ledger follows the recursion
    assert abs(plan.entropy_ledger[0] - rec.H_sequence[1]) < 1e-12
    assert abs(plan.entropy_ledger[-1] - rec.H_sequence[2]) < 1e-12


def test_plan_ledger_matches_entropy_module():
    plan = plan_boost_chain(star_base(solve_p(0.3)))
    for stage, h in zip(plan.stages, plan.entropy_ledger):
        assert abs(shannon(stage.output_weights) - h) <= 1e-12


def test_plan_empty_above_log2():
    plan = plan_boost_chain(star_base(0.4))  # H(0.4, 0.4, 0.2) > log 2
    assert plan.stages == () and plan.terminated


def test_plan_rejects_non_star_shapes():
    from bernshift import Distribution
    from bernshift.config import star_alphabet

    with pytest.raises(ValueError):
        plan_boost_chain(Distribution(star_alphabet(1), (0.3, 0.2, 0.5)))
    with pytest.raises(ValueError):
        plan_boost_chain(uniform(U2))


def test_plan_json_roundtrip():
    plan = plan_boost_chain(star_base(solve_p(0.5)))
    assert ChainPlan.from_json(plan.to_json()) == plan
    assert plan.total_window_cost is None  # star stages are unbounded


@pytest.mark.parametrize(
    "field, value",
    [("stages", 5), ("stages", [5]), ("stages", [{"map": "star", "input_weights": 3}]), ("entropy_ledger", 2)],
)
def test_plan_json_of_the_wrong_type_is_a_value_error(field, value):
    data = {**plan_boost_chain(star_base(0.25), max_steps=3).to_json(), field: value}
    with pytest.raises(ValueError, match="malformed JSON"):
        ChainPlan.from_json(data)


# ---------------------------------------------------------------- execution


def test_run_single_map_chain_equals_direct_application():
    plan = _plan_of([("ow", {}, 1)])
    x = sample(uniform(U2), ball(3), 51)
    run = run_chain(plan, x)
    assert run.output.values == ow().apply(x).values
    assert run.stages[0]["defined_after"] == len(ball(2))


def test_run_empty_chain_is_identity():
    x = sample(uniform(U2), ball(2), 52)
    run = run_chain(_plan_of([]), x)
    assert run.output == x


def test_chain_matches_monolithic_composition():
    # ow + one expansion stage + projection is exactly the 2-plane map
    rng = np.random.default_rng(53)
    for _ in range(100):
        x = Configuration(U2, ball(3), [int(v) for v in rng.integers(0, 2, len(ball(3)))])
        staged = plane_projection(3, 2).apply(timar_stage(1).apply(ow().apply(x)))
        assert staged.values == timar(2).apply(x).values


def test_run_chain_window_additivity():
    plan = _plan_of([("timar", {"m": 2}, 2), ("project", {"planes_in": 2, "planes_out": 1}, 0)])
    x = sample(uniform(U2), ball(4), 54)
    run = run_chain(plan, x)
    total_cost = sum(s.window_cost for s in plan.stages)
    assert total_cost == plan.total_window_cost == 2
    assert run.output.defined_count == len(ball(4 - total_cost))
    assert run.stages[-1]["defined_after"] == len(ball(2))


def test_run_chain_rejects_external_stages():
    plan = plan_boost_chain(star_base(solve_p(0.5)))
    x = sample(star_base(solve_p(0.5)), ball(3), 55)
    with pytest.raises(ExternalStageUnresolved):
        run_chain(plan, x)


def test_run_chain_insufficient_radius():
    plan = _plan_of([("timar", {"m": 3}, 3)])
    x = sample(uniform(U2), ball(2), 56)
    with pytest.raises(InsufficientRadius):
        run_chain(plan, x)


def test_single_star_plan_is_constructive():
    # close to log 2 the recursion takes one step, so the plan has no
    # external recoding and can run end to end
    plan = plan_boost_chain(star_base(solve_p(0.6)))
    assert len(plan.stages) == 1 and not plan.has_external
    x = sample(star_base(solve_p(0.6)), ball(4), 57)
    run = run_chain(plan, x)
    assert run.output.alphabet.name == "U4*"
    assert run.output.defined_count > 0


# --------------------------------------------------------------- coinduction


def test_coinduced_identity_is_identity_exhaustively_on_ball1():
    cell = z_relabel("id", U2, U2, [0, 1])
    for cfg in enumerate_configurations(U2, ball(1)):
        assert coinduce_chain_step(cell, cfg) == cfg


def test_coinduced_swap_is_pointwise_swap():
    cell = z_relabel("swap", U2, U2, [1, 0])
    # exhaustive on ball(1)
    for cfg in enumerate_configurations(U2, ball(1)):
        out = coinduce_chain_step(cell, cfg)
        assert out.values == tuple(1 - v for v in cfg.values)
    # all single-site impulses and seeded random configurations on ball(2)
    sites = ball(2)
    for i in range(len(sites)):
        vals = [0] * len(sites)
        vals[i] = 1
        cfg = Configuration(U2, sites, vals)
        assert coinduce_chain_step(cell, cfg).values == tuple(1 - v for v in vals)
    rng = np.random.default_rng(58)
    for _ in range(300):
        cfg = Configuration(U2, sites, [int(v) for v in rng.integers(0, 2, len(sites))])
        assert coinduce_chain_step(cell, cfg).values == tuple(1 - v for v in cfg.values)


def test_coinduced_lift_accepts_single_site_blockmaps():
    lifted = coinduced_map(swap_bits())
    x = sample(uniform(U2), ball(2), 59)
    assert lifted.apply(x).values == tuple(1 - v for v in x.values)
    with pytest.raises(ValueError):
        coinduced_map(ow())  # not a per-coset cell rule


def test_coinduced_sliding_block_cell_map():
    # a genuine 2-site rule along the a-direction: v(j) + v(j+1)
    from bernshift.freegroup import GEN_A
    from oracles import gen_power

    cell = ZBlockMap("asum", U2, U2, (0, 1), np.array([[0, 1], [1, 0]]))
    lifted = coinduced_map(cell)
    assert lifted.window_cost == 1
    x = sample(uniform(U2), ball(3), 60)
    y = lifted.apply(x)
    for i, w in enumerate(x.sites):
        out = y.values[i]
        nxt = x.value_at(gen_power(w, GEN_A, 1))
        if out is not None:
            assert out == (x.values[i] + nxt) % 2


def test_coinduced_equivariance():
    for cell in (identity_map(U2), swap_bits()):
        rep = check_equivariance(coinduced_map(cell), 3, 200, 61)
        assert rep.failures == 0
