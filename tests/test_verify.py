import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from bernshift import (
    CoinducedCellMap,
    ComposedMap,
    Configuration,
    SiteSet,
    EnumerationTooLarge,
    FactorMap,
    IDENTITY,
    InsufficientRadius,
    NotInSubgroup,
    WindowTooSmall,
    Word,
    ball,
    bit_alphabet,
    check_cocycle,
    check_coset_roundtrip,
    check_equivariance,
    cocycle,
    coinduce,
    coset_of,
    exact_coset_pushforward,
    exact_pushforward,
    config,
    identity_map,
    mc_pushforward,
    ow,
    parse_map_spec,
    star,
    star_base,
    swap_bits,
    timar,
    uniform,
    verify,
)
from bernshift.freegroup import GEN_A

from oracles import (
    ZBlockMap,
    check_cocycle_direct,
    check_coset_roundtrip_direct,
    check_equivariance_direct,
    config_mismatch,
    dependency_direct,
    enumerate_configurations,
    gen_power,
    inv,
    mul,
    ow_direct,
    random_word,
    random_word_direct,
)

U2 = bit_alphabet(1)


# ------------------------------------------------------------- exact mode


def test_ow_exact_small_window_against_brute_force():
    rep = exact_pushforward(ow(), 1, 0)
    assert rep.verdict == "pass"
    assert rep.total == 32 and rep.n_patterns == 4 and rep.expected_count == 8
    assert rep.counts == (8, 8, 8, 8)
    # dict-based oracle straight off the defining formula
    tally = {}
    for cfg in enumerate_configurations(U2, ball(1)):
        v = ow_direct(cfg, IDENTITY)
        tally[v] = tally.get(v, 0) + 1
    assert tally == {0: 8, 1: 8, 2: 8, 3: 8}


def test_identity_relabel_trivially_uniform():
    rep = exact_pushforward(identity_map(U2), 1, 1)
    assert rep.verdict == "pass" and rep.max_deviation == 0.0


def test_enumeration_caps_give_the_counts_in_power_form():
    # the counts themselves run to hundreds of digits
    with pytest.raises(EnumerationTooLarge, match=r"^2\^53 inputs / 4\^17 patterns exceed cap 16777216$"):
        exact_pushforward(ow(), 3, 2)
    with pytest.raises(EnumerationTooLarge, match=r"^5\^485 output patterns exceed cap 16777216$"):
        mc_pushforward(star(0.25), star_base(0.25), 3, 5, 1000, 1)


def test_exact_window_too_small():
    with pytest.raises(WindowTooSmall):
        exact_pushforward(ow(), 1, 1)


def test_exact_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        exact_pushforward(ow(), 3, 0)


def test_exact_rejects_unbounded_maps():
    with pytest.raises(ValueError):
        exact_pushforward(star(0.25), 2, 0)


class _NoBatchMap(FactorMap):
    """A bounded map with no batch evaluation."""

    name = "no_batch"
    input_alphabet = output_alphabet = U2
    window_cost = 0


def test_engines_refuse_maps_without_batch_evaluation_before_building_inputs(monkeypatch):
    built = []
    monkeypatch.setattr(verify, "index_matrix", lambda *args: built.append(args))
    monkeypatch.setattr(verify, "sample_matrix", lambda *args: built.append(args))
    lifted = _NoBatchMap()
    with pytest.raises(NotImplementedError, match="no batch evaluation"):
        exact_pushforward(lifted, 2, 1)
    with pytest.raises(NotImplementedError, match="no batch evaluation"):
        mc_pushforward(lifted, uniform(U2), 2, 1, 1000, 0)
    assert built == []


def test_exact_thread_count_does_not_change_the_report():
    r1 = exact_pushforward(ow(), 2, 1, threads=1)
    r4 = exact_pushforward(ow(), 2, 1, threads=4)
    assert r1.to_json() == r4.to_json()
    assert r1.verdict == "pass" and r1.expected_count == 128


def test_exact_report_json_field_order():
    data = exact_pushforward(ow(), 1, 0).to_json()
    assert list(data)[:6] == ["map", "mode", "input_alphabet", "output_alphabet", "input_sites", "output_sites"]


class _LeakyDoubling(type(ow())):
    """The doubling rule with a fault: it forgets its output at the centre
    whenever the centre holds a 1, although every input it reads is there."""

    def apply_batch(self, values, sites, out_sites):
        # batches are site-major; the fault is written on (rows, sites) views
        values, out = values.T, super().apply_batch(values, sites, out_sites).T
        out[values[:, sites.position(IDENTITY)] == 1, out_sites.position(IDENTITY)] = -1
        return out.T


def test_exact_fails_a_bounded_map_that_leaves_outputs_undefined():
    base = ow()
    leaky = _LeakyDoubling("leaky_ow", base.input_alphabet, base.output_alphabet, base.offsets, base.table)
    rep = exact_pushforward(leaky, 2, 1)
    assert rep.verdict == "fail"
    assert rep.truncation_count == 2**16
    assert sum(rep.counts) == 2**17 - rep.truncation_count
    assert exact_pushforward(leaky, 2, 1, threads=2).to_json() == rep.to_json()


# -------------------------------------------------------------- monte carlo


def test_mc_smoke_run_withholds_verdict():
    rep = mc_pushforward(ow(), uniform(U2), 2, 0, 10, 5)
    assert rep.verdict == "withheld"
    assert rep.total == 10 and rep.valid_samples == 10
    data = rep.to_json()
    assert data["threshold"] is not None and data["tv_distance"] is not None


def test_mc_agrees_with_exact_for_the_doubling_map():
    exact = exact_pushforward(ow(), 2, 1)
    mc = mc_pushforward(ow(), uniform(U2), 2, 1, 50_000, 6)
    assert exact.verdict == mc.verdict == "pass"
    assert mc.truncation_count == 0


def test_mc_star_single_site_law():
    rep = mc_pushforward(star(0.25), star_base(0.25), 12, 0, 100_000, 7, threshold=0.01)
    assert rep.verdict == "pass"
    assert rep.truncation_rate < 1e-3
    target = (0.125, 0.125, 0.125, 0.125, 0.5)
    freq = np.asarray(rep.counts) / rep.valid_samples
    assert np.abs(freq - target).max() < 0.01


def test_mc_seeded_reproducibility_and_thread_independence():
    kw = dict(threshold=0.02)
    r1 = mc_pushforward(star(0.25), star_base(0.25), 10, 0, 20_000, 8, **kw)
    r2 = mc_pushforward(star(0.25), star_base(0.25), 10, 0, 20_000, 8, **kw)
    r4 = mc_pushforward(star(0.25), star_base(0.25), 10, 0, 20_000, 8, threads=4, **kw)
    assert r1.to_json() == r2.to_json() == r4.to_json()
    other = mc_pushforward(star(0.25), star_base(0.25), 10, 0, 20_000, 9, **kw)
    assert other.counts != r1.counts


def test_mc_withholds_when_the_threshold_cannot_be_exceeded():
    # 8^5 output patterns from 20000 samples: 4 * sqrt(32768 / 20000) = 5.12,
    # and total variation never exceeds 1
    rep = mc_pushforward(timar(3), uniform(U2), 3, 1, 20_000, 11)
    assert rep.threshold == pytest.approx(5.12)
    assert rep.valid_samples == 20_000
    assert rep.verdict == "withheld"
    explicit = mc_pushforward(timar(3), uniform(U2), 3, 1, 20_000, 11, threshold=1.0)
    assert explicit.verdict == "withheld"
    assert mc_pushforward(timar(3), uniform(U2), 3, 1, 20_000, 11, threshold=0.99).verdict == "pass"


@pytest.mark.parametrize("m, sizes", [(1, (3, 11)), (2, (7, 23)), (3, (15, 47)), (4, (31, 95))])
def test_mc_samples_the_stage_fold_of_a_composition(m, sizes):
    # the input is the cone the stages read, walked back through each stage's offsets
    for r_out, size in zip((0, 1), sizes):
        want = list(ball(r_out))
        for stage in reversed(timar(m).stages):
            want = dependency_direct(want, stage.offsets)
        rep = mc_pushforward(timar(m), uniform(U2), m, r_out, 100, 0)
        assert rep.input_sites == tuple(str(w) for w in want) and len(want) == size


@pytest.mark.parametrize("r_in", [0, 1, 2, 3])
def test_mc_withholds_when_truncation_reaches_the_threshold(r_in):
    # the valid samples follow the law given that both rays reach a bit; for
    # any event E, TV(P(.|E), P) <= P(not E), so this much truncation moves a
    # correct map's law past the threshold
    rep = mc_pushforward(star(0.25), star_base(0.25), r_in, 0, 20_000, 3)
    assert rep.truncation_rate >= rep.threshold
    assert rep.verdict == "withheld"
    # exactly: an input * always gives *, and an input bit is kept when both
    # rays of r_in sites meet a bit, so * is overweighted by 1/2 / P(kept) - 1/2
    half = Fraction(1, 2)
    kept = half + half * (1 - half**r_in) ** 2
    assert half / kept - half > rep.threshold
    if r_in <= 2:  # at r_in 3 the exact TV (0.066) is within 2 sd of the threshold (0.063)
        assert rep.tv_distance > rep.threshold


def test_mc_gives_a_verdict_once_truncation_is_below_the_threshold():
    rep = mc_pushforward(star(0.25), star_base(0.25), 5, 0, 20_000, 3)
    # an input bit is truncated when its a-ray or its b-ray of 5 sites holds
    # only stars: the population rate is 0.0308 against a threshold of 0.0632
    half = Fraction(1, 2)
    assert half * (1 - (1 - half**5) ** 2) < rep.threshold
    assert 0 < rep.truncation_rate < rep.threshold
    assert rep.verdict == "pass"


@pytest.mark.parametrize("threads", [0, -1])
def test_engines_refuse_fewer_than_one_thread(threads):
    from bernshift.selftest import run_selftest

    with pytest.raises(ValueError, match="at least one thread"):
        exact_pushforward(ow(), 2, 1, threads=threads)
    with pytest.raises(ValueError, match="at least one thread"):
        mc_pushforward(ow(), uniform(U2), 2, 0, 1000, 0, threads=threads)
    with pytest.raises(ValueError, match="at least one thread"):
        exact_coset_pushforward(2, threads=threads)
    with pytest.raises(ValueError, match="at least one thread"):
        run_selftest(0, threads)


def test_mc_fails_when_the_declared_target_is_wrong():
    # harness self-test: a map that lies about its output law must be
    # caught by the total-variation comparison
    from bernshift import Distribution

    class _LyingMap(type(identity_map(U2))):
        def pushforward(self, dist):
            return Distribution(U2, (0.9, 0.1))

    liar = _LyingMap("liar", U2, U2, identity_map(U2).offsets, identity_map(U2).table)
    rep = mc_pushforward(liar, uniform(U2), 2, 0, 20_000, 10, threshold=0.01)
    assert rep.verdict == "fail"
    assert rep.tv_distance > 0.3


# -------------------------------------------------------------- properties


def test_equivariance_passes_for_shipped_maps():
    assert check_equivariance(ow(), 3, 200, 11).failures == 0
    assert check_equivariance(timar(2), 4, 100, 12).failures == 0
    assert check_equivariance(star(0.25), 3, 200, 13).failures == 0


class _BrokenMap:
    """Harness self-test fixture: reads the site's word length, which no
    translation-equivariant rule may do."""

    name = "broken"
    input_alphabet = U2
    output_alphabet = U2
    window_cost = 0

    def apply(self, x):
        values = [
            None if v is None else (v if len(w) % 2 == 0 else 1 - v)
            for w, v in zip(x.sites, x.values)
        ]
        return Configuration(U2, x.sites, values)

    def apply_batch(self, values, sites, out_sites):
        # batches are site-major; the rule is written on (rows, sites) views
        values = values.T
        odd = np.array([len(w) % 2 == 1 for w in out_sites], dtype=bool)
        src = sites.indices_of(out_sites)
        v = np.where(src >= 0, values[:, np.maximum(src, 0)], -1)
        return np.where(odd & (v >= 0), 1 - v, v).T


def test_equivariance_catches_corrupted_rule():
    rep = check_equivariance(_BrokenMap(), 2, 100, 14)
    assert rep.failures > 0
    assert rep.verdict == "fail"
    ce = rep.first_counterexample
    assert ce is not None
    assert {"trial", "g", "site", "lhs", "rhs", "x"} <= set(ce)


def test_a_composition_refuses_a_stage_whose_own_apply_batch_it_would_skip():
    # a composition runs its stages by their plans, never by their apply_batch
    base = ow()
    leaky = _LeakyDoubling("leaky_ow", base.input_alphabet, base.output_alphabet, base.offsets, base.table)
    for stage in (leaky, _BrokenMap()):
        with pytest.raises(NotImplementedError, match="has an apply_batch but no plan"):
            ComposedMap([swap_bits(), stage])
    # a subclass that overrides neither, like a coinduced lift, still composes
    lift = CoinducedCellMap(swap_bits())
    sites = ball(2)
    values = np.random.default_rng(3).integers(0, 2, (len(sites), 5))
    want = lift.apply_batch(lift.apply_batch(values, sites, sites), sites, sites)
    np.testing.assert_array_equal(ComposedMap([lift, lift]).apply_batch(values, sites, sites), want)


def test_config_mismatch_looks_each_site_up_in_the_other_set():
    lhs = Configuration(U2, ball(1), [0, 1, None, 1, 0])  # e a A b B
    rhs_sites = SiteSet(w for w in ball(2) if str(w) != "a")  # e A b B aa ...
    rhs = Configuration(U2, rhs_sites, [1 if str(w) == "B" else 0 for w in rhs_sites])
    assert config_mismatch(lhs, rhs) == {"site": "b", "lhs": 1, "rhs": 0}
    assert config_mismatch(lhs, lhs) is None


def test_cocycle_check():
    rep = check_cocycle(1000, 15)
    assert rep.failures == 0 and rep.verdict == "pass"


def test_cocycle_power_reduction():
    # for g1 = a^k and the home coset, the identity reduces to
    # k + cocycle(g2, a^-k H) with a^-k H = H
    rng = np.random.default_rng(16)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        g1 = gen_power(IDENTITY, GEN_A, k)
        g2 = random_word(rng, 5)
        lhs = cocycle(mul(g1, g2), IDENTITY)
        rhs = k + cocycle(g2, coset_of(mul(inv(g1), IDENTITY)))
        assert lhs == rhs


def test_coset_roundtrip_check():
    rep = check_coset_roundtrip(3, 100, 17)
    assert rep.failures == 0


def test_coset_pushforward_exact_uniformity():
    rep = exact_coset_pushforward(2)
    assert rep.verdict == "pass"
    assert rep.max_deviation == 0.0
    assert rep.n_patterns == 512 and rep.expected_count == 256
    assert sum(rep.counts) == 1 << 17
    r4 = exact_coset_pushforward(2, threads=4)
    assert r4.to_json() == rep.to_json()


def test_property_report_json():
    data = check_cocycle(50, 18).to_json()
    assert list(data) == ["property", "trials", "failures", "first_counterexample", "seed", "verdict"]
    json.dumps(data)  # JSON-safe


def test_every_bit_plane_is_individually_uniform():
    # exhaustive counting on the largest enumerable input ball
    assert exact_pushforward(timar(1), 2, 1).verdict == "pass"
    assert exact_pushforward(timar(2), 2, 0).verdict == "pass"


def test_property_checks_are_seed_reproducible():
    assert check_cocycle(200, 19).to_json() == check_cocycle(200, 19).to_json()
    r1 = check_equivariance(ow(), 2, 50, 20).to_json()
    r2 = check_equivariance(ow(), 2, 50, 20).to_json()
    assert r1 == r2
    j1 = check_coset_roundtrip(2, 30, 21).to_json()
    j2 = check_coset_roundtrip(2, 30, 21).to_json()
    assert j1 == j2


# -------------------------------------- batched checks vs trial-by-trial


BENCH_MAPS = (("ow", 3), ("timar:3", 5), ("star:0.25", 3), ("coinduced:identity", 3), ("coinduced:swap", 3))


@pytest.mark.parametrize("spec, r", BENCH_MAPS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_equivariance_matches_the_trial_by_trial_oracle(spec, r, seed):
    fmap = parse_map_spec(spec)
    rep = check_equivariance(fmap, r, 60, seed)
    assert rep.to_json() == check_equivariance_direct(fmap, r, 60, seed).to_json()
    assert rep.verdict == "pass"


def _drawn_g(seed, r, trials):
    """The g of every trial, replaying the check's draws."""
    rng = np.random.default_rng(seed)
    pool, n = ball(2).words, len(ball(r))
    drawn = []
    for _ in range(trials):
        drawn.append(pool[int(rng.integers(len(pool)))])
        rng.integers(0, 2, n)
    return drawn


@pytest.mark.parametrize("seed", [3, 14, 77])
def test_batched_equivariance_fails_like_the_oracle_across_g_groups(seed):
    # translating by g flips the parity of every word length iff |g| is
    # odd, so the broken map fails exactly the trials with an odd g
    rep = check_equivariance(_BrokenMap(), 2, 100, seed)
    assert rep.to_json() == check_equivariance_direct(_BrokenMap(), 2, 100, seed).to_json()
    odd = [str(g) for g in _drawn_g(seed, 2, 100) if len(g) % 2]
    assert rep.failures == len(odd) and len(set(odd)) >= 2
    assert rep.first_counterexample["g"] == odd[0]


class _CountingBrokenMap(_BrokenMap):
    def __init__(self):
        self.calls = 0

    def apply_batch(self, values, sites, out_sites):
        self.calls += 1
        return super().apply_batch(values, sites, out_sites)


def test_one_trial_per_block_gives_the_same_reports(monkeypatch):
    whole = {
        "broken": check_equivariance(_BrokenMap(), 2, 40, 3).to_json(),
        "star": check_equivariance(star(0.25), 3, 30, 5).to_json(),
        "cocycle": check_cocycle(200, 6).to_json(),
        "roundtrip": check_coset_roundtrip(3, 30, 7).to_json(),
    }
    # under a fault the cocycle's counterexample shows which words were drawn: an
    # a-exponent off by one fails every trial, and off by one where positive fails
    # seed 0 first at trial 26
    real = coinduce.strip_a_codes
    for fault, seed, failures, trial in ((lambda e: e + 1, 6, 40, 0), (lambda e: e + (e > 0), 0, 1, 26)):
        with monkeypatch.context() as faulted:
            faulted.setattr(coinduce, "strip_a_codes", lambda codes: (real(codes)[0], fault(real(codes)[1])))
            report = check_cocycle(40, seed).to_json()
            faulted.setattr(config, "SAMPLE_BLOCK_BYTES", 1)
            assert check_cocycle(40, seed).to_json() == report
        assert (report["failures"], report["first_counterexample"]["trial"]) == (failures, trial)
    # seed 3's first odd g is drawn by trial 3, so its counterexample is
    # found in a later block than the first
    assert whole["broken"]["first_counterexample"]["trial"] > 0
    monkeypatch.setattr(config, "SAMPLE_BLOCK_BYTES", 1)
    counting = _CountingBrokenMap()
    assert check_equivariance(counting, 2, 40, 3).to_json() == whole["broken"]
    assert counting.calls == 2 * 40  # each block maps its one x and its one g.x
    assert check_equivariance(star(0.25), 3, 30, 5).to_json() == whole["star"]
    assert check_cocycle(200, 6).to_json() == whole["cocycle"]
    assert check_coset_roundtrip(3, 30, 7).to_json() == whole["roundtrip"]


@pytest.mark.parametrize("seed", [0, 15, 19])
@pytest.mark.parametrize("max_len", [0, 1, 6])
def test_batched_cocycle_matches_the_word_oracle(seed, max_len, monkeypatch):
    monkeypatch.setattr(verify, "COCYCLE_MAX_LEN", max_len)
    rep = check_cocycle(300, seed)
    assert rep.to_json() == check_cocycle_direct(300, seed, max_len).to_json()
    assert rep.verdict == "pass"


def test_long_cocycle_words_run_on_object_arrays(monkeypatch):
    # products of two 20-letter words pass the 31 letters an int64 code holds
    dtypes = []
    real = verify.mul_codes
    monkeypatch.setattr(verify, "mul_codes", lambda x, y: dtypes.append(real(x, y).dtype) or real(x, y))
    monkeypatch.setattr(verify, "COCYCLE_MAX_LEN", 20)
    rep = check_cocycle(200, 8)
    assert rep.to_json() == check_cocycle_direct(200, 8, max_len=20).to_json()
    assert object in dtypes and rep.failures == 0


def test_a_cocycle_off_by_one_fails_every_trial(monkeypatch):
    real = coinduce.strip_a_codes
    monkeypatch.setattr(coinduce, "strip_a_codes", lambda codes: (real(codes)[0], real(codes)[1] + 1))
    rep = check_cocycle(50, 12)
    assert rep.failures == 50
    rng = np.random.default_rng(12)
    g1, g2, c = (random_word_direct(rng, 6) for _ in range(3))
    expected = {"g1": str(g1), "g2": str(g2), "coset": str(coset_of(c))}
    assert {k: rep.first_counterexample[k] for k in expected} == expected
    ce = rep.first_counterexample
    assert ce["trial"] == 0 and ce["lhs"] + 1 == ce["rhs"]


def test_a_cocycle_outside_the_subgroup_is_refused_at_the_first_bad_pair(monkeypatch):
    # the fault: every inverse comes out as the word itself, so g *
    # rep(g c) is not of the form c * a**e; the first pair, in trial order
    # and then lhs, rhs terms, is found with Words and the same fault
    monkeypatch.setattr(coinduce, "inv_codes", lambda codes: codes)
    monkeypatch.setattr(verify, "inv_codes", lambda codes: codes)  # check_cocycle strips c2 itself
    rng = np.random.default_rng(21)
    expected = None
    for _ in range(100):
        g1, g2, c = (random_word_direct(rng, 6) for _ in range(3))
        c = coset_of(c)
        for g, coset in ((mul(g1, g2), c), (g1, c), (g2, coset_of(mul(g1, c)))):
            moved = mul(g, coset_of(mul(g, coset)))
            if expected is None and coset_of(moved) != coset:
                expected = f"cocycle({g}, {coset}) reduced to {mul(coset, moved)}, not an a-power"
    assert expected is not None
    with pytest.raises(NotInSubgroup, match=re.escape(expected)):
        check_cocycle(100, 21)


# ---------------------------------------------- runs that could not fail


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_mc_refuses_a_threshold_that_is_not_positive_and_finite(threshold):
    # such a run reported "threshold": NaN or Infinity, which is no JSON
    with pytest.raises(ValueError, match="positive and finite"):
        mc_pushforward(ow(), uniform(U2), 2, 0, 5000, 1, threshold=threshold)


@pytest.mark.parametrize("spec,law", [("star:0.25", star_base(0.25)), ("ow", uniform(U2))])
def test_mc_refuses_a_negative_input_radius_before_it_draws(spec, law, monkeypatch):
    # a star run at r_in -1 sampled, and reported a withheld verdict
    from bernshift import verify

    def draw(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(verify, "sample_matrix", draw)
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        mc_pushforward(parse_map_spec(spec), law, -1, 0, 2000, 1)


@pytest.mark.parametrize("trials", [0, -3])
def test_property_checks_refuse_runs_without_trials(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        check_cocycle(trials, 1)
    with pytest.raises(ValueError, match="at least one trial"):
        check_equivariance(ow(), 3, trials, 1)
    with pytest.raises(ValueError, match="at least one trial"):
        check_coset_roundtrip(3, trials, 1)


@pytest.mark.parametrize("spec, r", [("timar:3", 2), ("ow", 0)])
def test_equivariance_that_compares_no_site_is_refused(spec, r):
    with pytest.raises(InsufficientRadius, match="no site on both sides"):
        check_equivariance(parse_map_spec(spec), r, 50, 1)


def test_equivariance_refuses_a_map_without_batch_evaluation():
    with pytest.raises(NotImplementedError, match="no batch evaluation"):
        check_equivariance(_NoBatchMap(), 2, 10, 1)


# ------------------------------------------- faults in the coinduced path


def _lifted_swap_with_table(table):
    lifted = parse_map_spec("coinduced:swap")
    cell = ZBlockMap(lifted.cell_map.name, U2, U2, (0,), np.asarray(table))
    return CoinducedCellMap(cell)


def test_a_corrupted_entry_of_the_lifted_swap_table_fails_exact():
    bad = _lifted_swap_with_table([0, 0])  # entry 0 should be 1
    assert bad.name == "coinduced:swap"
    rep = exact_pushforward(bad, 2, 1)
    assert rep.verdict == "fail" and rep.counts[0] == rep.total
    # Monte Carlo compares the output with the law the corrupted table
    # itself declares, and a fault that is the same at every site still
    # commutes with the shift, so only the exact count can see this one
    assert mc_pushforward(bad, uniform(U2), 2, 1, 20_000, 3).verdict == "pass"
    assert check_equivariance(bad, 3, 50, 4).failures == 0


def test_a_corrupted_entry_of_the_lifted_swap_gather_fails_every_engine(monkeypatch):
    lifted = parse_map_spec("coinduced:swap")
    real = SiteSet.neighbor_indices

    def corrupted(self, offset, of=None):
        # the first output site reads the second input site's value
        idx = real(self, offset, of).copy()
        if len(idx) > 1:
            idx[0] = idx[1]
        return idx

    monkeypatch.setattr(SiteSet, "neighbor_indices", corrupted)
    assert exact_pushforward(lifted, 2, 1).verdict == "fail"
    assert mc_pushforward(lifted, uniform(U2), 2, 1, 20_000, 3).verdict == "fail"
    assert check_equivariance(lifted, 3, 50, 4).failures > 0


def _cocycle_off_by_one(monkeypatch):
    real = coinduce.strip_a_codes
    monkeypatch.setattr(coinduce, "strip_a_codes", lambda codes: (real(codes)[0], real(codes)[1] + 1))


def _merge_with_a_doubled_step(monkeypatch):
    # a split that forgets its site set, so that its merge builds the codes of its slots,
    # as rep * a^(2j): every other column of the slots of a window twice as wide
    real_codes, real_layout = coinduce._slot_codes, coinduce.split_layout

    def forgetful(sites, window=None):
        layout = real_layout(sites, window)
        return coinduce.SlotLayout(layout.reps, layout.window, layout.offsets, layout.exponent, None, layout.order)

    monkeypatch.setattr(coinduce, "_slot_codes", lambda codes, pos, w: real_codes(codes, 2 * pos, 2 * w))
    monkeypatch.setattr(coinduce, "split_layout", forgetful)


def _act_reading_a_shifted_column_for_b(monkeypatch):
    real = coinduce._act_gather

    def shifted(layout, g):
        # for g = b every slot reads the next slot along its coset's segment, or past its end
        moved, take = real(layout, g)
        if g == Word.parse("b"):
            take = np.minimum(take + 1, len(layout.exponent) - 1)
        return moved, take

    monkeypatch.setattr(coinduce, "_act_gather", shifted)


@pytest.mark.parametrize("fault", [None, _cocycle_off_by_one, _merge_with_a_doubled_step,
                                   _act_reading_a_shifted_column_for_b])
@pytest.mark.parametrize("r, trials, seed", [(4, 500, 109), (3, 100, 17), (0, 5, 1), (5, 40, 3)])
def test_blocked_coset_roundtrip_matches_the_trial_by_trial_oracle(monkeypatch, fault, r, trials, seed):
    clear = coinduce._act_gather.cache_clear  # the gathers cached with and without the fault
    clear()
    if fault is not None:
        fault(monkeypatch)
    try:
        rep = check_coset_roundtrip(r, trials, seed)
        assert rep.to_json() == check_coset_roundtrip_direct(r, trials, seed).to_json()
    finally:
        clear()
    assert (rep.failures > 0) == (fault is not None and r > 0)


def test_an_act_shifted_by_one_fails_the_coset_roundtrip(monkeypatch):
    real = coinduce.strip_a_codes

    def off_by_one(codes):
        rep, power = real(codes)
        return rep, power + 1

    coinduce._act_gather.cache_clear()
    monkeypatch.setattr(coinduce, "strip_a_codes", off_by_one)
    try:
        rep = check_coset_roundtrip(3, 20, 9)
    finally:
        coinduce._act_gather.cache_clear()
    assert rep.failures > 0 and rep.first_counterexample["kind"] == "equivariance"
