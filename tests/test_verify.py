import json

import numpy as np
import pytest

from bernshift import (
    CoinducedCellMap,
    Configuration,
    SiteSet,
    EnumerationTooLarge,
    FactorMap,
    IDENTITY,
    WindowTooSmall,
    ZBlockMap,
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
    gen_power,
    identity_map,
    mc_pushforward,
    mul,
    ow,
    parse_map_spec,
    star,
    star_base,
    timar,
    uniform,
    verify,
)
from bernshift.config import enumerate_configurations
from bernshift.freegroup import GEN_A, random_word

from oracles import ow_direct

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
        out = super().apply_batch(values, sites, out_sites)
        out[values[:, sites.position(IDENTITY)] == 1, out_sites.position(IDENTITY)] = -1
        return out


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


def test_equivariance_catches_corrupted_rule():
    rep = check_equivariance(_BrokenMap(), 2, 100, 14)
    assert rep.failures > 0
    assert rep.verdict == "fail"
    ce = rep.first_counterexample
    assert ce is not None
    assert {"trial", "g", "site", "lhs", "rhs", "x"} <= set(ce)


def test_config_mismatch_looks_each_site_up_in_the_other_set():
    lhs = Configuration(U2, ball(1), [0, 1, None, 1, 0])  # e a A b B
    rhs_sites = SiteSet(w for w in ball(2) if str(w) != "a")  # e A b B aa ...
    rhs = Configuration(U2, rhs_sites, [1 if str(w) == "B" else 0 for w in rhs_sites])
    assert verify._config_mismatch(lhs, rhs) == {"site": "b", "lhs": 1, "rhs": 0}
    assert verify._config_mismatch(lhs, lhs) is None


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
        rhs = k + cocycle(g2, coset_of(mul(g1.inverse(), IDENTITY)))
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
