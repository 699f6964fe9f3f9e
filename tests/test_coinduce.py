import itertools

import numpy as np
import pytest

from bernshift import (
    Configuration,
    CosetConfiguration,
    IDENTITY,
    SiteSet,
    Word,
    ball,
    bit_alphabet,
    cocycle,
    coinduced_act,
    coset_of,
    from_coset_config,
    restrict,
    sample,
    to_coset_config,
    translate,
    uniform,
)
from bernshift import coinduce, coinduced_map, freegroup, verify
from bernshift.coinduce import NotInSubgroup, SlotLayout, act_slots, agree_slots, cocycles, coset_configs_agree
from bernshift.coinduce import grid_of_slots, merge_slots, slots_of_grid, split_slots
from bernshift.config import index_matrix
from bernshift.freegroup import GEN_A, encode, strip_a_codes, translated_sites

from oracles import (
    ZBlockMap,
    a_power_decomposition,
    act_grid_dense,
    agree_grid_dense,
    cocycle_direct,
    coinduce_factor,
    coinduce_factor_direct,
    coinduced_act_direct,
    coinduced_lift_direct,
    coset_configs_agree_direct,
    full_group_act,
    gen_power,
    inv,
    merge_direct,
    merge_grid_dense,
    mul,
    plain_alphabet,
    random_word,
    relabel_inverse,
    shortlex_key,
    split_direct,
    split_grid_dense,
    z_relabel,
)

U2 = bit_alphabet(1)


def _random_config(rng, sites):
    return Configuration(U2, sites, [int(v) for v in rng.integers(0, 2, len(sites))])


# ----------------------------------------------------------- cosets/cocycle


def test_a_power_decomposition():
    # the letter oracle and the code stripping agree on the examples
    for text, want_rep, want_n in (("baa", "b", 2), ("bAA", "b", -2), ("ab", "ab", 0)):
        rep, n = a_power_decomposition(Word.parse(text))
        assert (str(rep), n) == (want_rep, want_n)
        codes, powers = strip_a_codes(encode([Word.parse(text)]))
        assert (codes.tolist(), powers.tolist()) == ([Word.parse(want_rep).code], [want_n])


def test_coset_of_examples():
    assert coset_of(Word.parse("aaa")) == IDENTITY
    assert str(coset_of(Word.parse("bAA"))) == "b"
    assert str(coset_of(Word.parse("abA"))) == "ab"
    assert str(coset_of(Word.parse("bab"))) == "bab"


def test_coset_right_invariance():
    rng = np.random.default_rng(21)
    a = Word.parse("a")
    for _ in range(1000):
        g = random_word(rng, 8)
        assert coset_of(g) == coset_of(mul(g, a))
        assert coset_of(g) == coset_of(mul(g, inv(a)))


def test_cocycle_examples():
    assert cocycle(IDENTITY, coset_of(Word.parse("bab"))) == 0
    assert cocycle(Word.parse("a"), IDENTITY) == 1
    assert cocycle(Word.parse("b"), coset_of(Word.parse("b"))) == 0


def test_cocycle_identity_random():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        g1, g2 = random_word(rng, 6), random_word(rng, 6)
        c = coset_of(random_word(rng, 6))
        lhs = cocycle(mul(g1, g2), c)
        rhs = cocycle(g1, c) + cocycle(g2, coset_of(mul(inv(g1), c)))
        assert lhs == rhs


def _check_cocycles(gs, cs):
    src, e = cocycles(encode(gs), encode(cs))
    assert e.tolist() == [cocycle_direct(g, c) for g, c in zip(gs, cs)]
    assert src.tolist() == [coset_of(mul(inv(g), c)).code for g, c in zip(gs, cs)]
    return src


def test_cocycles_match_the_word_oracle_on_ball_3():
    # every g in ball(3) against every canonical representative in ball(3)
    reps = ball(3).coset_table().reps.words
    gs = [g for g in ball(3) for _ in reps]
    cs = list(reps) * len(ball(3))
    _check_cocycles(gs, cs)
    assert [cocycle(g, c) for g, c in zip(gs, cs)] == [cocycle_direct(g, c) for g, c in zip(gs, cs)]


def test_cocycles_of_long_words_run_on_object_arrays():
    # g^-1 c for 20-letter g and c passes the 31 letters an int64 code holds
    rng = np.random.default_rng(23)
    gs = [random_word(rng, 20) for _ in range(300)]
    cs = [coset_of(random_word(rng, 20)) for _ in range(300)]
    assert _check_cocycles(gs, cs).dtype == object


def test_cocycles_broadcast_one_g_against_many_cosets():
    g, reps = Word.parse("bAb"), ball(2).coset_table().reps
    src, e = cocycles(encode([g]), reps.codes)
    assert e.tolist() == [cocycle_direct(g, c) for c in reps]
    assert src.tolist() == [coset_of(mul(inv(g), c)).code for c in reps]


def test_the_coinduced_act_refuses_a_cocycle_outside_the_subgroup(monkeypatch):
    # every inverse comes out as the word itself: b * rep(b * e) = bb is not e * a**n
    y = to_coset_config(sample(uniform(U2), ball(2), 1))
    coinduce._act_gather.cache_clear()
    monkeypatch.setattr(coinduce, "inv_codes", lambda codes: codes)
    try:
        with pytest.raises(NotInSubgroup, match=r"cocycle\(b, e\) reduced to bb, not an a-power"):
            coinduced_act(Word.parse("b"), y)
    finally:
        coinduce._act_gather.cache_clear()


# --------------------------------------------------------- coinduced action


def _coset_sample(rng, cosets, window):
    rows = tuple(
        tuple(int(v) for v in rng.integers(0, 2, 2 * window + 1)) for _ in cosets
    )
    return CosetConfiguration(U2, tuple(cosets), window, rows)


def test_coinduced_act_identity():
    rng = np.random.default_rng(23)
    cosets = sorted({coset_of(w) for w in ball(3)}, key=shortlex_key)
    y = _coset_sample(rng, cosets, 3)
    assert coinduced_act(IDENTITY, y) == y


def test_coinduced_act_a_shifts_the_home_coset():
    rng = np.random.default_rng(24)
    cosets = sorted({coset_of(w) for w in ball(2)}, key=shortlex_key)
    y = _coset_sample(rng, cosets, 2)
    moved = coinduced_act(Word.parse("a"), y)
    for j in range(-1, 3):
        assert moved.value_at(IDENTITY, j) == y.value_at(IDENTITY, j - 1)
    assert moved.value_at(IDENTITY, -2) is None  # shifted off the window


def test_coinduced_action_law():
    rng = np.random.default_rng(25)
    cosets = sorted({coset_of(w) for w in ball(3)}, key=shortlex_key)
    for _ in range(500):
        y = _coset_sample(rng, cosets, 3)
        g1, g2 = random_word(rng, 3), random_word(rng, 3)
        lhs = coinduced_act(g1, coinduced_act(g2, y))
        rhs = coinduced_act(mul(g1, g2), y)
        assert coset_configs_agree(lhs, rhs) is None


# ------------------------------------------------------- coinduced factors


def test_coinduce_factor_identity_and_inverse():
    rng = np.random.default_rng(26)
    cosets = sorted({coset_of(w) for w in ball(2)}, key=shortlex_key)
    y = _coset_sample(rng, cosets, 2)
    ident = z_relabel("id", U2, U2, [0, 1])
    assert coinduce_factor(ident, y) == y
    sw = z_relabel("swap", U2, U2, [1, 0])
    assert coinduce_factor(relabel_inverse(sw), coinduce_factor(sw, y)) == y


def test_coinduce_factor_equivariance():
    rng = np.random.default_rng(27)
    cosets = sorted({coset_of(w) for w in ball(3)}, key=shortlex_key)
    sw = z_relabel("swap", U2, U2, [1, 0])
    for _ in range(500):
        y = _coset_sample(rng, cosets, 3)
        g = random_word(rng, 3)
        lhs = coinduce_factor(sw, coinduced_act(g, y))
        rhs = coinduced_act(g, coinduce_factor(sw, y))
        assert coset_configs_agree(lhs, rhs) is None
        assert lhs == rhs  # single-site relabel: definedness matches too


# --------------------------------------------------------- the conjugacy


def test_split_reads_sites_through_the_section():
    x = sample(uniform(U2), ball(2), 31)
    y = to_coset_config(x)
    assert y.value_at(IDENTITY, 2) == x.value_at(Word.parse("aa"))
    assert y.value_at(Word.parse("b"), -1) == x.value_at(Word.parse("bA"))
    assert y.value_at(Word.parse("b"), 0) == x.value_at(Word.parse("b"))


def test_merge_reads_the_a_power_slot():
    # g = b a^2 corresponds to coset b at position 2
    cosets = (IDENTITY, Word.parse("b"))
    rows = ((None,) * 5, (None, None, None, None, 1))
    y = CosetConfiguration(U2, cosets, 2, rows)
    x = from_coset_config(y)
    assert x.value_at(Word.parse("baa")) == 1
    assert x.value_at(Word.parse("ba")) is None


def test_roundtrip_on_random_configurations():
    rng = np.random.default_rng(32)
    sites = ball(3)
    for _ in range(500):
        x = _random_config(rng, sites)
        back = from_coset_config(to_coset_config(x))
        for i, w in enumerate(sites):
            assert back.value_at(w) == x.values[i]


def test_roundtrip_fixes_constants():
    x = Configuration(U2, ball(2), [1] * 17)
    back = from_coset_config(to_coset_config(x))
    assert all(back.value_at(w) == 1 for w in x.sites)


def test_impulse_survives_roundtrip_at_predicted_slot():
    sites = ball(3)
    target = Word.parse("baa")
    x = Configuration(U2, sites, [1 if w == target else 0 for w in sites])
    y = to_coset_config(x)
    assert y.value_at(Word.parse("b"), 2) == 1
    assert from_coset_config(y).value_at(target) == 1


def test_split_equivariance():
    rng = np.random.default_rng(33)
    sites = ball(3)
    g_pool = ball(2).words
    for _ in range(500):
        x = _random_config(rng, sites)
        g = g_pool[int(rng.integers(len(g_pool)))]
        lhs = to_coset_config(translate(g, x))
        rhs = coinduced_act(g, to_coset_config(x))
        assert coset_configs_agree(lhs, rhs) is None


def test_coinduced_act_preserves_iid_marginals():
    # Monte Carlo: the law of a fixed slot is unchanged by the action.
    # 4 sigma for 40000 fair bits is 4 * 0.5 / 200 = 0.01.
    rng = np.random.default_rng(36)
    reps = SiteSet({coset_of(w) for w in ball(2)})
    n, window = 40_000, 2
    # draw k is row k: the stream of n ``_coset_sample`` calls, stacked into one grid
    grid = rng.integers(0, 2, (n, len(reps), 2 * window + 1)).transpose(1, 2, 0)
    v = grid_of_slots(*act_slots(Word.parse("ba"), *slots_of_grid(reps, grid)))[reps.position(IDENTITY), window]
    assert (v >= 0).all()  # this slot stays defined under g
    assert abs(v.mean() - 0.5) < 0.01


def test_split_map_merge_is_equivariant_and_invertible():
    # an invertible per-coset relabeling lifts to an invertible,
    # translation-commuting map of group-indexed configurations
    rng = np.random.default_rng(37)
    sites = ball(3)
    sw = z_relabel("swap", U2, U2, [1, 0])
    g_pool = ball(2).words
    for _ in range(200):
        x = _random_config(rng, sites)
        lifted = from_coset_config(coinduce_factor(sw, to_coset_config(x)))
        # invertible: applying the inverse relabel undoes it
        back = from_coset_config(coinduce_factor(relabel_inverse(sw), to_coset_config(lifted)))
        for i, w in enumerate(sites):
            assert back.value_at(w) == x.values[i]
        # equivariant: commutes with a random translation on x's sites
        g = g_pool[int(rng.integers(len(g_pool)))]
        lhs = from_coset_config(coinduce_factor(sw, to_coset_config(translate(g, x))))
        rhs = translate(g, lifted)
        for w in rhs.sites:
            v1, v2 = lhs.value_at(w), rhs.value_at(w)
            if v1 is not None and v2 is not None:
                assert v1 == v2


def test_full_group_degenerate_case():
    # With the whole group as subgroup there is a single coset, the
    # section is the identity, and the coinduced action is the shift.
    rng = np.random.default_rng(34)
    x = _random_config(rng, ball(2))
    g1, g2 = Word.parse("ab"), Word.parse("Ba")
    assert full_group_act(g1, x) == translate(g1, x)
    assert full_group_act(g1, full_group_act(g2, x)) == full_group_act(mul(g1, g2), x)


# ------------------------------------- compiled conjugacy vs the oracles


def _partial_config(rng, sites, p_none=0.3):
    vals = [None if rng.random() < p_none else int(v) for v in rng.integers(0, 2, len(sites))]
    return Configuration(U2, sites, vals)


def _assert_matches_oracles(x, window=None):
    y = to_coset_config(x, window)
    assert y == split_direct(x, window)
    assert from_coset_config(y) == merge_direct(y)


@pytest.mark.parametrize("r", range(6))
def test_split_and_merge_match_oracles_on_balls(r):
    rng = np.random.default_rng(40 + r)
    sites = ball(r)
    _assert_matches_oracles(_random_config(rng, sites))
    _assert_matches_oracles(_partial_config(rng, sites))
    for window in (0, 1, r + 2):
        _assert_matches_oracles(_partial_config(rng, sites), window)


def test_split_and_merge_match_oracles_on_translated_balls():
    rng = np.random.default_rng(46)
    for g in ball(2).words + (Word.parse("BAbaa"), Word.parse("aaab")):
        sites, _ = translated_sites(ball(3), g)
        _assert_matches_oracles(_partial_config(rng, sites))
        _assert_matches_oracles(_random_config(rng, sites), 1)


def test_split_and_merge_match_oracles_on_random_subsets():
    rng = np.random.default_rng(47)
    words = ball(4).words
    for _ in range(30):
        keep = rng.random(len(words)) < rng.uniform(0.05, 0.9)
        sites = SiteSet(w for w, k in zip(words, keep) if k)
        _assert_matches_oracles(_partial_config(rng, sites))
        _assert_matches_oracles(_partial_config(rng, sites), int(rng.integers(0, 6)))
    _assert_matches_oracles(Configuration(U2, SiteSet([]), []))


def test_merge_matches_oracle_on_rows_past_any_ball():
    rng = np.random.default_rng(48)
    for window in (0, 2, 7):
        width = 2 * window + 1
        data = {
            "alphabet": "U2",
            "cosets": ["e", "b", "aB", "bab", "BAbAB", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"],
            "window": window,
            "values": [[None if rng.random() < 0.3 else int(rng.integers(2)) for _ in range(width)]
                       for _ in range(6)],
        }
        y = CosetConfiguration.from_json(data)
        x = from_coset_config(y)
        assert x == merge_direct(y)
        assert to_coset_config(x, window) == _without_empty_rows(y)


def _without_empty_rows(y):
    keep = [i for i, row in enumerate(y.values) if any(v is not None for v in row)]
    return CosetConfiguration(y.alphabet, [y.cosets[i] for i in keep], y.window, [y.values[i] for i in keep])


# words past int64 codes: 32 to 40 letters, along a few cosets
_LONG_WORDS = tuple(Word.parse(rep + power) for rep in ("b" * 32, "B" * 33, "ab" * 17, "aB" * 16)
                    for power in ("", "a", "aaaa", "AA", "AAAAAA"))


def _roundtrip_sets():
    yield from (ball(r) for r in range(7))
    for g in (Word.parse("b"), Word.parse("BAbaa"), Word.parse("aaab")):
        yield translated_sites(ball(4), g)[0]
    rng = np.random.default_rng(80)
    words = ball(4).words
    for _ in range(10):
        keep = rng.random(len(words)) < rng.uniform(0.05, 0.9)
        yield SiteSet(w for w, k in zip(words, keep) if k)
    yield SiteSet(_LONG_WORDS)
    yield SiteSet(_LONG_WORDS + ball(2).words)
    yield SiteSet([])


def test_merge_inverts_the_split_on_total_configurations():
    rng = np.random.default_rng(81)
    for sites in _roundtrip_sets():
        x = _random_config(rng, sites)
        assert from_coset_config(to_coset_config(x)) == x
    assert SiteSet(_LONG_WORDS).codes.dtype == object


def test_a_partial_configuration_merges_to_its_defined_sites():
    rng = np.random.default_rng(82)
    for sites in _roundtrip_sets():
        x = _partial_config(rng, sites)
        defined = SiteSet.from_codes(x.sites.codes[x.indices >= 0])
        assert from_coset_config(to_coset_config(x)) == restrict(x, defined)
        for window in (0, 1, 3):
            y = to_coset_config(x, window)
            assert to_coset_config(from_coset_config(y), window) == _without_empty_rows(y)


def test_a_multi_column_grid_merges_to_the_union_of_held_slots():
    rng = np.random.default_rng(83)
    for sites in (ball(3), SiteSet(_LONG_WORDS + ball(1).words)):
        xs = [_partial_config(rng, sites, p_none=0.6) for _ in range(3)]
        values = np.stack([x.indices for x in xs], axis=1)
        merged_sites, merged = merge_slots(*split_slots(sites, values))
        union = SiteSet.from_codes(sites.codes[(values >= 0).any(axis=1)])
        assert merged_sites == union and len(union) < len(sites)
        for col, x in enumerate(xs):
            assert Configuration(U2, union, merged[:, col]) == restrict(x, union)


def test_a_grid_with_no_columns_merges_to_the_empty_set():
    for sites in (ball(3), SiteSet(_LONG_WORDS)):
        merged_sites, merged = merge_slots(*split_slots(sites, np.zeros((len(sites), 0), dtype=np.int64)))
        assert len(merged_sites) == 0 and merged.shape == (0, 0)


def test_negative_window_is_rejected():
    with pytest.raises(ValueError):
        to_coset_config(Configuration(U2, ball(1), [0] * 5), -1)


@pytest.mark.parametrize("window", [-1, -3, 1.5, True, "1"])
def test_a_window_that_is_no_nonnegative_integer_is_refused(window):
    data = {"alphabet": "U2", "cosets": ["e"], "window": window, "values": [[0, 1, 0]]}
    for refuse in (lambda: CosetConfiguration(U2, (), window, ()), lambda: CosetConfiguration.from_json(data),
                   lambda: to_coset_config(Configuration(U2, ball(1), [0] * 5), window)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == f"window must be a nonnegative integer, got {window!r}"


def test_coset_table_is_built_once_per_site_set(monkeypatch):
    built = []
    real = freegroup._build_coset_table
    monkeypatch.setattr(freegroup, "_build_coset_table", lambda words: built.append(1) or real(words))
    rng = np.random.default_rng(49)
    sites = ball(3)
    first = to_coset_config(_random_config(rng, sites))
    second = to_coset_config(_random_config(rng, sites), 2)
    assert len(built) == 1 and first.cosets is second.cosets
    # a cached translate keeps its table
    moved, _ = translated_sites(sites, Word.parse("bbAbA"))
    to_coset_config(_random_config(rng, moved))
    n_built = len(built)
    again, _ = translated_sites(ball(3), Word.parse("bbAbA"))
    to_coset_config(_random_config(rng, again))
    assert again is moved and len(built) == n_built


def test_exact_coset_pushforward_matches_the_oracle_split(monkeypatch):
    got = verify.exact_coset_pushforward(2).to_json()
    splits = []

    def oracle_split(sites, window=None):
        # the site numbers as symbols of a marker alphabet, split slot by slot
        marker = plain_alphabet(f"site_index_{len(sites)}", map(str, range(len(sites))))
        y = split_direct(Configuration(marker, sites, range(len(sites))), window)
        splits.append(y)
        return SlotLayout(y.coset_sites, y.window, y.layout.offsets, y.layout.exponent, sites, y.slot_values)

    monkeypatch.setattr(verify, "split_layout", oracle_split)
    assert got == verify.exact_coset_pushforward(2).to_json()
    assert len(splits) == 1 and got["verdict"] == "pass"


# ------------------------------------- held-slot kernels vs the dense ones

_DENSE_G = ball(2).words + (Word.parse("BAbaa"), Word.parse("aaab"), Word.parse("b" * 3 + "A" * 4))


def _holey_columns(rng, n, columns, p_hole=0.3):
    """(n, columns) binary values with -1 holes."""
    values = rng.integers(0, 2, (n, columns))
    values[rng.random((n, columns)) < p_hole] = -1
    return values


def _assert_slot_kernels_match_the_dense_ones(sites, values, window=None):
    layout, split = split_slots(sites, values, window)
    reps, grid = split_grid_dense(sites, values, window)
    assert layout.reps == reps and layout.window == grid.shape[1] // 2
    assert np.array_equal(grid_of_slots(layout, split), grid)
    dense_sites, dense = merge_grid_dense(reps, grid)
    # the take back onto the split's own sites, and the sort of the slot codes of a bare layout
    bare = SlotLayout(layout.reps, layout.window, layout.offsets, layout.exponent)
    for merged_sites, merged in (merge_slots(layout, split), merge_slots(bare, split)):
        assert merged_sites == dense_sites and np.array_equal(merged, dense)
    for g in _DENSE_G:
        moved_layout, moved = act_slots(g, layout, split)
        moved_grid = act_grid_dense(g, reps, grid)
        assert np.array_equal(grid_of_slots(moved_layout, moved), moved_grid)
        assert (np.diff(moved_layout.offsets) >= 0).all()
        for k in range(len(reps)):  # exponents ascend within every segment
            assert (np.diff(moved_layout.exponent[moved_layout.offsets[k] : moved_layout.offsets[k + 1]]) > 0).all()
        translated, perm = translated_sites(sites, g)
        shifted = np.empty_like(values)
        shifted[perm] = values
        slots = {"moved": (moved_layout, moved), "split": (layout, split),
                 "translated": split_slots(translated, shifted, window)}
        dense = {"moved": (reps, moved_grid), "split": (reps, grid),
                 "translated": split_grid_dense(translated, shifted, window)}
        for lhs, rhs in itertools.permutations(slots, 2):
            # the dense kernel cannot reshape an empty grid with no columns
            want = agree_grid_dense(*dense[lhs], *dense[rhs]) if values.shape[1] else {}
            assert agree_slots(*slots[lhs], *slots[rhs]) == want


def _gappy_subsets(rng, r, count):
    words = ball(r).words
    for _ in range(count):
        keep = rng.random(len(words)) < rng.uniform(0.2, 0.7)
        yield SiteSet(w for w, k in zip(words, keep) if k)


@pytest.mark.parametrize("r", range(6))
def test_slot_kernels_match_the_dense_ones_on_balls(r):
    rng = np.random.default_rng(90 + r)
    sites = ball(r)
    for window in (None, 0, 1, r + 2):
        _assert_slot_kernels_match_the_dense_ones(sites, rng.integers(0, 2, (len(sites), 2)), window)
        _assert_slot_kernels_match_the_dense_ones(sites, _holey_columns(rng, len(sites), 3), window)


def test_slot_kernels_match_the_dense_ones_on_translated_balls_and_gappy_subsets():
    rng = np.random.default_rng(96)
    sets = [translated_sites(ball(3), g)[0] for g in (Word.parse("b"), Word.parse("BAbaa"), Word.parse("aaab"))]
    sets += list(_gappy_subsets(rng, 4, 6))
    # every slot carries its own exponent: some coset's held exponents are no interval
    assert any((np.diff(s.coset_table().exponent) > 1).any() for s in sets)
    for sites in sets:
        for window in (None, 1, 2):
            _assert_slot_kernels_match_the_dense_ones(sites, _holey_columns(rng, len(sites), 4), window)


def test_slot_kernels_match_the_dense_ones_on_edge_shapes():
    rng = np.random.default_rng(97)
    long_sets = (SiteSet(_LONG_WORDS), SiteSet(_LONG_WORDS + ball(2).words))
    assert all(s.codes.dtype == object for s in long_sets)
    for sites in (ball(3), SiteSet([]), *long_sets):
        for window in (None, 0, 3):
            for columns in (0, 1, 3):
                _assert_slot_kernels_match_the_dense_ones(sites, _holey_columns(rng, len(sites), columns), window)


def test_the_grid_view_is_the_dense_split_and_is_read_only():
    rng = np.random.default_rng(98)
    for sites in (ball(3), next(_gappy_subsets(rng, 4, 1)), SiteSet(_LONG_WORDS)):
        x = _partial_config(rng, sites)
        for window in (None, 1):
            y = to_coset_config(x, window)
            assert np.array_equal(y.grid, split_grid_dense(sites, x.indices, window)[1])
            assert y.grid is y.grid and not y.grid.flags.writeable
            assert y.defined_count == int(np.count_nonzero(y.grid >= 0)) == len(y.slot_values)
            assert (y.slot_values >= 0).all() and not y.slot_values.flags.writeable
            with pytest.raises(ValueError):
                y.grid[0, 0] = 1


def test_a_split_keeps_no_copy_of_the_grid_it_was_built_from():
    grid = np.array([[-1, 1, 0], [1, -1, 0]])
    y = CosetConfiguration(U2, SiteSet([IDENTITY, Word.parse("b")]), 1, grid)
    grid[0, 1] = 0  # the caller's array stays its own
    assert y.values == ((None, 1, 0), (1, None, 0)) and grid.flags.writeable


def test_the_coset_conjugacy_holds_for_every_binary_input_on_ball_2():
    # all 2^17 inputs at once: split then merge gives back every input, and the action
    # of every g in ball(2) on the split is the split of the translate on every slot it keeps
    sites = ball(2)
    xs = index_matrix(2, len(sites), 0, 1 << len(sites))
    layout, split = split_slots(sites, xs)
    merged_sites, merged = merge_slots(layout, split)
    assert merged_sites is sites and np.array_equal(merged, xs)
    for g in sites:
        translated, perm = translated_sites(sites, g)
        shifted = np.empty_like(xs)
        shifted[perm] = xs
        moved = act_slots(g, layout, split)
        assert agree_slots(*split_slots(translated, shifted), *moved) == {}
        # the slots the action keeps: the translate's sites on a stored coset, within the window
        table = translated.coset_table()
        kept = (layout.reps.indices_of(table.reps)[table.coset] >= 0) & (np.abs(table.power) <= layout.window)
        moved_sites, moved_values = merge_slots(*moved)
        assert moved_sites == SiteSet.from_codes(translated.codes[kept]) and kept.any()
        assert np.array_equal(moved_values, shifted[kept])


def test_value_at_reads_c_times_a_to_the_j_at_every_site():
    rng = np.random.default_rng(99)
    x = _partial_config(rng, ball(3))
    y = to_coset_config(x)
    for c in ball(3):
        for j in range(-5, 6):
            assert y.value_at(c, j) == x.value_at(gen_power(c, GEN_A, j)), (c, j)
    z = to_coset_config(sample(uniform(U2), ball(2), 7))
    assert z.value_at(Word.parse("ba"), 0) == z.value_at(Word.parse("b"), 1)


@pytest.mark.parametrize("symbol", [7, 2, -3])
def test_a_coset_configuration_refuses_symbols_outside_its_alphabet(symbol):
    cosets = (IDENTITY, Word.parse("b"))
    rows = ((0, symbol, None), (1, 0, 1))
    grid = np.array([[0, symbol, -1], [1, 0, 1]])
    data = {"alphabet": "U2", "cosets": ["e", "b"], "window": 1, "values": [list(row) for row in rows]}
    for refuse in (lambda: CosetConfiguration(U2, cosets, 1, rows), lambda: CosetConfiguration(U2, cosets, 1, grid),
                   lambda: CosetConfiguration.from_json(data)):
        with pytest.raises(ValueError, match=f"symbol index {symbol} out of range for U2"):
            refuse()
    # -1 marks an undefined slot in the grid form only; the rows form marks it None
    assert CosetConfiguration(U2, cosets, 1, np.where(grid == symbol, 0, grid)).defined_count == 5
    with pytest.raises(ValueError, match="symbol index -1 out of range for U2"):
        CosetConfiguration(U2, cosets, 1, ((0, -1, None), (1, 0, 1)))


# ------------------------------------------- grid kernels vs the oracles

_G3 = ball(3).words
_CELLS = (
    z_relabel("swap", U2, U2, [1, 0]),
    z_relabel("id", U2, U2, [0, 1]),
    ZBlockMap("asum", U2, U2, (0, 1), np.array([[0, 1], [1, 0]])),
    ZBlockMap("spread", U2, U2, (-1, 0, 2), np.random.default_rng(59).integers(0, 2, (2, 2, 2))),
)

# rows no ball splits into: a 34-letter representative, windows up to 7
_FAR_ROWS = ("e", "b", "aB", "bab", "BAbAB", "b" * 34)


def _far_rows(rng, window):
    width = 2 * window + 1
    rows = [[None if rng.random() < 0.3 else int(rng.integers(2)) for _ in range(width)] for _ in _FAR_ROWS]
    return CosetConfiguration.from_json(
        {"alphabet": "U2", "cosets": list(_FAR_ROWS), "window": window, "values": rows}
    )


def _assert_grid_kernels_match(y, others=()):
    for g in _G3:
        moved = coinduced_act(g, y)
        assert moved == coinduced_act_direct(g, y)
        for other in (y, *others):
            assert coset_configs_agree(other, moved) == coset_configs_agree_direct(other, moved)
            assert coset_configs_agree(moved, other) == coset_configs_agree_direct(moved, other)
    for cell in _CELLS:
        assert coinduce_factor(cell, y) == coinduce_factor_direct(cell, y)


@pytest.mark.parametrize("r", range(5))
def test_grid_kernels_match_the_word_oracles_on_balls(r):
    rng = np.random.default_rng(60 + r)
    sites = ball(r)
    for x in (_random_config(rng, sites), _partial_config(rng, sites)):
        y = to_coset_config(x)
        _assert_grid_kernels_match(y, [to_coset_config(x, 1), to_coset_config(translate(_G3[7], x))])


def test_grid_kernels_match_the_word_oracles_on_rows_past_any_ball():
    rng = np.random.default_rng(65)
    for window in (0, 2, 7):
        y = _far_rows(rng, window)
        _assert_grid_kernels_match(y, [_far_rows(rng, 3), to_coset_config(_partial_config(rng, ball(3)))])


@pytest.mark.parametrize("r", range(5))
def test_block_map_lift_matches_split_apply_merge(r):
    rng = np.random.default_rng(70 + r)
    moved, _ = translated_sites(ball(r), Word.parse("bAb"))
    words = ball(r + 1).words
    subset = SiteSet(w for w, k in zip(words, rng.random(len(words)) < 0.5) if k)
    for sites in (ball(r), moved, subset):
        for x in (_random_config(rng, sites), _partial_config(rng, sites)):
            for cell in _CELLS:
                assert coinduced_map(cell).apply(x) == coinduced_lift_direct(cell, x)


# ------------------------------------------------------------------- JSON


def test_coset_config_json_roundtrip():
    rng = np.random.default_rng(35)
    x = _random_config(rng, ball(2))
    y = to_coset_config(x)
    data = y.to_json()
    assert set(data) == {"alphabet", "cosets", "window", "values"}
    assert CosetConfiguration.from_json(data) == y


@pytest.mark.parametrize(
    "field, value",
    [("window", "x"), ("window", 1.5), ("values", 5), ("values", [5]), ("values", [[0, 1.0, 0]]),
     ("values", [[0, True, 0]]), ("values", [[0, 1]]), ("cosets", [3]), ("alphabet", None)],
)
def test_coset_config_json_of_the_wrong_type_is_a_value_error(field, value):
    data = {"alphabet": "U2", "cosets": ["e"], "window": 1, "values": [[0, 1, 0]], field: value}
    with pytest.raises(ValueError):
        CosetConfiguration.from_json(data)


def test_coset_config_validation():
    with pytest.raises(ValueError):
        CosetConfiguration(U2, (Word.parse("ba"),), 1, ((0, 0, 0),))
    with pytest.raises(ValueError):
        CosetConfiguration(U2, (IDENTITY,), 1, ((0, 0),))
    for cosets in ((IDENTITY, IDENTITY), (Word.parse("b"), IDENTITY)):
        with pytest.raises(ValueError, match="distinct and shortlex-sorted"):
            CosetConfiguration(U2, cosets, 0, ((0,), (1,)))


def test_coset_config_grid_form_equals_the_rows_form():
    cosets = (IDENTITY, Word.parse("b"))
    rows = ((None, 1, 0), (1, None, 0))
    y = CosetConfiguration(U2, cosets, 1, rows)
    assert y.grid.tolist() == [[-1, 1, 0], [1, -1, 0]] and y.defined_count == 4
    for form in (np.array([[-1, 1, 0], [1, -1, 0]]), np.array(rows, dtype=object)):
        z = CosetConfiguration(U2, SiteSet(cosets), 1, form)
        assert z == y and z.values == rows and z.cosets == cosets and hash(z) == hash(y)
    with pytest.raises(ValueError, match="canonical"):
        CosetConfiguration(U2, SiteSet([Word.parse("ba")]), 0, np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="one row per coset"):
        CosetConfiguration(U2, cosets, 1, ((0, 0, 0),))
