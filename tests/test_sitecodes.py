"""Site sets stored as shortlex codes, checked against the Word-level
oracles: balls, neighbour, ray and coset tables, translation, lookups and
the SiteSet protocol, on short words (int64 codes) and long ones (Python
int codes)."""

import copy
import pickle

import numpy as np
import pytest

from bernshift import CosetConfiguration, SiteSet, Word, ball, check_cocycle, from_coset_config, ow
from bernshift import Configuration, bit_alphabet, sample, to_coset_config, uniform
from bernshift import IDENTITY, factormaps, star, timar
from bernshift.freegroup import (
    GEN_A,
    GEN_A_INV,
    GEN_B,
    GEN_B_INV,
    MAX_INT64_LETTERS,
    code_lengths,
    decode,
    encode,
    inv_codes,
    mul_codes,
    random_reduced_codes,
    strip_a_codes,
    translated_sites,
)

from oracles import (
    a_power_decomposition,
    ball_direct,
    coset_table_direct,
    dependency_direct,
    expand_walk,
    first_bits_direct,
    gen_power,
    inv,
    mul,
    neighbor_indices_direct,
    random_word,
    random_word_direct,
    ray_indices_direct,
    shortlex_key,
    shortlex_sorted,
    star_dependency_direct,
    translated_direct,
)

OFFSETS = tuple(Word.parse(t) for t in ("e", "a", "A", "b", "B", "ab", "bA", "BBa", "aBAb"))


def assert_tables_match(sites, words, of=None):
    """Every table of ``sites`` equals its oracle over ``words``; with
    ``of``, so do the tables looked up from that other set."""
    assert [w.letters for w in sites] == [w.letters for w in shortlex_sorted(words)]
    for off in OFFSETS:
        assert sites.neighbor_indices(off).tolist() == neighbor_indices_direct(words, off)
        if of is not None:
            got = sites.neighbor_indices(off, SiteSet(of)).tolist()
            assert got == neighbor_indices_direct(words, off, of)
    for letter in (GEN_A, GEN_A_INV, GEN_B, GEN_B_INV):
        padded, lengths = expand_walk(sites.ray_indices(letter))
        assert (padded.tolist(), lengths.tolist()) == ray_indices_direct(words, letter)
        if of is not None:
            padded, lengths = expand_walk(sites.ray_indices(letter, SiteSet(of)))
            assert (padded.tolist(), lengths.tolist()) == ray_indices_direct(words, letter, of)
    table = sites.coset_table()
    reps, coset, power = coset_table_direct(words)
    assert table.reps.words == tuple(reps)
    assert (table.coset.tolist(), table.power.tolist()) == (coset, power)
    assert [w.code for w in table.reps] == [w.code for w in reps]


@pytest.mark.parametrize("r", range(8))
def test_balls_and_their_tables_match_the_oracles(r):
    assert_tables_match(ball(r), ball_direct(r), of=ball_direct(max(r - 1, 0)))


def test_translated_balls_match_the_oracles():
    words = ball_direct(3)
    for g in ball(2).words + (Word.parse("BAbaa"), Word.parse("aaab")):
        moved, perm = translated_sites(ball(3), g)
        want, want_perm = translated_direct(words, g)
        assert list(moved) == want and perm.tolist() == want_perm
        assert_tables_match(moved, want)


def test_random_subsets_match_the_oracles():
    rng = np.random.default_rng(71)
    words = ball_direct(5)
    for _ in range(30):
        keep = rng.random(len(words)) < rng.uniform(0.05, 0.9)
        subset = [w for w, k in zip(words, keep) if k]
        other = [w for w in words if rng.random() < 0.2]
        assert_tables_match(SiteSet(subset), subset, of=other)


def test_the_empty_set_matches_the_oracles():
    empty = SiteSet([])
    assert_tables_match(empty, [], of=ball_direct(1))
    assert len(empty) == 0 and list(empty) == [] and empty.words == ()
    assert ball(2).indices_of(empty).tolist() == [] and empty.indices_of(ball(1)).tolist() == [-1] * 5


_RAY_WINDOWS = {
    "own": None,
    "ball(3)": ball_direct(3),
    # g * ball(3) with |g| = 3 reaches words of 6 letters, outside ball(5)
    "bAb*ball(3)": translated_direct(ball_direct(3), Word.parse("bAb"))[0],
    "empty": [],
}


@pytest.mark.parametrize("letter", [GEN_A, GEN_A_INV, GEN_B, GEN_B_INV])
@pytest.mark.parametrize("of", list(_RAY_WINDOWS))
def test_live_ray_tables_match_the_oracle_where_rays_end_at_many_steps(letter, of):
    # rays of ball(5) end at every step from 0 to 10; each walks the set's
    # own step table from its first site until it reads the trailing -1
    words, of_words = ball_direct(5), _RAY_WINDOWS[of]
    sites = ball(5)
    first, walk = sites.ray_indices(letter, None if of_words is None else SiteSet(of_words))
    rays, lengths = expand_walk((first, walk))
    assert (rays.tolist(), lengths.tolist()) == ray_indices_direct(words, letter, of_words)
    if of != "empty":
        assert len(set(lengths.tolist())) >= 6
    assert first.dtype == walk.dtype == np.int64
    assert not first.flags.writeable and not walk.flags.writeable
    assert walk.tolist() == neighbor_indices_direct(words, Word((letter,))) + [-1]


@pytest.mark.parametrize("letter", [GEN_A, GEN_B_INV])
def test_live_ray_tables_of_an_empty_set_have_no_steps(letter):
    for sites, of in ((SiteSet([]), None), (SiteSet([]), ball(1)), (ball(2), SiteSet([]))):
        first, walk = sites.ray_indices(letter, of)
        n = len(sites if of is None else of)
        assert first.tolist() == [-1] * n and len(walk) == len(sites) + 1 and walk[-1] == -1
        rays, lengths = expand_walk((first, walk))
        assert rays.shape == (n, 0) and lengths.tolist() == [0] * n
        assert first.dtype == walk.dtype == np.int64 and not first.flags.writeable and not walk.flags.writeable


@pytest.mark.parametrize("letter", [GEN_A, GEN_A_INV, GEN_B, GEN_B_INV])
def test_an_ended_ray_stays_ended_where_the_last_site_has_an_in_set_neighbour(letter):
    # the shortlex-last site g ends in s^-1, so g*s is a site: a walk that
    # read its own last entry for an ended ray (-1) would restart the ray
    # at g*s; this set has such a last site for every letter s
    s, back = Word((letter,)), Word((letter ^ 1,))
    other = Word((GEN_B if letter in (GEN_A, GEN_A_INV) else GEN_A,) * 2)
    words = [IDENTITY, s, mul(s, s), other, mul(other, back)]
    sites = SiteSet(words)
    assert sites.words[-1] == mul(other, back) and sites.neighbor_indices(s)[-1] >= 0
    first, walk = sites.ray_indices(letter)
    padded, lengths = expand_walk((first, walk))
    want, want_lengths = ray_indices_direct(words, letter)
    assert (padded.tolist(), lengths.tolist()) == (want, want_lengths)
    assert 0 < min(n for n in want_lengths if n) < max(want_lengths)  # a ray ends while another runs on
    rng = np.random.default_rng(letter)
    values = rng.integers(0, 3, (len(sites), 64)).astype(np.int8)
    got = factormaps._first_bits(values, (first, walk), 2)
    assert got.tolist() == first_bits_direct(values, np.array(want, dtype=np.int64), 2)


@pytest.mark.parametrize("length", [30, 31, 32, 40])
def test_long_words_match_the_oracles(length):
    # codes of up to 31 letters are int64; any longer word makes the set
    # use Python ints, and a table that forms longer codes widens
    rng = np.random.default_rng(length)
    words = [random_word(rng, length) for _ in range(40)]
    words += [Word((GEN_B,) * length), Word((GEN_A_INV,) * length), Word((GEN_A, GEN_B) * (length // 2))]
    sites = SiteSet(words)
    assert max(map(len, sites)) == length
    assert sites.codes.dtype == (np.int64 if length <= MAX_INT64_LETTERS else object)
    assert_tables_match(sites, words, of=words[:10] + ball_direct(2))
    for g in (Word.parse("a"), Word.parse("BAb"), Word((GEN_B_INV,) * 5)):
        moved, perm = translated_sites(sites, g)
        want, want_perm = translated_direct(words, g)
        assert list(moved) == want and perm.tolist() == want_perm


def test_the_identity_neighbour_table_is_the_search_it_skips():
    e = Word.parse("e")
    long_words = SiteSet([Word((GEN_B,) * 40), Word((GEN_B,) * 33 + (GEN_A,)), Word.parse("ab")])
    assert long_words.codes.dtype == object
    for sites in (*map(ball, range(6)), SiteSet([]), long_words):
        table = sites.neighbor_indices(e)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == sites._find(sites.codes).tolist()
        assert sites.neighbor_indices(e) is table and sites.neighbor_indices(e, sites) is table
    # from another set the identity still looks each site up
    other = SiteSet(ball(2).words + long_words.words)
    for sites in (ball(3), long_words):
        assert sites.neighbor_indices(e, other).tolist() == sites._find(other.codes).tolist()


def test_a_31_letter_set_stepped_past_int64_matches_the_oracle():
    words = [Word((GEN_B,) * 31), Word((GEN_B,) * 30 + (GEN_A,)), Word((GEN_B,) * 28)]
    sites = SiteSet(words)
    assert sites.codes.dtype == np.int64
    for off in (Word.parse("b"), Word.parse("B"), Word.parse("bab"), Word.parse("BBB")):
        assert sites.neighbor_indices(off).tolist() == neighbor_indices_direct(words, off)
        stepped = sites.times([off])
        assert list(stepped) == shortlex_sorted(mul(w, off) for w in words)
        assert stepped.codes.dtype == (object if max(map(len, stepped)) > 31 else np.int64)


def test_merged_rows_past_any_ball_match_the_oracles():
    rng = np.random.default_rng(72)
    cosets = ["e", "b", "aB", "bab", "BAbAB", "b" * 34]
    for window in (0, 2, 7):
        data = {
            "alphabet": "U2",
            "cosets": cosets,
            "window": window,
            "values": [[int(v) for v in rng.integers(0, 2, 2 * window + 1)] for _ in cosets],
        }
        x = from_coset_config(CosetConfiguration.from_json(data))
        slots = [gen_power(Word.parse(c), GEN_A, j) for c in cosets for j in range(-window, window + 1)]
        assert_tables_match(x.sites, slots)


def test_dependency_sites_match_the_oracles():
    for out in (ball_direct(0), ball_direct(2), [Word.parse(t) for t in ("bA", "AAAA", "Bab")]):
        for budget in (0, 1, 3, 6, 30):
            got = star(0.25).dependency_sites(SiteSet(out), budget)
            assert list(got) == star_dependency_direct(out, budget)
        assert list(ow().dependency_sites(SiteSet(out), 0)) == dependency_direct(out, ow().offsets)
        want = out
        for stage in reversed(timar(2).stages):
            want = dependency_direct(want, stage.offsets)
        assert list(timar(2).dependency_sites(SiteSet(out), 0)) == want


# -------------------------------------------------------------- protocol


def _word_sets():
    rng = np.random.default_rng(73)
    yield [Word.parse(t) for t in ("b", "e", "b", "a", "BAbaa")]
    yield [random_word(rng, 9) for _ in range(80)]
    yield [random_word(rng, 40) for _ in range(30)] + [Word()]


@pytest.mark.parametrize("words", list(_word_sets()))
def test_siteset_protocol_agrees_with_the_word_definition(words):
    want = shortlex_sorted(words)
    sites = SiteSet(words)
    # lazy views: single items decode before the whole list exists
    assert [sites[i] for i in range(len(want))] == want and sites[-1] == want[-1]
    assert sites.words == tuple(want) and list(sites) == want and len(sites) == len(want)
    assert sites[1:3] == tuple(want[1:3])
    for i, w in enumerate(want):
        assert w in sites and sites.position(w) == i
    for absent in (Word.parse("bbbbbbbbbbbb"), Word((GEN_B_INV,) * 45), mul(want[-1], Word.parse("bb"))):
        if absent not in set(want):
            assert absent not in sites and sites.position(absent) is None
    same = SiteSet(reversed(words))
    assert same == sites and hash(same) == hash(sites)
    assert SiteSet.from_codes(sites.codes[::-1].copy()) == sites
    assert SiteSet(want[1:]) != sites and sites != tuple(want)
    lookup = SiteSet(want[::2] + [Word.parse("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb")])
    rank = {w: i for i, w in enumerate(want)}
    assert sites.indices_of(lookup).tolist() == [rank.get(w, -1) for w in lookup]


def test_codes_are_the_shortlex_numerals_and_read_only():
    rng = np.random.default_rng(74)
    words = [random_word(rng, 35) for _ in range(200)]
    for w in words:
        # code(e) = 0 and code(w * s) = 4 * code(w) + s + 1
        assert w.code == (0 if not w.letters else 4 * Word(w.letters[:-1]).code + w.letters[-1] + 1)
    assert sorted(words, key=lambda w: w.code) == sorted(words, key=shortlex_key)
    for sites in (ball(4), SiteSet(words), SiteSet([])):
        assert np.all(sites.codes[1:] > sites.codes[:-1])
        assert code_lengths(sites.codes).tolist() == [len(w) for w in sites]
        with pytest.raises(ValueError):
            sites.codes[:1] = 0
    assert ball(3).codes.tolist() == [w.code for w in ball_direct(3)]


def test_equal_sets_are_equal_however_they_were_built():
    b = ball(2)
    for other in (
        SiteSet(ball_direct(2)),
        SiteSet.from_codes(np.array([w.code for w in reversed(ball_direct(2))])),
        SiteSet.from_codes(ball(3).codes[:17]),
        translated_sites(translated_sites(b, Word.parse("ab"))[0], Word.parse("BA"))[0],
    ):
        assert other == b and hash(other) == hash(b)


def test_times_matches_the_word_definition():
    b = ball(3)
    offsets = [Word.parse("e"), Word.parse("ab"), Word.parse("B")]
    assert list(b.times(offsets)) == shortlex_sorted(mul(g, w) for g in b for w in offsets)
    assert len(b.times([])) == 0


def _seam_pairs(rng, length, n):
    """Pairs (u, v) of words up to ``length`` letters, a third with v
    starting on u^-1 so that the seam cancels, some of it all the way."""
    pairs = []
    for i in range(n):
        u, v = random_word(rng, length), random_word(rng, length)
        if i % 3 == 0:
            v = mul(inv(u), v)
        elif i % 3 == 1:
            v = mul(inv(Word(u.letters[len(u) // 2 :])), v)
        pairs.append((u, v))
    return pairs


# 32 and 64 letters fill a 64- and a 128-bit mask width; 33 and 65 need the next
_ARITHMETIC_LENGTHS = [0, 1, 2, 6, 15, 16, 20, 31, 32, 33, 40, 64, 65]


@pytest.mark.parametrize("length", _ARITHMETIC_LENGTHS)
def test_code_products_and_inverses_match_word_arithmetic(length):
    rng = np.random.default_rng(length)
    pairs = _seam_pairs(rng, length, 150)
    us, vs = encode(u for u, _ in pairs), encode(v for _, v in pairs)
    products = mul_codes(us, vs)
    expected = encode(mul(u, v) for u, v in pairs)
    assert products.tolist() == expected.tolist()
    # int64 while the longest factors together fit it, as for every code array
    assert products.dtype == (np.int64 if _longest_letters(pairs) <= MAX_INT64_LETTERS else object)
    inverses = inv_codes(us)
    assert inverses.tolist() == encode(inv(u) for u, _ in pairs).tolist()
    assert inverses.dtype == us.dtype
    # a one-element side broadcasts against the other
    g = pairs[0][0]
    assert mul_codes(encode([g]), vs).tolist() == [mul(g, v).code for _, v in pairs]
    assert mul_codes(us, encode([g])).tolist() == [mul(u, g).code for u, _ in pairs]


def _longest_letters(pairs):
    return max(len(u) for u, _ in pairs) + max(len(v) for _, v in pairs)


@pytest.mark.parametrize("length", _ARITHMETIC_LENGTHS)
def test_a_stripping_matches_the_letter_oracle(length):
    rng = np.random.default_rng(length)
    words = [random_word(rng, length) for _ in range(150)]
    # words ending in a-runs of either sign, up to the whole word, and the identity
    words += [Word((s,) * k) for s in (GEN_A, GEN_A_INV) for k in range(length + 1)]
    words += [mul(w, Word((GEN_A_INV if k < 0 else GEN_A,) * abs(k))) for w in words[:40] for k in (-length, -1, 1, length)]
    codes = encode(words)
    reps, powers = strip_a_codes(codes)
    expected = [a_power_decomposition(w) for w in words]
    assert reps.tolist() == [rep.code for rep, _ in expected]
    assert powers.tolist() == [n for _, n in expected]
    assert reps.dtype == codes.dtype and powers.dtype == np.int64


def test_code_arithmetic_on_all_of_ball_3_matches_the_letter_oracles():
    sites = ball(3)
    products = mul_codes(sites.codes[:, None], sites.codes[None, :])
    assert products.tolist() == [[mul(u, v).code for v in sites] for u in sites]
    assert inv_codes(sites.codes).tolist() == [inv(u).code for u in sites]


def test_code_products_of_empty_arrays_are_empty():
    empty = encode([])
    assert mul_codes(empty, empty).tolist() == [] and inv_codes(empty).tolist() == []
    assert mul_codes(encode([Word.parse("ab")]), empty).tolist() == []


@pytest.mark.parametrize("max_len", [0, 1, 2, 6, 40])
def test_random_words_match_the_per_letter_draws(max_len):
    # the words and the state they leave the generator in agree: the next
    # uniform after the words agrees too
    for seed in range(40):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [random_word(fast, max_len) for _ in range(50)] == [random_word_direct(slow, max_len) for _ in range(50)]
        assert fast.random() == slow.random()


@pytest.mark.parametrize("max_len", [0, 1, 6, 31, 32])
def test_random_reduced_codes_are_reduced_words_up_to_max_len(max_len):
    codes = random_reduced_codes(np.random.default_rng(max_len), 3000, max_len)
    # the codes of 32-letter words pass int64, as in encode
    assert codes.dtype == (np.int64 if max_len <= MAX_INT64_LETTERS else object)
    words = decode(codes)
    assert len(words) == 3000
    assert all(len(w) <= max_len and Word(w.letters) == w for w in words)
    assert max(len(w) for w in words) == max_len


def test_random_reduced_codes_have_uniform_lengths_and_first_letters():
    n, max_len = 70_000, 6
    words = decode(random_reduced_codes(np.random.default_rng(5), n, max_len))
    lengths = np.bincount([len(w) for w in words], minlength=max_len + 1)
    assert np.all(np.abs(lengths - n / (max_len + 1)) < 0.05 * n / (max_len + 1))
    firsts = np.bincount([w.letters[0] for w in words if w.letters], minlength=4)
    assert np.all(np.abs(firsts - firsts.sum() / 4) < 0.05 * firsts.sum() / 4)


def test_random_reduced_codes_refuse_a_negative_max_len():
    with pytest.raises(ValueError, match="max_len must be at least 0"):
        random_reduced_codes(np.random.default_rng(0), 5, -1)


_LONG = Word.parse("ab" * 20)  # 40 letters: a Python int code past int64


def _values():
    """One of each immutable value class, on short and on long words."""
    x = sample(uniform(bit_alphabet(1)), ball(2), 4)
    holey = Configuration(x.alphabet, x.sites, [None, *x.values[1:]])
    long_sites = SiteSet([_LONG, Word.parse("b"), Word.parse("B" * 33)])
    return {
        "word": Word.parse("aBB"),
        "long_word": _LONG,
        "site_set": ball(2),
        "long_site_set": long_sites,
        "configuration": holey,
        "long_configuration": Configuration(x.alphabet, long_sites, [1, None, 0]),
        "coset_configuration": to_coset_config(holey, 2),
    }


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", list(_COPIES))
@pytest.mark.parametrize("kind", list(_values()))
def test_immutable_values_copy_and_pickle(kind, how):
    value, fmap = _values()[kind], ow()
    if isinstance(value, SiteSet):
        fmap.plan(value, value)  # a cached plan is not copied
    got = _COPIES[how](value)
    assert type(got) is type(value) and got == value and hash(got) == hash(value)
    assert str(got) == str(value) if isinstance(value, Word) else repr(got) == repr(value)
    if isinstance(value, SiteSet):
        assert got.codes.dtype == value.codes.dtype and not got.codes.flags.writeable
        assert len(got._plans) == 0 and len(value._plans) == 1
        assert list(got) == list(value)
    if isinstance(value, (Configuration, CosetConfiguration)):
        assert got.values == value.values and got.alphabet == value.alphabet
    with pytest.raises(AttributeError, match="immutable"):
        got.code = 0


@pytest.mark.parametrize("how", list(_COPIES))
def test_a_copied_or_pickled_block_code_maps_equal(how):
    fmap = ow()
    got = _COPIES[how](fmap)
    assert got.offsets == fmap.offsets and got.offsets[1].code == fmap.offsets[1].code
    x = sample(uniform(bit_alphabet(1)), ball(3), 8)
    assert got.apply(x) == fmap.apply(x)
