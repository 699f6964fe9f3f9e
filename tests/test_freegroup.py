import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernshift import (
    IDENTITY,
    RadiusTooLarge,
    SiteSet,
    Word,
    ball,
    coset_of,
    gen_power,
    inv,
    mul,
    star,
)
from bernshift.freegroup import GEN_A, GEN_A_INV, GEN_B, GEN_B_INV, MAX_INT64_LETTERS, encode

import oracles
from oracles import a_power_decomposition, expand_walk, naive_reduce, random_word, random_word_direct, reduce_word, shortlex_key

letter_lists = st.lists(st.integers(min_value=0, max_value=3), max_size=14)
words = letter_lists.map(Word)


@pytest.mark.parametrize(
    "letters,expected",
    [
        ([GEN_A, GEN_A_INV], "e"),
        ([GEN_A, GEN_B, GEN_B_INV, GEN_A], "aa"),
        ([GEN_A, GEN_B_INV, GEN_B, GEN_B, GEN_A_INV, GEN_A], "ab"),
    ],
)
def test_reduce_examples(letters, expected):
    assert str(Word(letters)) == expected
    # the naive rescanning oracle agrees
    assert Word(letters).letters == naive_reduce(letters)


@given(letter_lists)
def test_reduce_matches_naive_oracle(letters):
    assert Word(letters).letters == naive_reduce(letters)


@given(letter_lists)
def test_reduce_idempotent(letters):
    w = Word(letters)
    assert Word(w.letters) == w


def test_mul_examples():
    a, ab, Ba = Word.parse("a"), Word.parse("ab"), Word.parse("Ba")
    assert mul(a, inv(a)) == IDENTITY
    assert str(mul(ab, Ba)) == "aa"


@given(words)
def test_identity_laws(g):
    assert mul(IDENTITY, g) == g
    assert mul(g, IDENTITY) == g
    assert mul(g, inv(g)) == IDENTITY
    assert inv(inv(g)) == g


@given(words, words)
def test_mul_matches_concatenation_reduction(g1, g2):
    assert mul(g1, g2).letters == naive_reduce(g1.letters + g2.letters)


def test_associativity_on_samples():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        g1, g2, g3 = (random_word(rng, 8) for _ in range(3))
        assert mul(mul(g1, g2), g3) == mul(g1, mul(g2, g3))


def test_inverse_reversal_rule():
    assert str(inv(Word.parse("ab"))) == "BA"
    assert inv(IDENTITY) == IDENTITY


def test_gen_power():
    assert str(gen_power(IDENTITY, GEN_A, 3)) == "aaa"
    assert gen_power(Word.parse("A"), GEN_A, 1) == IDENTITY
    assert str(gen_power(Word.parse("bA"), GEN_A, 2)) == "ba"
    assert str(gen_power(Word.parse("b"), GEN_A, -2)) == "bAA"
    assert gen_power(Word.parse("ba"), GEN_A, -1) == Word.parse("b")


@pytest.mark.parametrize("r,size", [(0, 1), (1, 5), (2, 17), (3, 53), (4, 161), (5, 485)])
def test_ball_sizes(r, size):
    assert len(ball(r)) == size
    assert size == 2 * 3**r - 1


def test_ball_contents_and_order():
    b1 = ball(1)
    assert [str(w) for w in b1] == ["e", "a", "A", "b", "B"]
    b3 = ball(3)
    keys = [shortlex_key(w) for w in b3]
    assert keys == sorted(keys)
    assert len(set(b3.words)) == len(b3)


def test_ball_deterministic_across_runs():
    assert [str(w) for w in ball(3)] == [str(w) for w in ball(3)]


def test_ball_set_inclusion():
    small, large = set(ball(2).words), set(ball(3).words)
    assert small < large


def test_radius_cap():
    with pytest.raises(RadiusTooLarge):
        ball(13)


def test_parse_and_str_roundtrip():
    for text in ("e", "a", "A", "abA", "BaBa", "aaaB"):
        assert str(Word.parse(text)) == text
    assert Word.parse("aA") == IDENTITY
    with pytest.raises(ValueError):
        Word.parse("xyz")


def test_word_is_immutable_and_hashable():
    w = Word.parse("ab")
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, Word.parse("ab"), Word.parse("ba")}) == 2


@pytest.mark.parametrize("make", [Word, lambda t: mul(Word(t), IDENTITY)])
def test_every_word_constructor_sets_both_slots_and_stays_immutable(make):
    # a Word holds its code, ((0 + 1) * 4 + 3 + 1) * 4 + 1 + 1, and nothing else
    assert Word.__slots__ == ("code",)
    w = make((0, 3, 1))
    assert w.letters == (0, 3, 1) and w.code == 34 and hash(w) == hash(34)
    for name, value in (("letters", ()), ("code", 0), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    assert w.letters == (0, 3, 1) and w.code == 34 and hash(w) == hash(34)


def test_code_level_words_match_the_letter_oracles():
    # words of 0-45 letters cross the MAX_INT64_LETTERS = 31 that an int64
    # code holds, so the boundary calls run on int64 and on object arrays
    rng = np.random.default_rng(19)
    lengths = set()
    for _ in range(1500):
        g, h = random_word_direct(rng, 45), random_word_direct(rng, 45)
        lengths.add(len(g.letters))
        assert mul(g, h).letters == oracles.mul(g, h).letters
        assert inv(g).letters == oracles.inv(g).letters
        letter, k = int(rng.integers(4)), int(rng.integers(-12, 13))
        assert gen_power(g, letter, k).letters == oracles.gen_power(g, letter, k).letters
        assert coset_of(g).letters == oracles.coset_of(g).letters
        assert len(g) == len(g.letters) and g.is_identity == (not g.letters)
        assert str(g) == ("".join("aAbB"[s] for s in g.letters) or "e") and Word.parse(str(g)) == g
        assert (g < h) == (shortlex_key(g) < shortlex_key(h))
        assert (g == h) == (g.letters == h.letters)
        same = Word(g.letters)
        assert same == g and hash(same) == hash(g) == hash(g.code) and not same < g
    assert min(lengths) == 0 and max(lengths) == 45 and MAX_INT64_LETTERS in lengths


def test_siteset_indexing_reads_one_code_without_decoding_the_set():
    long = Word((GEN_B_INV,) * 40)
    for sites in (ball(3), SiteSet.from_codes(encode([long, Word.parse("bAb"), IDENTITY]))):
        picked = [sites[i] for i in range(len(sites))] + [sites[-1]]
        assert sites._words is None  # indexing decoded nothing
        assert all(type(w.code) is int for w in picked)
        assert picked[:-1] == list(sites.words) and picked[-1] == sites.words[-1]
    assert [str(w) for w in picked] == ["e", "bAb", str(long), str(long)]


def test_siteset_canonicalizes():
    sset = SiteSet([Word.parse("b"), IDENTITY, Word.parse("b"), Word.parse("a")])
    assert [str(w) for w in sset] == ["e", "a", "b"]
    assert sset.position(Word.parse("b")) == 2
    assert sset.position(Word.parse("B")) is None


def test_neighbor_indices():
    b1 = ball(1)
    nb = b1.neighbor_indices(Word.parse("a"))
    # e*a = a, a*a = aa (absent), A*a = e, b*a = ba (absent), B*a = Ba (absent)
    assert nb.tolist() == [1, -1, 0, -1, -1]


def test_ray_indices_follow_membership_not_length():
    # bA * a = b: the ray re-enters shorter words before leaving the ball.
    sites = ball(2)
    idx, lengths = expand_walk(sites.ray_indices(GEN_A))
    i = sites.position(Word.parse("bA"))
    ray = [str(sites[j]) for j in idx[i] if j >= 0]
    assert ray[:2] == ["b", "ba"]
    assert lengths[i] == 2


def test_cached_site_tables_are_read_only():
    sites = ball(2)
    first, walk = sites.ray_indices(GEN_B)
    table = sites.coset_table()
    for arr in (sites.neighbor_indices(Word.parse("ab")), first, walk, table.coset, table.power):
        with pytest.raises(ValueError):
            arr[0] = 7
    assert sites.neighbor_indices(Word.parse("ab")) is sites.neighbor_indices(Word.parse("ab"))


def test_ray_tables_are_cached_per_letter_and_window():
    # a Monte Carlo run reads the rays of one output window in every chunk;
    # the walk is the set's own, one per letter, whatever the window
    sites, out = ball(4), ball(1)
    first, walk = sites.ray_indices(GEN_A, out)
    again = sites.ray_indices(GEN_A, SiteSet(out.words))  # an equal window hits
    assert again[0] is first and again[1] is walk
    other = sites.ray_indices(GEN_B, out)
    assert other[0] is not first and other[1] is not walk
    with pytest.raises(ValueError):
        first[0] = 7
    own = sites.ray_indices(GEN_A)
    assert own[1] is walk and own[0] is not first
    for same in (sites, SiteSet(sites.words)):
        assert sites.ray_indices(GEN_A, same)[0] is own[0] and sites.ray_indices(GEN_A, same)[1] is walk


def test_a_fresh_window_builds_no_ray_data_beyond_its_neighbour_tables():
    # a star plan reads each ray's first site from the neighbour table of its
    # letter and walks the window's own table: the only ray data is that
    # table once more per letter, with its trailing -1
    sites, out = ball(5), ball(2)
    star(0.25).apply_batch(np.full((len(sites), 3), 2, dtype=np.int8), sites, out)
    assert sorted(sites._rays) == [GEN_A, GEN_B]
    for letter in (GEN_A, GEN_B):
        walk = sites._rays[letter]
        own = sites.neighbor_indices(Word((letter,)))
        assert walk.shape == (len(sites) + 1,) and walk[:-1].tolist() == own.tolist() and walk[-1] == -1
        assert sites.ray_indices(letter, out)[0] is sites.neighbor_indices(Word((letter,)), out)
    assert sum(walk.nbytes for walk in sites._rays.values()) == 2 * 8 * (len(sites) + 1)


@pytest.mark.parametrize(
    "sites",
    [
        ball(0),
        ball(3),
        SiteSet([]),
        # the coset of b first appears at ba, after the coset of bb appears
        SiteSet(Word.parse(t) for t in ("bAA", "bb", "ba", "Ba", "BAbaa", "aa", "A")),
        SiteSet(random_word(np.random.default_rng(8), 9) for _ in range(60)),
    ],
)
def test_coset_table_decomposes_every_site(sites):
    table = sites.coset_table()
    assert table.reps.words == tuple(sorted(set(table.reps), key=shortlex_key))
    assert all(not c.letters or c.letters[-1] not in (GEN_A, GEN_A_INV) for c in table.reps)
    assert sorted(set(table.coset.tolist())) == list(range(len(table.reps)))
    for i, w in enumerate(sites):
        assert a_power_decomposition(w) == (table.reps[table.coset[i]], int(table.power[i]))
    assert sites.coset_table() is table


def test_random_word_is_reduced():
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = random_word(rng, 10)
        assert reduce_word(w.letters) == w
