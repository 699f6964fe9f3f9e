import json
from fractions import Fraction

import numpy as np
import pytest

from bernshift import (
    Configuration,
    Distribution,
    EnumerationTooLarge,
    IDENTITY,
    Word,
    alphabet_by_name,
    ball,
    bit_alphabet,
    restrict,
    sample,
    star_alphabet,
    star_base,
    star_image,
    translate,
    uniform,
)
from bernshift import config
from bernshift.config import SAMPLE_BLOCK_BYTES, dyadic_table, index_matrix, pair_table, sample_matrix, symbol_dtype
from bernshift.entropy import solve_p

from oracles import (
    config_from_index,
    enumerate_configurations,
    mul,
    plain_alphabet,
    point_mass,
    random_word,
    translate_direct,
)

U2 = bit_alphabet(1)


def _random_config(rng, alphabet, sites, partial=False):
    vals = [int(v) for v in rng.integers(0, alphabet.size, len(sites))]
    if partial:
        for i in range(len(vals)):
            if rng.random() < 0.2:
                vals[i] = None
    return Configuration(alphabet, sites, vals)


# ---------------------------------------------------------------- alphabets


def test_alphabet_validation():
    with pytest.raises(ValueError):
        plain_alphabet("bad", ["x", "x"])
    assert bit_alphabet(2).size == 4
    assert star_alphabet(2).size == 5
    assert star_alphabet(1).star_index == 2


def test_alphabet_by_name():
    assert alphabet_by_name("U4") == bit_alphabet(2)
    assert alphabet_by_name("U2*") == star_alphabet(1)
    with pytest.raises(ValueError):
        alphabet_by_name("U3")


# ------------------------------------------------------------ distributions


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(U2, (0.7, 0.7))
    with pytest.raises(ValueError):
        Distribution(U2, (Fraction(1, 3), Fraction(1, 3)))
    # nan passes both w < 0 and |sum - 1| > 1e-12 as False
    with pytest.raises(ValueError, match="nonnegative"):
        Distribution(star_alphabet(1), (float("nan"), 0.5, 0.5))
    d = uniform(bit_alphabet(2))
    assert d.is_exact


def test_star_distributions():
    lam = star_base(0.25)
    assert lam.float_weights() == (0.25, 0.25, 0.5)
    mu = star_image(0.25)
    assert mu.float_weights() == (0.125, 0.125, 0.125, 0.125, 0.5)
    with pytest.raises(ValueError):
        star_base(0.6)


# ------------------------------------------------------------ translation


def test_translate_identity():
    x = _random_config(np.random.default_rng(0), U2, ball(2))
    assert translate(IDENTITY, x) == x


def test_translate_impulse_example():
    b1 = ball(1)
    x = Configuration(U2, b1, [1 if w.is_identity else 0 for w in b1])
    tx = translate(Word.parse("a"), x)
    assert tx.value_at(Word.parse("a")) == 1
    assert tx.value_at(IDENTITY) == 0  # (a.x)(e) = x(a^-1) = 0


def test_translate_action_law_and_pointwise_oracle():
    rng = np.random.default_rng(42)
    sites = ball(2)
    for _ in range(500):
        g1, g2 = random_word(rng, 4), random_word(rng, 4)
        x = _random_config(rng, U2, sites, partial=True)
        lhs = translate(g1, translate(g2, x))
        rhs = translate(mul(g1, g2), x)
        assert lhs == rhs
        for w in lhs.sites:
            assert lhs.value_at(w) == translate_direct(mul(g1, g2), x, w)


def test_translate_preserves_undefined():
    b1 = ball(1)
    x = Configuration(U2, b1, [None, 1, 0, None, 1])
    tx = translate(Word.parse("b"), x)
    assert tx.defined_count == x.defined_count


# ---------------------------------------------------------------- sampling


def test_sample_point_mass_and_determinism():
    sites = ball(2)
    const = sample(point_mass(U2, 1), sites, 99)
    assert all(v == 1 for v in const.values)
    assert sample(uniform(U2), sites, 123) == sample(uniform(U2), sites, 123)
    assert sample(uniform(U2), sites, 123) != sample(uniform(U2), sites, 124)


def test_sample_single_site_frequencies():
    # 10^6 fair-bit draws; 4 sigma = 4 * 0.5 / 1000 = 0.002
    rng = np.random.default_rng(314)
    draws = sample_matrix(uniform(U2), 1, 10**6, rng)
    freq = draws.mean()
    assert abs(freq - 0.5) < 0.002


def test_sample_respects_weights():
    rng = np.random.default_rng(7)
    draws = sample_matrix(star_base(0.25), 1, 200_000, rng)
    counts = np.bincount(draws.ravel(), minlength=3) / 200_000
    assert abs(counts[2] - 0.5) < 0.005


def _searchsorted_reference(dist, n_sites, n_draws, rng):
    cdf = np.cumsum(np.asarray(dist.float_weights(), dtype=np.float64))
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random((n_sites, n_draws)), side="right")


def _plain_law(weights):
    w = np.asarray(weights, dtype=np.float64)
    alpha = plain_alphabet(f"P{len(w)}", (str(i) for i in range(len(w))))
    return Distribution(alpha, tuple(float(x) for x in w / w.sum()))


_LAWS = {
    "U2": uniform(U2),
    "star3": star_base(0.25),
    "U8": uniform(bit_alphabet(3)),
    "U128": uniform(bit_alphabet(7)),
    "U256": uniform(bit_alphabet(8)),
    "skew5": _plain_law([0.2, 0.0, 0.3, 0.0, 0.5]),
    "p128": _plain_law(np.arange(1, 129)),
    "p129": _plain_law(np.arange(1, 130)),
    "star_third": star_base(1 / 3),
    "star_solved": star_base(solve_p(0.6)),
    "star_512": star_base(Fraction(1, 512)),
    # dyadic weights that sum to 1 only within the float tolerance
    "near_dyadic": Distribution(plain_alphabet("P2", "01"), (0.5, 0.5 + 2.0**-44)),
}
# the dyadic laws' (d, c): weights k_i / 2^d, and c cells per random byte;
# star3's weights are the floats 0.25, 0.25 and 0.5; U128's cells are int8
# and U256's int64, so their pair words are 2 and 16 bytes wide
_BYTE_LAWS = {"U2": (1, 8), "star3": (2, 4), "U8": (3, 2), "U128": (7, 1), "U256": (8, 1)}


def _byte_cells(dist, d, c, raw):
    """The cells that the bytes ``raw`` give: cell t*c + l from lane l
    (bits [l*8/c, (l+1)*8/c)) of byte t, whose top d bits are inverted
    against the integer cumulative weights."""
    bits = 8 // c
    lanes = (raw.astype(np.int64)[:, None] >> (bits * np.arange(c))) & ((1 << bits) - 1)
    cum = np.cumsum([int(Fraction(w) * 2**d) for w in dist.weights])
    return np.searchsorted(cum, lanes >> (bits - d), side="right").ravel()


def _assert_one_byte_stream(got, dist, d, c, rng):
    """``got`` is the matrix whose flat site-major cells one ``rng.bytes``
    call gives, compared 2^17 bytes at a time to keep the reference small."""
    flat = got.ravel()
    raw = np.frombuffer(rng.bytes(-(-len(flat) // c)), dtype=np.uint8)
    for lo in range(0, len(raw), 2**17):
        want = _byte_cells(dist, d, c, raw[lo : lo + 2**17])[: len(flat) - lo * c]
        np.testing.assert_array_equal(flat[lo * c : lo * c + len(want)], want)


@pytest.mark.parametrize("law", ["skew5", "p128", "p129", "star_third", "star_solved", "star_512", "near_dyadic"])
def test_sample_matrix_matches_searchsorted(law):
    dist = _LAWS[law]
    assert dyadic_table(dist.weights) is None
    got = sample_matrix(dist, 37, 2000, np.random.default_rng(21))
    want = _searchsorted_reference(dist, 37, 2000, np.random.default_rng(21))
    assert got.dtype == (np.int8 if dist.alphabet.size <= 128 else np.int64)
    np.testing.assert_array_equal(got, want)


def _byte_stream_shapes():
    """Per dyadic law: 37 x 2001, shapes whose cell count leaves a last
    partial pair of 1 <= rest < c cells and of c <= rest < 2c cells (37
    sites, and a lone partial pair), and the Monte Carlo chunk shapes."""
    for law, (d, c) in _BYTE_LAWS.items():
        shapes = [(37, 2001)]
        for rest in sorted({1, c, 2 * c - 1}):
            shapes += [(37, next(n for n in range(2001, 2001 + 2 * c) if 37 * n % (2 * c) == rest)), (1, rest)]
        shapes += [(61, 65536), (179, 65536), (61, 16960), (47, 3392)]
        for n_sites, n_draws in dict.fromkeys(shapes):
            yield pytest.param(law, n_sites, n_draws, id=f"{law}-{n_sites}x{n_draws}")


@pytest.mark.parametrize("law, n_sites, n_draws", list(_byte_stream_shapes()))
def test_sample_matrix_matches_one_byte_stream(law, n_sites, n_draws):
    dist, (d, c) = _LAWS[law], _BYTE_LAWS[law]
    got = sample_matrix(dist, n_sites, n_draws, np.random.default_rng(21))
    assert got.shape == (n_sites, n_draws) and got.dtype == symbol_dtype(dist.alphabet.size)
    _assert_one_byte_stream(got, dist, d, c, np.random.default_rng(21))


@pytest.mark.parametrize("law", list(_BYTE_LAWS))
def test_sample_matrix_reads_the_next_64_bit_words_of_a_used_generator(law):
    # after a lone 32-bit draw, rng.bytes would first spend the buffered
    # high half word; the sampler reads whole words, and exactly as many
    # as its cells need
    dist, (d, c) = _LAWS[law], _BYTE_LAWS[law]
    rngs = [np.random.default_rng(24) for _ in range(3)]
    for rng in rngs:
        rng.integers(0, 2**32, size=1, dtype=np.uint32)
    n_cells = 37 * 2001
    got = sample_matrix(dist, 37, 2001, rngs[0])
    words = rngs[1].integers(0, 2**64, size=-(-n_cells // (8 * c)), dtype=np.uint64)
    want = _byte_cells(dist, d, c, words.astype("<u8").view(np.uint8))[:n_cells]
    np.testing.assert_array_equal(got.ravel(), want)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    buffered = _byte_cells(dist, d, c, np.frombuffer(rngs[2].bytes(-(-n_cells // c)), dtype=np.uint8))
    assert not np.array_equal(got.ravel(), buffered[:n_cells])


def test_sample_matrix_row_blocks_continue_one_stream():
    # two full blocks of cells and a partial third one, on the float path
    n_sites = 37
    block = SAMPLE_BLOCK_BYTES // 8
    n_draws = (2 * block + block // 3) // n_sites
    dist = _LAWS["star_third"]
    got = sample_matrix(dist, n_sites, n_draws, np.random.default_rng(22))
    want = _searchsorted_reference(dist, n_sites, n_draws, np.random.default_rng(22))
    assert 2 * block < n_sites * n_draws < 3 * block
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("block_bytes", [SAMPLE_BLOCK_BYTES, 1, 100])
def test_sample_matrix_byte_blocks_continue_one_stream(monkeypatch, block_bytes):
    # two full blocks of 64-bit words, a partial third one (unless a block
    # is one word) and a last word whose partial pair has c <= rest < 2c
    # cells; a block holds the words whose four byte pairs each fill
    # SAMPLE_BLOCK_BYTES of intp indices, and at least one word
    monkeypatch.setattr(config, "SAMPLE_BLOCK_BYTES", block_bytes)
    block = max(1, block_bytes // 8 // 4)
    (d, c), dist = _BYTE_LAWS["star3"], _LAWS["star3"]
    n_words = 2 * block + (block + 1) // 2
    n_cells = n_words * 8 * c - 4 * c - 1
    got = sample_matrix(dist, 1, n_cells, np.random.default_rng(23))
    assert -(-n_cells // (8 * c)) == n_words > 2 * block and (n_words % block or block == 1)
    assert c <= n_cells % (2 * c) < 2 * c
    _assert_one_byte_stream(got, dist, d, c, np.random.default_rng(23))


@pytest.mark.parametrize("law", ["U2", "star3", "U8", "U256"])
def test_pair_table_reads_two_bytes_through_the_byte_table(law):
    dist, (d, c) = _LAWS[law], _BYTE_LAWS[law]
    table, pairs = dyadic_table(dist.weights), pair_table(dist.weights)
    width = 2 * c * table.itemsize
    assert pairs.shape == (65536,) and pairs.dtype == np.dtype(f"u{width}" if width <= 8 else f"V{width}")
    assert not pairs.flags.writeable
    cells = pairs.view(table.dtype).reshape(65536, 2 * c)
    b = np.arange(65536)
    np.testing.assert_array_equal(cells, np.concatenate([table[b & 255], table[b >> 8]], axis=1))
    owned = [int(Fraction(w) * 2**d) * 2 ** (16 - d) for w in dist.weights]
    for lane in cells.T:
        assert np.bincount(lane, minlength=dist.alphabet.size).tolist() == owned


def test_pair_table_is_one_per_law():
    assert pair_table(star_base(0.25).weights) is pair_table(star_base(Fraction(1, 4)).weights)
    assert pair_table(star_base(0.25).weights) is not pair_table(star_base(Fraction(1, 8)).weights)


@pytest.mark.parametrize(
    "dist, d, c",
    [
        (point_mass(U2, 1), 0, 8),
        (star_base(Fraction(1, 2)), 1, 8),
        (uniform(U2), 1, 8),
        (star_base(Fraction(1, 4)), 2, 4),
        (uniform(bit_alphabet(3)), 3, 2),
        (uniform(bit_alphabet(8)), 8, 1),
    ],
    ids=["point_mass", "star_half", "U2", "star_quarter", "U8", "U256"],
)
def test_dyadic_byte_table_gives_every_symbol_its_exact_share(dist, d, c):
    table = dyadic_table(dist.weights)
    assert table.shape == (256, c)
    assert table.dtype == (np.int8 if dist.alphabet.size <= 128 else np.int64)
    owned = [int(Fraction(w) * 2**d) * 2 ** (8 - d) for w in dist.weights]
    for lane in table.T:
        assert np.bincount(lane, minlength=dist.alphabet.size).tolist() == owned
    draws = sample_matrix(dist, 3, 5, np.random.default_rng(0))
    assert draws.dtype == table.dtype and set(draws.ravel().tolist()) <= set(np.flatnonzero(owned).tolist())


class _FixedUniforms:
    """Stands in for a generator: returns the given draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shape=None, out=None):
        if out is None:
            return self.u.reshape(shape)
        out[...] = self.u.reshape(out.shape)
        return out


def test_sample_matrix_draws_on_a_cdf_step_take_the_upper_symbol():
    dist = _LAWS["skew5"]
    cdf = np.cumsum(dist.float_weights())
    u = [0.0, cdf[0], np.nextafter(cdf[0], 0), cdf[2], np.nextafter(cdf[2], 0), np.nextafter(1.0, 0)]
    got = sample_matrix(dist, len(u), 1, _FixedUniforms(u))
    want = _searchsorted_reference(dist, len(u), 1, _FixedUniforms(u))
    np.testing.assert_array_equal(got, want)
    assert got[:, 0].tolist() == [0, 2, 0, 4, 2, 4]


# ------------------------------------------------------------- enumeration


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_configurations(U2, ball(1))) == 32
    assert sum(1 for _ in enumerate_configurations(U2, ball(2))) == 131072


def test_enumeration_order_convention():
    sites = ball(1)
    stream = enumerate_configurations(U2, sites)
    first = next(stream)
    assert all(v == 0 for v in first.values)
    second = next(stream)
    assert second.values == (1, 0, 0, 0, 0)
    # configuration i assigns site j the symbol (i // size^j) % size
    for i in (0, 1, 5, 31):
        assert config_from_index(U2, sites, i).values == tuple((i >> j) & 1 for j in range(5))


def test_enumeration_matches_index_matrix():
    sites = ball(1)
    mat = index_matrix(2, len(sites), 0, 32).T  # (inputs, sites)
    for i, cfg in enumerate(enumerate_configurations(U2, sites)):
        assert tuple(mat[i]) == cfg.values


@pytest.mark.parametrize("n_sites", [1, 8, 9, 17, 24])
def test_binary_index_matrix_matches_the_shifted_digits(n_sites):
    # lo > 0 and a row count that is not a multiple of 8, so the byte view
    # of the inputs starts inside a digit pattern and ends on a partial byte
    lo, hi = 3 * 2**17 + 5, 3 * 2**17 + 5 + 1003
    idx = np.arange(lo, hi, dtype=np.int64)
    want = np.stack([(idx >> j) & 1 for j in range(n_sites)])
    got = index_matrix(2, n_sites, lo, hi)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, want)


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        next(enumerate_configurations(bit_alphabet(2), ball(2)))


def test_enumeration_uniform_marginals():
    # integer counting: every site marginal is exactly uniform
    counts = np.zeros(5, dtype=int)
    for cfg in enumerate_configurations(U2, ball(1)):
        counts += np.asarray(cfg.values)
    assert (counts == 16).all()


# -------------------------------------------------------------- restriction


def test_restrict():
    rng = np.random.default_rng(3)
    x = _random_config(rng, U2, ball(2))
    assert restrict(x, x.sites) == x
    tiny = restrict(x, ball(0))
    assert len(tiny.sites) == 1 and tiny.value_at(IDENTITY) == x.value_at(IDENTITY)
    mid = restrict(x, ball(1))
    assert restrict(mid, ball(0)) == restrict(x, ball(0))
    # sites outside become undefined
    wide = restrict(tiny, ball(1))
    assert wide.defined_count == 1


# --------------------------------------------------------------------- JSON


def test_config_json_roundtrip_and_packing():
    # no packed form: its one int of a bit per site was more than json.dumps
    # writes past about 14,300 sites, and nothing read it
    x = sample(uniform(U2), ball(1), 5)
    data = x.to_json()
    assert set(data) == {"alphabet", "sites", "values"}
    assert Configuration.from_json(data) == x
    # partial configurations carry null
    y = Configuration(U2, ball(1), [None, 1, 0, 1, 1])
    data = y.to_json()
    assert data["values"][0] is None and set(data) == {"alphabet", "sites", "values"}
    assert Configuration.from_json(data) == y


def test_a_total_binary_configuration_past_14300_sites_is_written_as_json():
    # ball(9) is 39,365 sites; its packed form used to exceed Python's 4300-digit int-to-str limit
    x = sample(uniform(U2), ball(9), 1)
    assert Configuration.from_json(json.loads(json.dumps(x.to_json()))) == x


def test_config_json_reads_sites_in_any_order():
    x = Configuration.from_json({"alphabet": "U2", "sites": ["b", "e", "aa", "A"], "values": [1, 0, None, 1]})
    assert [str(w) for w in x.sites] == ["e", "A", "b", "aa"] and x.values == (0, 1, 1, None)


@pytest.mark.parametrize("values", [[0, 1, 1], [0], [], 5, None, [1.5, 0], [True, 0], [0, "1"], [10**30, 0]])
def test_config_json_needs_one_int_or_null_per_site(values):
    # too many or too few values used to be cut off or padded with null,
    # 1.5 or true read as 1, and an index past int64 overflowed
    with pytest.raises(ValueError):
        Configuration.from_json({"alphabet": "U2", "sites": ["e", "a"], "values": values})


@pytest.mark.parametrize("field, value", [("alphabet", 5), ("sites", 5), ("sites", [5]), ("values", {"e": 1})])
def test_config_json_of_the_wrong_type_is_a_value_error(field, value):
    data = {"alphabet": "U2", "sites": ["e", "a"], "values": [0, 1], field: value}
    with pytest.raises(ValueError):
        Configuration.from_json(data)
    with pytest.raises(ValueError):
        Configuration.from_json([data])


def test_config_validation():
    with pytest.raises(ValueError):
        Configuration(U2, ball(1), [0, 1])
    with pytest.raises(ValueError):
        Configuration(U2, ball(0), [3])


def test_index_array_form_equals_the_values_form():
    values = [None, 1, 0, None, 1]
    for form in (np.array([-1, 1, 0, -1, 1]), np.array([-1, 1, 0, -1, 1], dtype=np.int8),
                 np.array(values, dtype=object)):
        x = Configuration(U2, ball(1), form)
        assert x == Configuration(U2, ball(1), values) and x.values == tuple(values)
        assert hash(x) == hash(Configuration(U2, ball(1), values))
    x = Configuration(U2, ball(1), values)
    assert x.indices.tolist() == [-1, 1, 0, -1, 1] and x.defined_count == 3 and not x.is_total
    with pytest.raises(ValueError):
        x.indices[0] = 1  # read-only
    # -1 means undefined only in the index form
    for bad in ([-1, 1, 0, 1, 1], np.array([-2, 1, 0, 1, 1]), np.array([0, 1, 2, 1, 1])):
        with pytest.raises(ValueError, match="out of range"):
            Configuration(U2, ball(1), bad)
    with pytest.raises(ValueError):
        Configuration(U2, ball(1), np.zeros((1, 5), dtype=np.int64))
