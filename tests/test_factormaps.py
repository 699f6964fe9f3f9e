import numpy as np
import pytest

from bernshift import (
    AlphabetMismatch,
    BlockMap,
    ComposedMap,
    Configuration,
    IDENTITY,
    InsufficientRadius,
    SiteSet,
    Word,
    ball,
    bit_alphabet,
    identity_map,
    ow,
    parse_map_spec,
    plane_projection,
    relabel,
    sample,
    star,
    star_alphabet,
    star_base,
    swap_bits,
    timar,
    timar_stage,
    uniform,
)
from bernshift import factormaps
from bernshift.freegroup import GEN_A, GEN_B, translated_sites

from oracles import (
    compose,
    compose_stagewise,
    enumerate_configurations,
    expand_walk,
    first_bits_direct,
    mul,
    ow_direct,
    plan_units,
    read_cone,
    relabel_inverse,
    star_direct,
    timar_bits,
)

U2 = bit_alphabet(1)
STAR1 = star_alphabet(1)


def _random_config(rng, alphabet, sites, hole_rate=0.0):
    vals = [int(v) for v in rng.integers(0, alphabet.size, len(sites))]
    if hole_rate:
        for i in range(len(vals)):
            if rng.random() < hole_rate:
                vals[i] = None
    return Configuration(alphabet, sites, vals)


# ------------------------------------------------------------ doubling map


def test_ow_zero_configuration():
    x = Configuration(U2, ball(2), [0] * 17)
    y = ow().apply(x)
    assert y.alphabet.name == "U4"
    assert all(v in (0, None) for v in y.values)
    assert y.defined_count == 5  # ball(1) survives the window cost


def test_ow_single_site_example():
    b1 = ball(1)
    table = {"e": 1, "a": 0, "b": 1}
    x = Configuration(U2, b1, [table.get(str(w), 0) for w in b1])
    y = ow().apply(x)
    # (x(e)+x(a), x(e)+x(b)) = (1, 0): symbol index 1, label "10"
    assert y.value_at(IDENTITY) == 1
    assert y.alphabet.symbols[1] == "10"


def test_ow_matches_direct_formula():
    rng = np.random.default_rng(1)
    sites = ball(3)
    for _ in range(200):
        x = _random_config(rng, U2, sites, hole_rate=0.1)
        y = ow().apply(x)
        for w in sites:
            assert y.value_at(w) == ow_direct(x, w)


def test_ow_additivity_on_window():
    rng = np.random.default_rng(2)
    sites = ball(2)
    m = ow()
    for _ in range(100):
        x = _random_config(rng, U2, sites)
        y = _random_config(rng, U2, sites)
        xy = Configuration(U2, sites, [a ^ b for a, b in zip(x.values, y.values)])
        lhs = m.apply(xy)
        fx, fy = m.apply(x), m.apply(y)
        for i, w in enumerate(sites):
            if lhs.values[i] is None:
                continue
            assert lhs.values[i] == fx.values[i] ^ fy.values[i]


def test_ow_rejects_wrong_alphabet():
    x = Configuration(bit_alphabet(2), ball(1), [0] * 5)
    with pytest.raises(AlphabetMismatch):
        ow().apply(x)


def test_ow_pushforward_is_uniform():
    out = ow().pushforward(uniform(U2))
    assert out.float_weights() == (0.25, 0.25, 0.25, 0.25)


# ------------------------------------------------------- bit-plane expansion


def test_stage_zero_is_the_doubling_map():
    rng = np.random.default_rng(3)
    x = _random_config(rng, U2, ball(2))
    assert timar_stage(0).apply(x).values == ow().apply(x).values


def test_stage_copies_lower_planes():
    rng = np.random.default_rng(4)
    a3 = bit_alphabet(3)
    sites = ball(2)
    stage = timar_stage(2)
    for _ in range(500):
        x = _random_config(rng, a3, sites)
        y = stage.apply(x)
        for i, w in enumerate(sites):
            if y.values[i] is None:
                continue
            assert y.values[i] & 0b11 == x.values[i] & 0b11


def test_stage_expands_last_plane_by_doubling():
    rng = np.random.default_rng(5)
    a2 = bit_alphabet(2)
    sites = ball(2)
    stage = timar_stage(1)
    for _ in range(100):
        x = _random_config(rng, a2, sites)
        # plane 2 of the input, doubled, must appear as planes 2 and 3
        top = Configuration(U2, sites, [v >> 1 for v in x.values])
        doubled = ow().apply(top)
        y = stage.apply(x)
        for i in range(len(sites)):
            if y.values[i] is None:
                continue
            assert (y.values[i] >> 1) == doubled.values[i]


def test_timar_first_plane_is_first_doubling_bit():
    rng = np.random.default_rng(6)
    sites = ball(3)
    for _ in range(100):
        x = _random_config(rng, U2, sites)
        y1 = timar(1).apply(x)
        yow = ow().apply(x)
        for i in range(len(sites)):
            if y1.values[i] is None:
                continue
            assert y1.values[i] == yow.values[i] & 1


def test_timar_stabilization():
    rng = np.random.default_rng(7)
    sites = ball(6)
    for _ in range(50):
        x = _random_config(rng, U2, sites)
        for m in (1, 2, 3):
            short = timar(m).apply(x)
            long = plane_projection(m + 2, m).apply(timar(m + 2).apply(x))
            for i in range(len(sites)):
                v1, v2 = short.values[i], long.values[i]
                if v1 is not None and v2 is not None:
                    assert v1 == v2


def test_timar_window_cost_and_defined_region():
    assert timar(3).window_cost == 3
    x = sample(uniform(U2), ball(5), 8)
    y = timar(3).apply(x)
    assert y.defined_count == len(ball(2))
    assert y.alphabet.name == "U8"


def test_timar_exact_two_plane_law_at_origin():
    # Output planes (1, 2) at the identity depend only on x at the seven
    # sites {e, a, b, aa, ab, ba, bb}; enumerating those 2^7 inputs, the
    # joint law is uniform on 4 values.  Oracle: unfold the two doubling
    # passes by hand.  Plane 1 is x(e)+x(a); plane 2 doubles the working
    # plane w(g) = x(g)+x(gb) along the a-ray: w(e)+w(a).
    from bernshift import SiteSet

    dep = SiteSet(Word.parse(s) for s in ("e", "a", "b", "aa", "ab", "ba", "bb"))
    counts = np.zeros(4, dtype=int)
    fmap = timar(2)
    for cfg in enumerate_configurations(U2, dep):
        v = fmap.apply(cfg).value_at(IDENTITY)
        assert v is not None
        x = {str(w): cfg.value_at(w) for w in dep}
        p1 = (x["e"] + x["a"]) % 2
        p2 = (x["e"] + x["b"] + x["a"] + x["ab"]) % 2
        assert v == p1 + 2 * p2
        counts[v] += 1
    assert (counts == 32).all()


def test_timar_bits_insufficient_radius():
    x = sample(uniform(U2), ball(2), 9)
    with pytest.raises(InsufficientRadius):
        timar_bits(x, 3)
    assert timar_bits(x, 2).defined_count == 1


# ----------------------------------------------------------------- star map


def test_star_absorbs_stars():
    b2 = ball(2)
    vals = [2] + [0] * 16
    y = star(0.25).apply(Configuration(STAR1, b2, vals))
    assert y.value_at(IDENTITY) == y.alphabet.star_index == 4


def test_star_ray_scan_example():
    b2 = ball(2)
    table = {"e": 1, "a": 2, "aa": 0, "b": 1}
    x = Configuration(STAR1, b2, [table.get(str(w), 0) for w in b2])
    y = star(0.25).apply(x)
    # k=2, l=1: (1+0, 1+1) = (1, 0) -> index 1
    assert y.value_at(IDENTITY) == 1


def test_star_truncation_is_undefined():
    b1 = ball(1)
    x = Configuration(STAR1, b1, [0, 2, 0, 1, 0])  # the whole a-ray is stars
    assert star(0.25).apply(x).value_at(IDENTITY) is None


def test_star_matches_direct_scan():
    rng = np.random.default_rng(11)
    sites = ball(3)
    m = star(0.25)
    for _ in range(200):
        x = _random_config(rng, STAR1, sites, hole_rate=0.05)
        y = m.apply(x)
        for w in sites:
            assert y.value_at(w) == star_direct(x, w)


def _rows_batch(fmap, values, sites, out_sites):
    """``apply_batch`` on a (rows, sites) matrix, returned as (rows, out
    sites): the kernels take and give site-major (sites, rows) matrices,
    and these tests transpose at that boundary."""
    return fmap.apply_batch(np.ascontiguousarray(values.T), sites, out_sites).T


def _star_rows(rng, n_rows, n_sites, hole_rate):
    """Star-heavy rows (half the sites `*`, so rays run long), with holes."""
    rows = rng.choice(3, size=(n_rows, n_sites), p=[0.25, 0.25, 0.5])
    rows[rng.random(rows.shape) < hole_rate] = -1
    return rows


@pytest.mark.parametrize("g", ["e", "bA"])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("r_out", [0, 1])
@pytest.mark.parametrize("budget", [3, 4, 5, 6])
def test_star_batch_on_dependency_windows_matches_direct_scan(g, dtype, r_out, budget):
    # the Monte Carlo layout, moved by g: outputs on g*ball(r_out), inputs on
    # the rays clipped at the budget, so many rays leave the window on stars
    m = star(0.25)
    rng = np.random.default_rng(100 * budget + r_out)
    out_sites = translated_sites(ball(r_out), Word.parse(g))[0]
    dep = translated_sites(m.dependency_sites(ball(r_out), budget), Word.parse(g))[0]
    for hole_rate in (0.0, 0.15):
        values = _star_rows(rng, 40, len(dep), hole_rate).astype(dtype)
        got = _rows_batch(m, values, dep, out_sites)
        assert got.dtype == np.int8 and got.shape == (40, len(out_sites))
        assert ((got >= -1) & (got <= 4)).all()  # -1 marks every undefined output
        for row, out in zip(values, got):
            x = Configuration(STAR1, dep, row.astype(np.int64))
            want = [star_direct(x, w) for w in out_sites]
            assert [None if v < 0 else int(v) for v in out] == want


def test_star_batch_undefined_site_mid_ray_stops_the_scan():
    # e and b hold bits, the a-ray reads *, *, undefined, 0: the scan must
    # stop at the hole, not skip it to the 0 beyond
    sites = SiteSet(Word.parse(s) for s in ("e", "a", "aa", "aaa", "aaaa", "b"))
    row = {"e": 0, "a": 2, "aa": 2, "aaa": -1, "aaaa": 0, "b": 1}
    values = np.array([[row[str(w)] for w in sites]], dtype=np.int8)
    e = SiteSet([IDENTITY])
    assert _rows_batch(star(0.25), values, sites, e)[0, 0] == -1
    values[0, [str(w) for w in sites].index("aaa")] = 1
    assert _rows_batch(star(0.25), values, sites, e)[0, 0] == (0 ^ 1) + 2 * (0 ^ 1)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_star_output_table_on_every_centre_and_first_step(dtype):
    # all 4^3 rows over {-1, 0, 1, *} on {e, a, b}: an undefined centre, a
    # ray that runs out on *, a ray that meets a hole, and every bit triple
    sites = SiteSet(Word.parse(s) for s in ("e", "a", "b"))
    rows = np.array(np.meshgrid(*[[-1, 0, 1, 2]] * len(sites), indexing="ij")).reshape(len(sites), -1).T
    got = _rows_batch(star(0.25), rows.astype(dtype), sites, SiteSet([IDENTITY]))
    assert got.dtype == np.int8 and got.shape == (64, 1)
    for row, out in zip(rows, got[:, 0]):
        want = star_direct(Configuration(STAR1, sites, row), IDENTITY)
        assert (None if out < 0 else int(out)) == want, row


def _spy_gathers(monkeypatch) -> list:
    """The index arrays of every ``_safe_gather`` call the star scan makes from now on."""
    gathers = []
    gather = factormaps._safe_gather

    def spy(values, idx, complete=False):
        gathers.append(idx)
        return gather(values, idx, complete)

    monkeypatch.setattr(factormaps, "_safe_gather", spy)
    return gathers


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_star_ray_scan_stops_once_every_ray_has_closed(k, monkeypatch):
    # one gather for the centre and one per ray step taken: a ray closes on
    # its first non-star value, and the scan stops once every ray is closed
    sites = SiteSet(Word.parse(w) for w in ["e"] + ["a" * j for j in range(1, 9)] + ["b" * j for j in range(1, 9)])
    e = SiteSet([IDENTITY])
    values = np.random.default_rng(k).integers(0, 2, (3, len(sites)))
    a_ray = [sites.position(Word.parse("a" * j)) for j in range(1, k + 1)]
    values[1, a_ray] = 2  # row 1 reads * on the first k steps of its a-ray
    m = star(0.25)
    m.apply_batch(np.ascontiguousarray(values.T), sites, e)  # the plan is compiled outside the spy
    gathers = _spy_gathers(monkeypatch)
    got = _rows_batch(m, values, sites, e)
    assert len(gathers) == 3 + k
    for row, out in zip(values, got[:, 0]):
        assert int(out) == star_direct(Configuration(STAR1, sites, row), IDENTITY)


def _star_batch_direct(values, sites, star_in=2, star_out=4):
    """The star map on a site-major matrix over ``sites`` to itself, from the
    per-cell ray scans: * at a * centre, the pair of mod-2 sums for a bit
    centre whose two scans found bits, and -1 otherwise."""
    a, b = (np.array(first_bits_direct(values, expand_walk(sites.ray_indices(s))[0], star_in)) for s in (GEN_A, GEN_B))
    c = values.astype(np.int64)
    pair = np.where((c >= 0) & (a >= 0) & (b >= 0), (c ^ a) + 2 * (c ^ b), -1)
    return np.where(c == star_in, star_out, pair)


@pytest.mark.parametrize("n_cols", [1, 64])
@pytest.mark.parametrize("hole_rate", [0.0, 0.1])
def test_star_scan_over_live_rays_matches_the_per_cell_oracle(n_cols, hole_rate):
    # ball(6) read star-heavy: rays end at every step from 0 to 12, many run
    # out on *, and rays closed in every column drop out while others stay open
    sites = ball(6)
    rng = np.random.default_rng(10 * n_cols + int(100 * hole_rate))
    values = _star_rows(rng, n_cols, len(sites), hole_rate).T.astype(np.int8, order="C")
    for letter in (GEN_A, GEN_B):
        rays = sites.ray_indices(letter)
        padded, lengths = expand_walk(rays)
        got = factormaps._first_bits(values, rays, 2)
        want = first_bits_direct(values, padded, 2)
        assert got.dtype == np.int8 and got.tolist() == want
        # the step at which each ray has closed in every column: rays drop
        # out at many different steps, and some cells run out on stars
        seen = np.where((padded >= 0)[..., None], values[np.maximum(padded, 0)], -1) == 2
        open_steps = np.where(seen.all(axis=1), seen.shape[1], seen.argmin(axis=1))
        assert len(set(open_steps.max(axis=1).tolist())) >= 5
        assert ((seen | (padded < 0)[..., None]).all(axis=1) & (lengths > 0)[:, None]).any()
    got = star(0.25).apply_batch(values, sites, sites)
    assert got.tolist() == _star_batch_direct(values, sites).tolist()


@pytest.mark.parametrize("n_cols", [2, factormaps._NARROW_CELLS])
def test_star_scan_gathers_only_the_live_rays(n_cols, monkeypatch):
    # rays e*a^k, b*a^k, B*a^k on a ragged window, read as * except at ba:
    # the ray from b closes in every column at step 0, the ray from B runs
    # out after 2 steps, the ray from e after 6; once a closed ray holds
    # _NARROW_CELLS cells, later steps walk and gather only the rays still open
    words = ["e", "b", "B"] + ["a" * j for j in range(1, 7)] + ["ba", "ba" + "a", "Ba", "Baa"]
    sites = SiteSet(Word.parse(w) for w in words)
    out = SiteSet(Word.parse(w) for w in ("e", "b", "B"))
    values = np.array([[1 if str(w) == "ba" else 2] * n_cols for w in sites], dtype=np.int8)
    rays = sites.ray_indices(GEN_A, out)
    padded, lengths = expand_walk(rays)
    assert lengths.tolist() == [6, 2, 2]
    gathers = _spy_gathers(monkeypatch)
    got = factormaps._first_bits(values, rays, 2)
    assert got.tolist() == first_bits_direct(values, padded, 2) == [[-1] * n_cols, [1] * n_cols, [-1] * n_cols]
    # the ray from B reads the -1 past its end at step 2, and drops out after
    # it; the ray from e reads the -1 past its end at step 6, which closes it;
    # a block of fewer cells is walked whole, in place
    want = [3, 2, 2, 1, 1, 1, 1] if n_cols >= factormaps._NARROW_CELLS else [3] * 7
    assert [len(idx) for idx in gathers] == want


@pytest.mark.parametrize("n_cols", [3, factormaps._NARROW_CELLS])
@pytest.mark.parametrize("r_out", [0, 1])
def test_star_scan_works_in_place_while_every_ray_is_live(r_out, n_cols, monkeypatch):
    # the Monte Carlo layout with all-star columns: every ray stays open to
    # its end and reads the -1 past it, so until the shortest has read past
    # its end (to the end, on a small block) each step walks every ray, and
    # the first step gathers the cached first-site table itself
    m = star(0.25)
    out_sites = ball(r_out)
    dep = m.dependency_sites(out_sites, 8)
    values = np.full((len(dep), n_cols), 2, dtype=np.int8)
    values[:, 0] = np.random.default_rng(4).integers(0, 2, len(dep))
    rays = dep.ray_indices(GEN_A, out_sites)
    padded, lengths = expand_walk(rays)
    gathers = _spy_gathers(monkeypatch)
    got = factormaps._first_bits(values, rays, 2)
    assert got.tolist() == first_bits_direct(values, padded, 2)
    assert len(gathers) == padded.shape[1] + 1 and gathers[0] is rays[0]
    whole = [len(idx) == len(out_sites) for idx in gathers]
    small = len(out_sites) * n_cols < factormaps._NARROW_CELLS
    assert whole == [small or k <= lengths.min() for k in range(len(gathers))]


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_star_scan_on_a_zero_step_ray_table_is_undefined(dtype):
    sites = SiteSet([IDENTITY, Word.parse("b")])
    rays = sites.ray_indices(GEN_A)
    assert rays[0].tolist() == [-1, -1] and expand_walk(rays)[0].shape == (2, 0)
    got = factormaps._first_bits(np.zeros((2, 5), dtype=dtype), rays, 2)
    assert got.dtype == dtype and got.tolist() == [[-1] * 5] * 2


def test_star_monte_carlo_chunk_memory_is_bounded_by_its_output():
    # the scan walks the rays one step at a time: no (rows, sites, ray
    # length) temporary, so a chunk's peak is a few (sites, rows) arrays
    import tracemalloc

    from bernshift.config import sample_matrix

    m = star(0.25)
    out_sites = ball(1)
    dep = m.dependency_sites(out_sites, 30)
    values = sample_matrix(star_base(0.25), len(dep), 1 << 16, np.random.default_rng(0))
    m.apply_batch(values[:, :1], dep, out_sites)  # the site tables are built outside the trace
    tracemalloc.start()
    try:
        out = m.apply_batch(values, dep, out_sites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.dtype == np.int8 and len(dep) == 179
    assert peak <= 8 * out.nbytes


@pytest.mark.parametrize("spec", ["star:0.6", "star:0", "star:-0.1", "star:nan"])
def test_star_rejects_p_outside_its_domain(spec):
    with pytest.raises(ValueError, match="1/2"):
        parse_map_spec(spec)


def test_star_accepts_the_domain_boundary():
    assert star(0.5).p == 0.5


def test_star_pushforward():
    from bernshift import Distribution

    out = star(0.25).pushforward(star_base(0.25))
    assert np.allclose(out.float_weights(), (0.125, 0.125, 0.125, 0.125, 0.5), atol=1e-15)
    # asymmetric laws renormalize along the rays
    skew = star(0.2).pushforward(Distribution(STAR1, (0.3, 0.1, 0.6)))
    assert abs(sum(skew.float_weights()) - 1) < 1e-12
    assert skew.float_weights()[4] == 0.6


# -------------------------------------------------------------- composition


def test_compose_empty_is_identity():
    x = sample(uniform(U2), ball(2), 12)
    assert compose([], x) == x


def test_compose_single_is_the_map():
    x = sample(uniform(U2), ball(2), 13)
    assert compose([ow()], x).values == ow().apply(x).values


def test_compose_two_steps_matches_manual():
    rng = np.random.default_rng(14)
    sites = ball(3)
    shift_star = relabel("cycle5", star_alphabet(2), star_alphabet(2), [1, 2, 3, 4, 0])
    m = star(0.25)
    for _ in range(100):
        x = _random_config(rng, STAR1, sites)
        two_step = shift_star.apply(m.apply(x))
        composed = compose([m, shift_star], x)
        assert composed.values == two_step.values


def test_compose_alphabet_mismatch_names_stage():
    with pytest.raises(AlphabetMismatch, match="stage 0"):
        ComposedMap([ow(), ow()])


def test_composed_window_cost():
    assert ComposedMap([ow(), timar_stage(1)]).window_cost == 2
    assert ComposedMap([star(0.25)]).window_cost is None
    assert ComposedMap([]).window_cost == 0


def _composed_cases():
    cycle5 = relabel("cycle5", star_alphabet(2), star_alphabet(2), [1, 2, 3, 4, 0])
    look_a = BlockMap("look_a", star_alphabet(2), star_alphabet(2), (Word.parse("a"),), np.arange(5))
    cases = [(timar(m), U2, m + 1) for m in (1, 2, 3, 4)]
    cases.append((ComposedMap([star(0.25), cycle5, look_a]), STAR1, 3))
    cases.append((ComposedMap([ow(), ComposedMap([]), timar_stage(1)]), U2, 3))
    return cases


@pytest.mark.parametrize("case", range(6))
def test_composed_apply_matches_stage_by_stage(case):
    fmap, alphabet, r = _composed_cases()[case]
    rng = np.random.default_rng(130 + case)
    moved = SiteSet(mul(Word.parse("bAb"), w) for w in ball(r))
    words = ball(r).words
    subset = SiteSet(w for w, k in zip(words, rng.random(len(words)) < 0.7) if k)
    for sites in (ball(r), ball(r - 1), moved, subset):
        for p_none in (0.0, 0.1):
            values = [None if rng.random() < p_none else int(v) for v in rng.integers(0, alphabet.size, len(sites))]
            x = Configuration(alphabet, sites, values)
            assert fmap.apply(x) == compose_stagewise(fmap.stages, x)


def test_composed_apply_names_the_stage_of_a_wrong_input():
    x = sample(uniform(bit_alphabet(2)), ball(2), 15)
    with pytest.raises(AlphabetMismatch, match=r"stage 0 \(timar_stage0\): timar_stage0 expects U2"):
        timar(2).apply(x)


def _full_window_reference(fmap, values, sites, out_sites):
    """Every stage on the whole window, then the out_sites columns."""
    cur = values
    for stage in fmap.stages:
        cur = _rows_batch(stage, cur, sites, sites)
    out = np.full((values.shape[0], len(out_sites)), -1, dtype=np.int64)
    for j, g in enumerate(out_sites):
        i = sites.position(g)
        if i is not None:
            out[:, j] = cur[:, i]
    return out


def _holey_matrix(rng, size, n, n_sites, dtype):
    values = rng.integers(0, size, (n, n_sites)).astype(dtype)
    values[rng.random((n, n_sites)) < 0.01] = -1
    return values


_B1_SHIFTED = SiteSet(mul(Word.parse("ab"), w) for w in ball(1))


# input radius, output window, and whether any output is defined, for timar:m
_CONE_WINDOWS = {
    "b1_in_margin": (lambda m: m + 1, ball(1), lambda m: True),
    "b0_in_b_m": (lambda m: m, ball(0), lambda m: True),
    "b3_over_b3": (lambda m: 3, ball(3), lambda m: m <= 3),
    "b3_over_b2": (lambda m: 2, ball(3), lambda m: m <= 2),
    "shifted_b1": (lambda m: m + 2, _B1_SHIFTED, lambda m: True),
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("window", list(_CONE_WINDOWS))
def test_composed_cone_matches_full_window_evaluation(m, window):
    r_in, out_sites, some_defined = _CONE_WINDOWS[window]
    rng = np.random.default_rng(100 + m)
    fmap = timar(m)
    sites = ball(r_in(m))
    for dtype in (np.int8, np.int64):
        values = _holey_matrix(rng, 2, 200, len(sites), dtype)
        got = _rows_batch(fmap, values, sites, out_sites)
        want = _full_window_reference(fmap, values, sites, out_sites)
        assert got.dtype == np.int8
        assert (want >= 0).any() == some_defined(m)
        np.testing.assert_array_equal(got, want)
        # sites outside the window are undefined, as they are stage by stage
        for j, g in enumerate(out_sites):
            if g not in sites:
                assert (got[:, j] == -1).all()


def test_composed_stage_windows_stay_inside_the_input_window():
    for m in (1, 2, 3):
        fmap = timar(m)
        # timar:1 to timar:3 fuse into one group: one block step for all their stages
        (group,) = plan_units(fmap.stages)
        assert group == list(fmap.stages)
        for r_in, out_sites in ((2, ball(1)), (m + 1, _B1_SHIFTED), (1, ball(3))):
            sites = ball(r_in)
            (step,) = [step for step in fmap.plan(sites, out_sites) if isinstance(step, factormaps.BlockStep)]
            # window indices, in order: the group's sites inside the input window
            window = step.emit
            assert (np.diff(window) > 0).all() and ((window >= 0) & (window < len(sites))).all()
            # exactly the output sites where the stages, run one at a time on the
            # whole window from a total input, are defined; so its table is complete
            cur = np.zeros((len(sites), 1), dtype=np.int8)
            for stage in group:
                cur = stage.apply_batch(cur, sites, sites)
            want = (cur[:, 0] >= 0) & (out_sites.indices_of(sites) >= 0)
            assert window.tolist() == np.flatnonzero(want).tolist()
            assert (step.table >= 0).all() and len(step.table) == len(read_cone(group))


def test_composed_cone_with_a_star_stage():
    rng = np.random.default_rng(120)
    swap_bits_star = relabel("swap01", STAR1, STAR1, [1, 0, 2])
    cycle5 = relabel("cycle5", star_alphabet(2), star_alphabet(2), [1, 2, 3, 4, 0])
    spread = BlockMap(
        "spread", star_alphabet(2), star_alphabet(2), (IDENTITY, Word.parse("a")),
        np.add.outer(np.arange(5), np.arange(5)) % 5,
    )
    # reads only g*a, so it would see into the window from sites outside it
    look_a = BlockMap("look_a", star_alphabet(2), star_alphabet(2), (Word.parse("a"),), np.arange(5))
    fmap = ComposedMap([swap_bits_star, star(0.25), cycle5, spread, look_a])
    sites = ball(3)
    for out_sites in (ball(1), ball(4), _B1_SHIFTED):
        values = _holey_matrix(rng, 3, 400, len(sites), np.int8)
        got = _rows_batch(fmap, values, sites, out_sites)
        want = _full_window_reference(fmap, values, sites, out_sites)
        assert (want >= 0).any()
        np.testing.assert_array_equal(got, want)


def test_empty_composition_batch_is_the_identity_on_the_window():
    values = np.arange(15, dtype=np.int8).reshape(3, 5) % 2
    out = _rows_batch(ComposedMap([]), values, ball(1), ball(2))
    assert out.dtype == np.int8
    b2 = ball(2)
    for j, g in enumerate(b2):
        i = ball(1).position(g)
        want = values[:, i] if i is not None else -1
        np.testing.assert_array_equal(out[:, j], want)


# ---------------------------------------------------- relabels & projections


def test_relabel_inverse_roundtrip():
    sw = swap_bits()
    x = sample(uniform(U2), ball(2), 15)
    assert relabel_inverse(sw).apply(sw.apply(x)) == x


def test_block_tables_are_int64_and_must_be_integers():
    # the kernel looks its outputs up in place in an int64 index array
    narrow = relabel("swap8", U2, U2, np.array([1, 0], dtype=np.int8))
    assert narrow.table.dtype == np.int64
    assert narrow.apply(sample(uniform(U2), ball(2), 19)) == swap_bits().apply(sample(uniform(U2), ball(2), 19))
    with pytest.raises(ValueError, match="integers"):
        relabel("half", U2, U2, [0.5, 1.0])


def test_identity_map():
    x = sample(uniform(U2), ball(2), 16)
    assert identity_map(U2).apply(x) == x


def test_plane_projection_bounds():
    with pytest.raises(ValueError):
        plane_projection(2, 3)
    assert plane_projection(3, 3).apply(sample(uniform(bit_alphabet(3)), ball(1), 18)).alphabet.name == "U8"


# ------------------------------------------------------------------ parsing


@pytest.mark.parametrize(
    "spec,name",
    [
        ("ow", "ow"),
        ("timar:3", "timar:3"),
        ("star:0.25", "star:0.25"),
        ("swap", "swap"),
        ("project:3:2", "project3to2"),
        ("coinduced:swap", "coinduced:swap"),
    ],
)
def test_parse_map_spec(spec, name):
    assert parse_map_spec(spec).name == name


def test_parse_map_spec_rejects_unknown():
    with pytest.raises(ValueError):
        parse_map_spec("frobnicate")
