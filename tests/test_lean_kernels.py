"""The batch kernels' fast path for total inputs and their narrow outputs:
a total input read through complete index tables skips the undefined-cell
masks, every map emits its output alphabet's dtype (int8 up to 128
symbols), every block kernel reads a complete table, and every consumer
that does arithmetic on a kernel output does it in a dtype that holds the
result, the narrowest one for packed patterns."""

import numpy as np
import pytest

from bernshift import (
    BlockMap,
    ComposedMap,
    Configuration,
    IDENTITY,
    SiteSet,
    Word,
    ball,
    bit_alphabet,
    ow,
    parse_map_spec,
    relabel,
    restrict,
    star,
    star_alphabet,
    star_base,
    swap_bits,
    timar,
    uniform,
)
from bernshift import factormaps
from bernshift.config import index_matrix, sample_matrix, symbol_dtype
from bernshift.freegroup import GEN_A, GEN_B, translated_sites
from bernshift.selftest import _ow_output_patterns
from bernshift.verify import _pattern_counts

from oracles import coinduced_lift_direct, compose_stagewise, ow_direct, plain_alphabet, star_direct

U2 = bit_alphabet(1)
STAR1, STAR2 = star_alphabet(1), star_alphabet(2)


def test_ow_output_patterns_keep_every_bit_of_the_packed_image():
    f = _ow_output_patterns()
    # 5 output sites of 4 symbols: the packed image of ow on ball(2) is onto
    assert f.dtype == np.int16 and len(np.unique(f)) == 4**5
    b2, b1 = ball(2), ball(1)
    for i in (0, 1, 5, 1 << 16, (1 << 17) - 1, 98765):
        x = Configuration(U2, b2, [(i >> j) & 1 for j in range(len(b2))])
        y = restrict(ow().apply(x), b1).indices
        assert int(f[i]) == sum(int(v) << (2 * j) for j, v in enumerate(y))


# (output symbols, output sites): the ow window of the selftest, patterns on
# each side of the int8 and int16 edges, 2^7 | 129 and 2^15 | 2^15 + 1, and
# one site of 128 and of 129 symbols
@pytest.mark.parametrize(
    "out_size, n_out", [(4, 5), (2, 7), (129, 1), (8, 5), (32769, 1), (128, 1), (2, 8), (2, 16)]
)
def test_pattern_counts_of_a_narrow_output_equal_the_int64_tally(out_size, n_out):
    rng = np.random.default_rng(out_size + n_out)
    out = rng.integers(0, out_size, (n_out, 3000)).astype(symbol_dtype(out_size))
    out[:, 0] = out_size - 1  # the largest pattern
    out[rng.integers(0, n_out, 40), rng.integers(1, 3000, 40)] = -1
    counts, truncated = _pattern_counts(out, out_size)
    wide = out.astype(np.int64)
    valid = (wide >= 0).all(axis=0)
    pattern = sum(wide[j] * out_size**j for j in range(n_out))
    np.testing.assert_array_equal(counts, np.bincount(pattern[valid], minlength=out_size**n_out))
    assert counts[-1] >= 1 and truncated == int((~valid).sum())
    assert counts.dtype == np.int64 and counts.sum() + truncated == 3000


def _swap_direct(x: Configuration, g):
    v = x.value_at(g)
    return None if v is None else 1 - v


def _reference(spec: str, x: Configuration, out_sites) -> np.ndarray:
    """The per-row oracle for ``spec`` on x, read on ``out_sites``."""
    fmap = parse_map_spec(spec)
    if spec.startswith("timar:"):
        y = compose_stagewise(fmap.stages, x)
    elif spec == "coinduced:swap":
        y = coinduced_lift_direct(swap_bits(), x)
    else:
        site_rule = {"ow": ow_direct, "swap": _swap_direct, "star:0.25": star_direct}[spec]
        y = Configuration(fmap.output_alphabet, x.sites, [site_rule(x, g) for g in x.sites])
    return restrict(y, out_sites).indices


# (map, input radius, output radius): every table of the output window is complete
_WINDOWS = (
    ("ow", 3, 2),
    ("timar:1", 3, 2),
    ("timar:2", 3, 1),
    ("timar:3", 4, 1),
    ("timar:4", 5, 1),
    ("swap", 2, 2),
    ("coinduced:swap", 2, 2),
    ("star:0.25", 6, 1),
)


def _window(spec: str, r_in: int, r_out: int):
    fmap = parse_map_spec(spec)
    out_sites = ball(r_out)
    sites = fmap.dependency_sites(out_sites, r_in) if fmap.window_cost is None else ball(r_in)
    law = star_base(0.25) if spec.startswith("star") else uniform(fmap.input_alphabet)
    return fmap, sites, out_sites, law


def _masks(monkeypatch) -> list:
    """Record, for every kernel gather, its kind and whether it builds an
    undefined-cell mask: a block code's gathers (``_block_gather``, given
    the kernel's mask) and the index gathers of the star map and of a
    composition's widening and final gathers (``_safe_gather``)."""
    masks = []
    block, index = factormaps._block_gather, factormaps._safe_gather

    def block_spy(values, idx, valid):
        masks.append(("block", valid is not None))
        return block(values, idx, valid)

    def index_spy(values, idx, complete=False):
        masks.append(("index", not complete))
        return index(values, idx, complete)

    monkeypatch.setattr(factormaps, "_block_gather", block_spy)
    monkeypatch.setattr(factormaps, "_safe_gather", index_spy)
    return masks


def _stage_plans(plan) -> list:
    """The block steps of a plan (a star map's plan has none)."""
    return [step for step in plan if isinstance(step, factormaps.BlockStep)]


def _complete(steps) -> bool:
    """Whether every block step reads a table with no -1."""
    return all((step.table >= 0).all() for step in steps)


def _check_rows(spec, fmap, values, sites, out_sites, masks):
    """The kernel's output, checked row by row against the oracle, and the
    gathers the kernel made (the oracles' own are not recorded)."""
    masks.clear()
    got = fmap.apply_batch(values, sites, out_sites)
    kernel = list(masks)
    assert got.shape == (len(out_sites), values.shape[1])
    for k in range(values.shape[1]):
        x = Configuration(fmap.input_alphabet, sites, values[:, k].astype(np.int64))
        np.testing.assert_array_equal(got[:, k], _reference(spec, x, out_sites), err_msg=f"row {k}")
    return got, kernel


@pytest.mark.parametrize("spec,r_in,r_out", _WINDOWS)
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_fast_path_and_masked_paths_agree_with_the_per_row_oracles(spec, r_in, r_out, dtype, monkeypatch):
    fmap, sites, out_sites, law = _window(spec, r_in, r_out)
    total = sample_matrix(law, len(sites), 6, np.random.default_rng(len(sites))).astype(dtype)
    spied = _masks(monkeypatch)

    # a total input on a window whose tables are all complete: no gather masks
    # (a star ray's steps past the shortest ray's length still do)
    _, masks = _check_rows(spec, fmap, total, sites, out_sites, spied)
    assert masks and not all(masked for _, masked in masks), "the fast path was not taken"
    if not spec.startswith("star"):
        assert not any(masked for _, masked in masks)
        assert _complete(_stage_plans(fmap.plan(sites, out_sites)))

    # the same input with one undefined cell, at the centre: a block code masks
    # every gather, and the masks leave every output that reads it undefined,
    # the centre's first (an index gather through a complete table, like a
    # star ray's complete steps, passes the -1 on as data)
    holey = total.copy()
    holey[sites.position(IDENTITY), 2] = -1
    got, masks = _check_rows(spec, fmap, holey, sites, out_sites, spied)
    assert got[out_sites.position(IDENTITY), 2] == -1
    if not spec.startswith("star"):
        block = [masked for kind, masked in masks if kind == "block"]
        assert block and all(block)

    # the total input on a window past the input: a block code's stages,
    # a lone one's too, still read complete tables, since each emits only
    # defined sites, so only the final gather masks, and it leaves the
    # sites outside undefined
    past = ball(r_in + 1)
    got, masks = _check_rows(spec, fmap, total, sites, past, spied)
    outside = sites.indices_of(past) < 0
    assert outside.any() and (got[outside] == -1).all()
    if spec.startswith("star"):
        assert masks[0] == ("index", True)  # the centre gather
    else:
        assert [masked for _, masked in masks] == [False] * (len(masks) - 1) + [True]
        assert _complete(_stage_plans(fmap.plan(sites, past)))


@pytest.mark.parametrize("size,dtype", [(2, np.int8), (3, np.int8), (128, np.int8), (129, np.int64)])
def test_index_matrix_is_int8_up_to_128_symbols(size, dtype):
    got = index_matrix(size, 3, 1000, 1100)
    assert got.dtype == dtype and got.shape == (3, 100)
    idx = np.arange(1000, 1100)
    want = np.stack([(idx // size**j) % size for j in range(3)])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("size,dtype", [(2, np.int8), (128, np.int8), (129, np.int64)])
def test_block_outputs_are_int8_up_to_128_output_symbols(size, dtype):
    a_in = plain_alphabet(f"in{size}", (str(i) for i in range(size)))
    a_out = plain_alphabet(f"out{size}", (str(i) for i in range(size)))
    mapping = np.arange(size)[::-1]
    fmap = relabel("reverse", a_in, a_out, mapping)
    sites = ball(1)
    values = np.random.default_rng(size).integers(0, size, (len(sites), 50))
    got = fmap.apply_batch(values, sites, sites)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, mapping[values])
    want = mapping[values]
    values[1, 3] = want[1, 3] = -1
    got = fmap.apply_batch(values, sites, sites)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)


# every name of the CLI's map list, a composition with a star stage, and the
# empty composition
_DTYPE_MAPS = {
    spec: parse_map_spec(spec)
    for spec in ("ow", "timar:1", "timar:3", "timar:6", "star:0.25", "swap", "identity", "project:3:2",
                 "coinduced:identity", "coinduced:swap")
}
_DTYPE_MAPS["relabel+star"] = ComposedMap([relabel("swap01", STAR1, STAR1, [1, 0, 2]), star(0.25)])
_DTYPE_MAPS["empty"] = ComposedMap([])


@pytest.mark.parametrize("spec", list(_DTYPE_MAPS))
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_every_map_returns_its_output_alphabets_dtype(spec, dtype):
    fmap = _DTYPE_MAPS[spec]
    sites = ball(3)
    law = star_base(0.25) if fmap.input_alphabet == STAR1 else uniform(fmap.input_alphabet or U2)
    values = sample_matrix(law, len(sites), 10, np.random.default_rng(1)).astype(dtype)
    for out_sites in (sites, ball(1), ball(4)):
        got = fmap.apply_batch(values, sites, out_sites)
        if fmap.output_alphabet is None:  # the identity copies its input
            assert got.dtype == dtype and got is not values and not np.shares_memory(got, values)
        else:
            assert got.dtype == symbol_dtype(fmap.output_alphabet.size)


# block codes, lone and in compositions, each read with and without their
# own site
_LOOK_A = BlockMap("look_a", U2, U2, (Word.parse("a"),), np.arange(2))
_TABLE_MAPS = {
    "ow": ow(),
    "timar:3": timar(3),
    "project:3:2": parse_map_spec("project:3:2"),
    "coinduced:swap": parse_map_spec("coinduced:swap"),
    "look_a": _LOOK_A,
    "look_a+ow": ComposedMap([_LOOK_A, ow()]),
    "ow+relabel+star": ComposedMap([ow(), relabel("split", bit_alphabet(2), STAR1, [0, 1, 2, 2]), star(0.25)]),
}


@pytest.mark.parametrize("spec", list(_TABLE_MAPS))
def test_every_block_kernel_binds_a_complete_table(spec):
    # a lone block code compiles as a one-stage composition: whatever the
    # window, its stage reads only rows it emitted, and the final gather
    # alone leaves the output sites past the window undefined
    fmap = _TABLE_MAPS[spec]
    sites = ball(3)
    moved = translated_sites(sites, Word.parse("bA"))[0]
    for window, out_sites in ((sites, sites), (sites, ball(2)), (sites, ball(4)),
                              (moved, moved), (moved, sites), (SiteSet([]), sites)):
        steps = _stage_plans(fmap.plan(window, out_sites))
        assert steps and _complete(steps)
        values = np.ones((len(window), 3), dtype=np.int8)
        got = fmap.apply_batch(values, window, out_sites)
        assert (got[window.indices_of(out_sites) < 0] == -1).all()


_STAR_LOOK_A = ComposedMap([star(0.25), relabel("r", STAR2, U2, [0, 1, 0, 1, 0]), _LOOK_A])


@pytest.mark.parametrize("fmap", [_LOOK_A, _STAR_LOOK_A], ids=["look_a", "star+look_a"])
def test_a_block_code_that_skips_its_own_site_is_defined_on_its_dependency_sites(fmap):
    # each output site is in its own cone, so a Monte Carlo window holds it
    out_sites = ball(1)
    dep = fmap.dependency_sites(out_sites, 12)
    assert dep.indices_of(out_sites).min() >= 0
    law = star_base(0.25) if fmap.input_alphabet == STAR1 else uniform(U2)
    values = sample_matrix(law, len(dep), 200, np.random.default_rng(3))
    got = fmap.apply_batch(values, dep, out_sites)
    assert (got >= 0).mean() > 0.9


def test_ray_tables_store_each_step_as_one_contiguous_column():
    # the star kernel's step is one take of the contiguous int64 walk
    sites = ball(4)
    for first, walk in (sites.ray_indices(GEN_A), sites.ray_indices(GEN_B, ball(2))):
        for table in (first, walk):
            assert table.ndim == 1 and table.dtype == np.int64 and table.flags.c_contiguous
            assert not table.flags.writeable


def test_a_ray_table_cannot_be_written_through_the_array_under_its_view():
    # every later star plan on the window reads these tables; a write into
    # one, or into an array under it, used to change them all
    for first, walk in (ball(2).ray_indices(GEN_A), ball(3).ray_indices(GEN_B, ball(1))):
        tables = [first, walk] + [t.base for t in (first, walk) if t.base is not None]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0
