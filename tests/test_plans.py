"""Compiled evaluation plans: a plan's output equals stage-by-stage
evaluation on the whole window restricted to the output sites, on the
windows the property checks use; adjacent block stages run as fused
groups, each one block step whose table equals its stages run one at a
time on every input of its read cone; each step emits the window sites
that stage-by-stage evaluation defines and holds only read-only tables;
and plans are memoized on the input window instance."""

import numpy as np
import pytest

from bernshift import (
    BlockMap,
    ComposedMap,
    FactorMap,
    IDENTITY,
    SiteSet,
    Word,
    ball,
    ow,
    parse_map_spec,
    plane_projection,
    relabel,
    star,
    star_alphabet,
    timar,
    timar_stage,
)
from bernshift import factormaps
from bernshift.config import symbol_dtype
from bernshift.factormaps import BlockStep, GatherStep, Plan, StarMap, StarStep
from bernshift.freegroup import translated_sites

from oracles import fused_table, group_sites, plain_alphabet, plan_units, read_cone

STAR1, STAR2 = star_alphabet(1), star_alphabet(2)
A, B = Word.parse("a"), Word.parse("b")
G_POOL = ball(2).words  # the translations of the property checks


def _star_stages():
    swap01 = relabel("swap01", STAR1, STAR1, [1, 0, 2])
    look_a = BlockMap("look_a", STAR1, STAR1, (A,), np.arange(3))
    cycle5 = relabel("cycle5", STAR2, STAR2, [1, 2, 3, 4, 0])
    spread = BlockMap("spread", STAR2, STAR2, (IDENTITY, A), np.add.outer(np.arange(5), np.arange(5)) % 5)
    look_b = BlockMap("look_b", STAR2, STAR2, (B,), np.arange(5))
    return swap01, look_a, cycle5, spread, look_b


def _look_group():
    """One fused group whose stages do not read their own site: its read cone
    is {ba}, and b, a site it passes through, is not in the cone."""
    _, _, cycle5, _, look_b = _star_stages()
    return ComposedMap([cycle5, BlockMap("look_a5", STAR2, STAR2, (A,), np.arange(5)), look_b])


def _wide_code():
    """A two-offset block code over 150 symbols: int64 inputs and outputs
    around an int16 flat index (150^2 entries)."""
    wide = plain_alphabet("wide150", range(150))
    return BlockMap("wide", wide, wide, (IDENTITY, A), np.add.outer(np.arange(150), 7 * np.arange(150)) % 150)


def _maps():
    """(map, window radius, input symbols) for every plan kind."""
    swap01, look_a, cycle5, spread, look_b = _star_stages()
    # fused, timar:1 to timar:3 are one block step; timar:5 and timar:6 end in
    # groups of 32^3 (the int16 edge) and 64^3 (int32) index entries, the
    # last with the 128-symbol projection folded in
    cases = {f"timar:{m}": (timar(m), m + 1, 2) for m in (1, 2, 3, 4, 5, 6)}
    cases["cycle5+look_a+look_b"] = (_look_group(), 3, 5)
    # a group whose read cone is empty (a constant last stage), and a group
    # whose first stage reads one site twice, so its cone is smaller than its offsets
    bits = plain_alphabet("bits", (0, 1))
    parity = relabel("parity", ow().output_alphabet, bits, [0, 1, 1, 0])
    cases["ow+parity+constant"] = (ComposedMap([ow(), parity, BlockMap("constant", bits, bits, (), np.array(1))]), 3, 2)
    twice = BlockMap("twice", bits, bits, (IDENTITY, IDENTITY), np.array([[0, 1], [1, 1]]))
    cases["twice+flip"] = (ComposedMap([twice, relabel("flip", bits, bits, [1, 0])]), 3, 2)
    cases["wide"] = (_wide_code(), 3, 150)
    cases.update({spec: (parse_map_spec(spec), 3, 2) for spec in ("ow", "coinduced:identity", "coinduced:swap")})
    cases["empty"] = (ComposedMap([]), 2, 2)
    cases["star_first"] = (ComposedMap([star(0.25), cycle5, spread, look_b]), 3, 3)
    cases["star_middle"] = (ComposedMap([swap01, look_a, star(0.25), spread, look_b]), 3, 3)
    cases["star_last"] = (ComposedMap([swap01, look_a, star(0.25)]), 3, 3)
    cases["star"] = (star(0.25), 3, 3)
    cases["nested"] = (ComposedMap([ComposedMap([swap01, look_a]), star(0.25), ComposedMap([spread, look_b])]), 3, 3)
    return cases


_MAPS = _maps()


def _block_on_window(stage, values, sites):
    """A block code on the whole window, one offset at a time: -1 where an
    offset leaves the window or reads an undefined cell."""
    padded = np.vstack([values, np.full((1, values.shape[1]), -1, dtype=values.dtype)])
    flat = np.zeros(values.shape, dtype=np.int64)
    valid = np.ones(values.shape, dtype=bool)
    for off in stage.offsets:
        col = padded[sites.neighbor_indices(off)]  # index -1 reads the padding row
        valid &= col >= 0
        flat = flat * stage.input_alphabet.size + np.maximum(col, 0)
    return np.where(valid, stage.table.ravel()[flat], -1)


def _stagewise(fmap, values, sites, out_sites):
    """Every stage on the whole window, then the rows of ``out_sites``."""
    cur = values.astype(np.int64)
    for stage in fmap.stages if isinstance(fmap, ComposedMap) else (fmap,):
        if isinstance(stage, BlockMap):
            cur = _block_on_window(stage, cur, sites)
        else:
            cur = stage.apply_batch(cur, sites, sites).astype(np.int64)
    padded = np.vstack([cur, np.full((1, cur.shape[1]), -1, dtype=np.int64)])
    return padded[sites.indices_of(out_sites)]


def _values(rng, symbols, n_sites, dtype, rows=7):
    values = rng.integers(0, symbols, (n_sites, rows)).astype(dtype)
    values[rng.random(values.shape) < 0.05] = -1
    return values


def _check(fmap, values, sites, out_sites):
    got = fmap.plan(sites, out_sites)(values)
    want = _stagewise(fmap, values, sites, out_sites)
    # the output alphabet's dtype; the empty composition keeps the input's
    assert got.dtype == (values.dtype if fmap.output_alphabet is None else symbol_dtype(fmap.output_alphabet.size))
    assert got is not values
    np.testing.assert_array_equal(got, want)
    return got


@pytest.mark.parametrize("case", list(_MAPS))
def test_plans_equal_stage_by_stage_evaluation_on_translated_windows(case):
    fmap, r, symbols = _MAPS[case]
    rng = np.random.default_rng(len(case))
    base, inner, outer = ball(r), ball(r - 1), ball(r + 1)
    defined = 0
    for g in G_POOL:
        sites = translated_sites(base, g)[0]
        outs = (
            sites,                               # the window itself
            translated_sites(inner, g)[0],       # inside it
            base,                                # not inside it unless g is the identity
            translated_sites(outer, g)[0],       # past it
            SiteSet([]),
        )
        for dtype in dict.fromkeys((symbol_dtype(symbols), np.int64)):
            values = _values(rng, symbols, len(sites), dtype)
            for out_sites in outs:
                defined += int((_check(fmap, values, sites, out_sites) >= 0).sum())
    assert defined > 0


# (block code, the dtype its kernel computes flat indices in): each side of
# every narrow dtype's edge, a single offset whose 128 symbols do not fit
# int8 as a multiplier, and int64 input symbols beside an int16 index
_INDEX_EDGES = {
    "ow": (ow(), np.int8),
    "project7to6": (plane_projection(7, 6), np.int8),
    "relabel129": (relabel("r129", plain_alphabet("p129", range(129)), STAR1, np.arange(129) % 3), np.int16),
    "timar_stage2": (timar_stage(2), np.int16),
    "timar_stage4": (timar_stage(4), np.int16),
    "timar_stage5": (timar_stage(5), np.int32),
    "wide": (_wide_code(), np.int16),
}


@pytest.mark.parametrize("case", list(_INDEX_EDGES))
def test_block_kernels_at_each_index_dtype_edge_equal_the_int64_oracle(case):
    stage, _ = _INDEX_EDGES[case]
    size = stage.input_alphabet.size
    rng = np.random.default_rng(size)
    sites = ball(3)
    for dtype in dict.fromkeys((symbol_dtype(size), np.int64)):
        # every symbol, the largest flat index (all symbols size - 1) in
        # column 0, and holes past column 1; the kernel reads its table for
        # 32 of these 53 rows of 4000 columns at a time, so in two blocks
        values = rng.integers(0, size, (len(sites), 4000)).astype(dtype)
        values[:, 0] = size - 1
        values[:, 2:][rng.random((len(sites), 3998)) < 0.01] = -1
        for out_sites in (sites, ball(1)):
            got = stage.plan(sites, out_sites)(values)
            want = _block_on_window(stage, values.astype(np.int64), sites)[sites.indices_of(out_sites)]
            assert got.dtype == symbol_dtype(stage.output_alphabet.size)
            np.testing.assert_array_equal(got, want)
        assert got[0, 0] == stage.table.ravel()[-1]


def test_block_plans_compute_flat_indices_in_the_narrowest_dtype():
    # a pure slowdown (an int64 index) passes every equality test, so pin
    # the dtype each plan binds, also for the stages inside a composition
    sites = ball(2)
    for stage, index in _INDEX_EDGES.values():
        step, = [step for step in stage.plan(sites, sites) if type(step) is BlockStep]  # a lone block code's one
        assert step.index_dtype == index
    # and for the fused groups of a composition: 2^3 and 2^7 entries, 2^15,
    # then 16^3, 32^3 and 64^3
    dtypes = {m: [step.index_dtype for step in timar(m).plan(sites, sites) if type(step) is BlockStep]
              for m in (1, 2, 3, 6)}
    assert dtypes == {1: [np.int8], 2: [np.int8], 3: [np.int16], 6: [np.int16, np.int16, np.int16, np.int32]}


@pytest.mark.parametrize("case", list(_MAPS))
def test_plans_on_an_empty_window(case):
    fmap = _MAPS[case][0]
    empty = SiteSet([])
    for out_sites in (empty, ball(1)):
        got = _check(fmap, np.empty((0, 4), dtype=np.int8), empty, out_sites)
        assert got.shape == (len(out_sites), 4) and (got == -1).all()


def test_a_plan_is_built_once_per_window_and_held_by_that_window_only(monkeypatch):
    fmap = timar(3)
    sites = ball(4)
    values = np.zeros((len(sites), 3), dtype=np.int8)
    plan = fmap.plan(sites, sites)
    inner = fmap.plan(sites, ball(1))

    # a second call on the same window and output sites builds nothing: no
    # neighbour table is even looked up, and an equal output window hits
    lookups = []
    real = SiteSet.neighbor_indices
    monkeypatch.setattr(SiteSet, "neighbor_indices", lambda *a, **k: lookups.append(a) or real(*a, **k))
    assert fmap.plan(sites, sites) is plan and fmap.plan(sites, ball(4)) is plan
    assert fmap.plan(sites, ball(1)) is inner
    fmap.apply_batch(values, sites, sites)
    fmap.apply_batch(values, sites, ball(1))
    assert lookups == []
    monkeypatch.undo()

    # a fresh window equal to a planned one builds its own plan; a translated
    # window, kept by translated_sites' cache, keeps its plan with it, so the
    # fresh window's translate hits both
    fresh = ball(4)
    assert fresh == sites and fmap.plan(fresh, fresh) is not plan
    moved = translated_sites(sites, Word.parse("aB"))[0]
    moved_plan = fmap.plan(moved, moved)
    again = translated_sites(fresh, Word.parse("aB"))[0]
    assert again is moved and fmap.plan(again, again) is moved_plan

    # the window's own plan is keyed by the map alone, so the window's cache
    # does not refer to the window
    assert sites._plans[fmap][None] is plan
    for fm, plans in sites._plans.items():
        assert fm is not sites and all(key is not sites for key in plans)
    # and no step refers to a window or a map
    assert not any(isinstance(field, (SiteSet, FactorMap)) for step in plan for field in _leaves(step))


@pytest.mark.parametrize("case", ["timar:3", "ow", "coinduced:swap", "star_middle"])
def test_a_window_drops_the_plans_of_a_map_that_is_gone(case):
    fmap, _, symbols = _maps()[case]
    sites = ball(3)
    values = _values(np.random.default_rng(2), symbols, len(sites), np.int8)
    want = fmap.apply_batch(values, sites, sites)
    plan = fmap.plan(sites, ball(1))
    assert len(sites._plans[fmap]) == 2
    # the window holds the map weakly and no plan refers to a map, so the
    # map's plans go with it, while a plan its caller kept still runs
    del fmap
    assert len(sites._plans) == 0
    np.testing.assert_array_equal(plan(values), want[sites.indices_of(ball(1))])


def _leaves(step):
    """Every field of a step, and the tables inside its tuple fields (a star
    step's pair of ray tables and lengths)."""
    for field in step:
        if isinstance(field, tuple):
            yield from _leaves(field)
        else:
            yield field


@pytest.mark.parametrize("case", list(_MAPS))
def test_a_plan_is_a_flat_tuple_of_steps_whose_arrays_are_read_only(case):
    # a cached plan is shared by every later call on its window and by every
    # thread: one write into ow's block lookup used to change what every
    # later call returned, so every array a step holds refuses writes
    fmap, r, _ = _MAPS[case]
    sites = ball(r)
    for out_sites in (sites, ball(1)):
        plan = fmap.plan(sites, out_sites)
        assert type(plan) is Plan and len(plan) > 0
        for step in plan:
            assert type(step) in (BlockStep, StarStep, GatherStep)
            for field in _leaves(step):
                # no plan holds another plan, a window or a map
                assert not isinstance(field, (Plan, SiteSet, FactorMap))
                if isinstance(field, np.ndarray):
                    # nor does an array under it, which a view's writes reach
                    assert not _writable(field)
                    with pytest.raises(ValueError):
                        field[...] = 0


def _writable(array) -> bool:
    """Whether ``array`` or any array under it, which it views, takes writes."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return True
        array = array.base
    return False


def _check_gather(step, emit, want):
    """``step`` is a gather from the rows ``emit`` (window positions) onto
    the window positions ``want``: row i reads the row that holds want[i],
    and -1 where no row does."""
    assert type(step) is GatherStep
    np.testing.assert_array_equal(step.emit, want)
    np.testing.assert_array_equal(np.append(emit, -1)[step.rows], np.where(np.isin(want, emit), want, -1))
    assert step.complete == bool((step.rows >= 0).all())


def _check_emits(fmap, sites, out_sites):
    """Check each step's ``emit`` against stage-by-stage evaluation on the
    whole window from a total input, and that each step reads the rows that
    hold the sites it reads."""
    plan, n, where = list(fmap.plan(sites, out_sites)), len(sites), sites.indices_of(out_sites)
    # the last step emits the output sites' window positions, -1 off the window
    np.testing.assert_array_equal(plan[-1].emit, where)
    if isinstance(fmap, StarMap):  # one step, which emits its centres
        assert [type(step) for step in plan] == [StarStep]
        return
    units = plan_units(fmap.stages if isinstance(fmap, ComposedMap) else (fmap,))
    # the window sites each unit must emit, walking back from the output
    # sites: the read cones of a later group's sites g whose group sites g*M
    # all lie in the window, or the whole window that a later star stage or
    # composition maps
    needs = [np.isin(np.arange(n), where)]
    for unit in reversed(units[1:]):
        need = np.ones(n, dtype=bool)
        if isinstance(unit, list):
            inside = needs[0] & np.logical_and.reduce([sites.neighbor_indices(m) >= 0 for m in group_sites(unit)])
            need = np.isin(np.arange(n), [sites.neighbor_indices(r)[inside] for r in read_cone(unit)])
        needs.insert(0, need)
    defined, emit = np.ones(n, dtype=bool), np.arange(n)  # a total input, one row per window site
    for unit, need in zip(units, needs):
        if isinstance(unit, list):
            # the group's stages on the whole window, one at a time, from the sites defined so far
            for stage in unit:
                defined = _block_on_window(stage, np.where(defined, 0, -1)[:, None], sites)[:, 0] >= 0
            step = plan.pop(0)
            assert type(step) is BlockStep
            np.testing.assert_array_equal(step.emit, np.flatnonzero(need & defined))
            # one table row per read cone site, in the cone's order
            assert len(step.table) == len(read_cone(unit))
            for r, rows in zip(read_cone(unit), step.table):
                np.testing.assert_array_equal(emit[rows], sites.neighbor_indices(r)[step.emit])
        else:
            # the stage's own plan on the whole window, spliced in after a
            # gather that widens to the window; it emits the whole window
            if len(emit) < n:
                _check_gather(plan.pop(0), emit, np.arange(n))
            inner = list(unit.plan(sites, sites))
            assert all(a is b for a, b in zip(plan, inner))
            del plan[: len(inner)]
            _check_emits(unit, sites, sites)
            step, defined = inner[-1], np.ones(n, dtype=bool)
        emit = step.emit
    # a final gather onto the output sites, unless the last stage emitted them
    if plan:
        _check_gather(plan.pop(0), emit, where)
    assert plan == []


@pytest.mark.parametrize("case", list(_MAPS))
def test_each_step_emits_the_sites_that_stage_by_stage_evaluation_defines(case):
    fmap, r, _ = _MAPS[case]
    base = ball(r)
    moved = translated_sites(base, Word.parse("bA"))[0]
    for sites, out_sites in ((base, base), (base, ball(1)), (base, ball(r + 1)), (moved, moved),
                             (moved, translated_sites(ball(r + 1), Word.parse("bA"))[0]), (base, SiteSet([]))):
        _check_emits(fmap, sites, out_sites)


def test_adjacent_block_stages_run_as_few_fused_steps():
    # greedy groups within 2^16 table entries, the projection folded in
    counts = {m: sum(type(step) is BlockStep for step in timar(m).plan(ball(3), ball(3))) for m in range(1, 7)}
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 4}
    # a star stage ends a run: the block stages on either side of it fuse apart
    assert [len(unit) if isinstance(unit, list) else unit for unit in plan_units(_MAPS["star_middle"][0].stages)] \
        == [2, _MAPS["star_middle"][0].stages[2], 2]


_FUSED = ("timar:1", "timar:2", "timar:3", "timar:4", "timar:5", "timar:6", "cycle5+look_a+look_b", "star_middle",
          "ow+parity+constant", "twice+flip")


@pytest.mark.parametrize("case", _FUSED)
def test_each_fused_table_equals_its_stages_on_every_input_of_its_read_cone(case):
    fmap, r, symbols = _MAPS[case]
    units = [unit for unit in plan_units(fmap.stages) if isinstance(unit, list)]
    tables = [fused_table(unit) for unit in units]
    for unit in units:
        assert {*read_cone(unit), IDENTITY} <= set(group_sites(unit))
    rng = np.random.default_rng(len(case))
    base = ball(r)
    moved = translated_sites(base, Word.parse("bA"))[0]
    holey = SiteSet(w for w in base if rng.random() < 0.7)  # a subset with holes
    for sites, out_sites in ((base, base), (moved, moved), (holey, holey), (holey, ball(r + 1)), (base, moved)):
        plan = fmap.plan(sites, out_sites)
        steps = [step for step in plan if type(step) is BlockStep]
        assert len(steps) == len(units)
        for step, unit, table in zip(steps, units, tables):
            size = unit[0].input_alphabet.size
            assert step.size == size and step.lookup.size == size ** len(read_cone(unit))
            np.testing.assert_array_equal(step.lookup, table)
        # and the steps' reads and outputs on this window, holes in the input too
        _check_emits(fmap, sites, out_sites)
        _check(fmap, _values(rng, symbols, len(sites), np.int8), sites, out_sites)
    # one table per group, shared by an equal map built apart and read-only
    again = [step for step in parse_map_spec(case).plan(base, base) if type(step) is BlockStep] \
        if case.startswith("timar") else []
    assert all(a.lookup is b.lookup for a, b in zip(again, steps))
    assert not any(_writable(step.lookup) for step in steps)


def test_fused_tables_are_built_at_the_first_compile_not_when_a_map_is_built():
    # building a map fuses nothing, so parsing one costs what it did unfused
    calls = factormaps._fused_groups.cache_info()
    fmap = parse_map_spec("timar:3")
    assert factormaps._fused_groups.cache_info() == calls
    assert all("_stage" not in vars(stage) for stage in fmap.stages)
    fmap.plan(ball(2), ball(2))
    after = factormaps._fused_groups.cache_info()
    assert after.hits + after.misses == calls.hits + calls.misses + 1
