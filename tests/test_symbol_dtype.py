"""Configurations store their symbols in the batch dtype: ``indices`` and
``slot_values`` are read-only arrays in ``symbol_dtype`` of the alphabet
(int8 up to 128 symbols, int64 beyond), every constructor path refuses a
non-integer or out-of-range symbol before the cast, and a map reads and
stores a configuration's own column with no widening."""

import pickle

import numpy as np
import pytest

from bernshift import (
    Configuration,
    CosetConfiguration,
    IDENTITY,
    Word,
    ball,
    bit_alphabet,
    coinduced_act,
    from_coset_config,
    parse_map_spec,
    plan_boost_chain,
    restrict,
    run_chain,
    sample,
    star_alphabet,
    star_base,
    to_coset_config,
    translate,
    uniform,
)
from bernshift import factormaps
from bernshift.config import symbol_dtype
from bernshift.entropy import solve_p

U2 = bit_alphabet(1)
ALPHABETS = [(bit_alphabet(1), np.int8), (bit_alphabet(2), np.int8), (bit_alphabet(7), np.int8),
             (bit_alphabet(8), np.int64)]


@pytest.mark.parametrize("alphabet, dtype", ALPHABETS, ids=lambda a: getattr(a, "name", None))
def test_indices_and_slot_values_are_in_the_symbol_dtype(alphabet, dtype):
    assert symbol_dtype(alphabet.size) is dtype
    x = sample(uniform(alphabet), ball(2), 1)
    y = to_coset_config(x)
    built = CosetConfiguration(alphabet, y.coset_sites, y.window, y.values)
    for arr in (x.indices, y.slot_values, y.grid, built.slot_values, built.grid):
        assert arr.dtype == dtype and not arr.flags.writeable
    assert built == y


@pytest.mark.parametrize("alphabet, dtype", ALPHABETS, ids=lambda a: getattr(a, "name", None))
def test_equal_values_in_any_form_are_equal_hash_equal_and_pickle(alphabet, dtype):
    top = alphabet.size - 1
    values = [None, top, 0, None, 1]
    index_form = [-1 if v is None else v for v in values]
    forms = [values, np.array(index_form, dtype=np.int64), np.array(values, dtype=object)]
    if alphabet.size <= 128:
        forms.append(np.array(index_form, dtype=np.int8))
    xs = [Configuration(alphabet, ball(1), form) for form in forms]
    for x in xs:
        assert x == xs[0] and hash(x) == hash(xs[0]) and x.values == tuple(values)
        back = pickle.loads(pickle.dumps(x))
        assert back == x and hash(back) == hash(x) and back.indices.dtype == dtype
    rows = [tuple(values[:3]), tuple(values[2:])]
    grid = [[-1 if v is None else v for v in row] for row in rows]
    cosets = (IDENTITY, Word.parse("b"))
    ys = [CosetConfiguration(alphabet, cosets, 1, form)
          for form in (rows, np.array(grid, dtype=np.int64), np.array(grid, dtype=np.int16))]
    for y in ys:
        assert y == ys[0] and hash(y) == hash(ys[0]) and y.values == tuple(rows)
        back = pickle.loads(pickle.dumps(y))
        assert back == y and hash(back) == hash(y) and back.slot_values.dtype == dtype


@pytest.mark.parametrize("alphabet, dtype", ALPHABETS, ids=lambda a: getattr(a, "name", None))
def test_translate_restrict_sample_and_the_conjugacy_keep_the_dtype(alphabet, dtype):
    x = sample(uniform(alphabet), ball(3), 2)
    g = Word.parse("aB")
    moved = translate(g, x)
    part = restrict(moved, ball(2))
    assert not part.is_total  # restriction reads the undefined entry
    y = to_coset_config(part)
    acted = coinduced_act(Word.parse("b"), y)
    back = from_coset_config(acted)
    for arr in (x.indices, moved.indices, part.indices, y.slot_values, acted.slot_values, acted.grid, back.indices):
        assert arr.dtype == dtype
    assert from_coset_config(to_coset_config(x)) == x


def test_a_chain_run_keeps_the_dtype_of_every_stage():
    law = star_base(solve_p(0.6))
    x = sample(law, ball(6), 3)
    run = run_chain(plan_boost_chain(law), x)
    assert x.indices.dtype == np.int8 and run.output.indices.dtype == np.int8
    assert run.output.alphabet == star_alphabet(2)


@pytest.mark.parametrize("bad", [256, -2, 2**31, -129, 2**70])
def test_a_symbol_that_would_wrap_is_refused_on_every_path(bad):
    values = [0, 1, bad, 1, 0]
    rows = [values[:3], values[2:]]
    forms = [(values, rows), (np.array(values, dtype=object), np.array(rows, dtype=object))]
    if bad < 2**63:
        forms.append((np.array(values, dtype=np.int64), np.array(rows, dtype=np.int64)))
    message = f"symbol index {bad} out of range for U2"
    for flat, grid in forms:
        with pytest.raises(ValueError, match=message):
            Configuration(U2, ball(1), flat)
        with pytest.raises(ValueError, match=message):
            CosetConfiguration(U2, (IDENTITY, Word.parse("b")), 1, grid)


def test_an_unsigned_index_past_int64_is_refused_before_the_cast():
    with pytest.raises(ValueError, match=f"symbol index {2**64 - 1} out of range"):
        Configuration(U2, ball(1), np.array([0, 1, 2**64 - 1, 1, 0], dtype=np.uint64))


@pytest.mark.parametrize("values", [
    np.array([0.7, 1.2, 0, 1, 0]),
    [0.7, 1.2, 0, 1, 0],
    np.array([True, False, True, False, True]),
    [True, 0, 1, 0, 1],
    [0, 1, 0, 1, np.float64(1.0)],
    [0, 1, "1", 0, 1],
], ids=["float-array", "float-list", "bool-array", "bool-list", "numpy-float", "str"])
def test_non_integer_symbols_are_refused(values):
    # both forms used to truncate 0.7 and 1.2 to 0 and 1, and read true as 1
    message = "neither a symbol index nor null|must be integers"
    with pytest.raises(ValueError, match=message):
        Configuration(U2, ball(1), values)
    rows = [values[:3], values[2:]]
    with pytest.raises(ValueError, match=message):
        CosetConfiguration(U2, (IDENTITY, Word.parse("b")), 1, rows if isinstance(values, list) else np.stack(rows))


def test_numpy_integers_in_the_values_form_are_symbol_indices():
    x = Configuration(U2, ball(1), [np.int64(1), None, np.int8(0), 1, np.uint8(0)])
    assert x.values == (1, None, 0, 1, 0) and x.indices.dtype == np.int8


def test_a_binary_configuration_on_ball_9_holds_one_byte_per_site():
    x = sample(uniform(U2), ball(9), 1)
    assert len(x.sites) == 39365 and x.indices.nbytes == 39365


@pytest.mark.parametrize("spec", ["ow", "timar:3", "star:0.25", "coinduced:swap"])
def test_apply_hands_the_plan_the_configurations_own_column(monkeypatch, spec):
    fmap = parse_map_spec(spec)
    law = star_base(0.25) if spec.startswith("star") else uniform(fmap.input_alphabet)
    x = sample(law, ball(5), 4)
    want = fmap.apply_batch(x.indices[:, None], x.sites, x.sites)[:, 0]
    seen = []
    run = factormaps.Plan.__call__

    def spy(plan, values):
        out = run(plan, values)
        seen.append((values, out))
        return out

    monkeypatch.setattr(factormaps.Plan, "__call__", spy)
    y = fmap.apply(x)
    [(values, out)] = seen
    # the column is a view of x's own int8 indices, not a widened copy
    assert values.dtype == np.int8 and values.shape == (len(x.sites), 1)
    assert values.base is x.indices
    assert out.dtype == np.int8 and y.indices.dtype == np.int8
    assert np.array_equal(y.indices, want) and np.array_equal(y.indices, out[:, 0])
