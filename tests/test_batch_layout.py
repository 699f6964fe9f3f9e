"""The site-major batch layout: the engines' reports are pinned byte for
byte, and every listed map's batch kernel agrees with its per-row
application on the same inputs."""

import json
from pathlib import Path

import numpy as np
import pytest

from bernshift import (
    Configuration,
    SiteSet,
    ball,
    bit_alphabet,
    exact_coset_pushforward,
    exact_pushforward,
    mc_pushforward,
    parse_map_spec,
    restrict,
    star_base,
    uniform,
)

# The pushforward benchmark round's calls with the parameters of seed 1,
# round 0; the MC seeds are SeedSequence([1, 0]).generate_state(3).
_EXACT = (("ow", 2, 1), ("timar:1", 2, 1), ("timar:2", 2, 0), ("coinduced:swap", 2, 1))
_MC = (
    ("star:0.25", "star", 30, 0, 10**6, 0.004),
    ("star:0.25", "star", 30, 1, 131_072, None),
    ("timar:3", "uniform", 5, 1, 200_000, None),
)
_LAWS = {"star": star_base(0.25), "uniform": uniform(bit_alphabet(1))}
# Written by tests/data/regenerate.py.  The exact entries are those recorded
# with the (rows, sites) layout; the MC entries were redrawn when dyadic laws
# moved to byte sampling.  Threads 1 and 2 give the same reports.
_PINNED = Path(__file__).parent / "data" / "pushforward_reports.json"


def _round_reports(threads: int) -> dict:
    seeds = [int(s) for s in np.random.SeedSequence([1, 0]).generate_state(len(_MC), dtype=np.uint32)]
    reports = {}
    for spec, r_in, r_out in _EXACT:
        reports[f"exact[{spec}]"] = exact_pushforward(parse_map_spec(spec), r_in, r_out, threads=threads)
    reports["exact_coset"] = exact_coset_pushforward(2, threads=threads)
    for (spec, law, r_in, r_out, n, threshold), seed in zip(_MC, seeds):
        reports[f"mc[{spec}/{r_in}/{r_out}]"] = mc_pushforward(
            parse_map_spec(spec), _LAWS[law], r_in, r_out, n, seed, threshold=threshold, threads=threads)
    return {name: rep.to_json() for name, rep in reports.items()}


@pytest.mark.parametrize("threads", [1, 2])
def test_pushforward_round_reports_are_byte_identical_to_the_pinned_ones(threads):
    pinned = json.loads(_PINNED.read_text())
    got = _round_reports(threads)
    assert list(got) == list(pinned)
    for name in pinned:
        assert json.dumps(got[name], sort_keys=True) == json.dumps(pinned[name], sort_keys=True), name


# every name of the README's map list, with the input window it is run on
_LISTED = ("ow", "timar:1", "timar:3", "star:0.25", "swap", "identity", "project:2:1",
           "coinduced:identity", "coinduced:swap")


def _per_row(fmap, values: np.ndarray, sites: SiteSet, out_sites: SiteSet) -> np.ndarray:
    """Column k: ``fmap.apply`` on input k alone, restricted to ``out_sites``."""
    cols = []
    for k in range(values.shape[1]):
        x = Configuration(fmap.input_alphabet, sites, values[:, k].astype(np.int64))
        cols.append(restrict(fmap.apply(x), out_sites).indices)
    return np.stack(cols, axis=1) if cols else np.empty((len(out_sites), 0), dtype=np.int64)


def _inputs(fmap, n_sites: int, rows: int, seed: int, dtype) -> np.ndarray:
    """Site-major random inputs, about one value in eight undefined."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, fmap.input_alphabet.size, (n_sites, rows)).astype(dtype)
    values[rng.random(values.shape) < 0.125] = -1
    return values


@pytest.mark.parametrize("spec", _LISTED)
@pytest.mark.parametrize("rows", [1, 37])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_site_major_batch_equals_per_row_apply(spec, rows, dtype):
    fmap = parse_map_spec(spec)
    sites = ball(4)
    # the output window reaches past the input window, where outputs are undefined
    for out_sites in (sites, ball(2), ball(5)):
        values = _inputs(fmap, len(sites), rows, seed=len(out_sites) + rows, dtype=dtype)
        got = fmap.apply_batch(values, sites, out_sites)
        assert got.shape == (len(out_sites), rows)
        np.testing.assert_array_equal(got, _per_row(fmap, values, sites, out_sites))


@pytest.mark.parametrize("spec", _LISTED)
def test_site_major_batch_on_windows_with_no_sites(spec):
    fmap = parse_map_spec(spec)
    empty = SiteSet([])
    # no input sites: every output is undefined
    values = np.empty((0, 5), dtype=np.int8)
    got = fmap.apply_batch(values, empty, ball(1))
    assert got.shape == (len(ball(1)), 5) and (got == -1).all()
    np.testing.assert_array_equal(got, _per_row(fmap, values, empty, ball(1)))
    # no output sites: an empty (0, rows) result
    values = _inputs(fmap, len(ball(2)), 5, seed=3, dtype=np.int8)
    assert fmap.apply_batch(values, ball(2), empty).shape == (0, 5)
