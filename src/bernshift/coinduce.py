"""Coset sections, the transfer cocycle, coinduced actions, and the
conjugacy between group-indexed and coset-indexed configurations.

Everything is instantiated for the concrete subgroup H = <a> inside the
rank-2 free group, where the coset normal form is exact: the canonical
representative of gH is g with its maximal trailing a-power stripped, and
H-elements are integer a-exponents.  The full-group subgroup H = F2 is
the degenerate one-coset case, whose coinduced action is the shift
itself (``config.translate``), and needs no machinery.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .config import Alphabet, Configuration, alphabet_by_name, json_boundary, json_indices
from .factormaps import BlockMap
from .freegroup import GEN_A_INV, SiteSet, Word, decode, encode
from .freegroup import _dtype, _longest, inv_codes, mul_codes, strip_a_codes


class NotInSubgroup(ValueError):
    """A cocycle value failed to reduce to an a-power (implementation bug
    by construction; surfaced as a runtime check rather than trusted)."""


def coset_of(g: Word) -> Word:
    """Canonical representative of the coset g<a> (also the section value)."""
    return decode(strip_a_codes(encode([g]))[0])[0]


def cocycles(g: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transfer cocycle rep(c)^-1 * g * rep(g^-1 c) = a**e, elementwise
    over codes g and canonical representatives c (broadcast against each
    other): the codes of rep(g^-1 c), and e.

    The product always lies in <a>: g * rep(g^-1 c) must strip to exactly
    c * a**e, or the coset arithmetic is broken and we refuse to continue.
    """
    src = strip_a_codes(mul_codes(inv_codes(g), c))[0]
    moved = mul_codes(g, src)
    rep, e = strip_a_codes(moved)
    bad = np.flatnonzero(rep != c)[:1]
    if len(bad):
        g, c = (np.broadcast_to(side, moved.shape)[bad] for side in (g, c))
        gw, cw = decode(np.concatenate([g, c]))
        prod = decode(mul_codes(inv_codes(c), moved[bad]))[0]
        raise NotInSubgroup(f"cocycle({gw}, {cw}) reduced to {prod}, not an a-power")
    return src, e


def cocycle(g: Word, c: Word) -> int:
    """The transfer cocycle at one g and the coset of c, as an a-exponent."""
    return int(cocycles(encode([g]), encode([coset_of(c)]))[1][0])


def _window(window) -> int:
    """A window half-width: a nonnegative integer, and no bool."""
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 0:
        raise ValueError(f"window must be a nonnegative integer, got {window!r}")
    return int(window)


class CosetConfiguration:
    """Per-coset windows over H = <a>: entry (c, j) is the value at the
    a-power position j in the coset with representative c.

    Stored as ``coset_sites``, the site set of the canonical (shortlex
    sorted) representatives, and ``grid``, a read-only (n_cosets, 2w + 1)
    int64 array whose row i covers positions -w..w of coset i (-1 =
    undefined).  ``cosets`` (Words) and ``values`` (rows with None) are
    boundary views built when first asked; the constructor takes either
    form of each.  Immutable.
    """

    __slots__ = ("alphabet", "coset_sites", "window", "grid", "_values")

    def __init__(self, alphabet: Alphabet, cosets: Sequence[Word] | SiteSet, window: int, values):
        codes = cosets.codes if isinstance(cosets, SiteSet) else encode(cosets)
        if (codes[1:] <= codes[:-1]).any():
            raise ValueError("cosets must be distinct and shortlex-sorted")
        window = _window(window)
        width = 2 * window + 1
        if not isinstance(values, np.ndarray) or values.dtype == object:
            if any(len(row) != width for row in values):
                raise ValueError(f"each row must have {width} slots")
            values = [[-1 if v is None else v for v in row] for row in values]
        grid = np.array(values, dtype=np.int64).reshape(len(values), width)
        if len(grid) != len(codes):
            raise ValueError("one row per coset required")
        # a canonical representative's last letter is no a-letter
        bad = np.flatnonzero((codes > 0) & ((codes - 1) % 4 <= GEN_A_INV))
        if len(bad):
            raise ValueError(f"{decode(codes[bad[:1]])[0]} is not a canonical coset representative")
        grid.setflags(write=False)
        sites = cosets if isinstance(cosets, SiteSet) else SiteSet._from_sorted(codes)
        for name, value in zip(self.__slots__, (alphabet, sites, window, grid, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CosetConfiguration is immutable")

    def __reduce__(self):
        return CosetConfiguration, (self.alphabet, self.coset_sites, self.window, self.grid)

    def _key(self) -> tuple:
        return (self.alphabet, self.coset_sites, self.window, self.grid.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, CosetConfiguration) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"CosetConfiguration({self.alphabet.name}, {len(self.coset_sites)} cosets, w={self.window})"

    @property
    def cosets(self) -> tuple[Word, ...]:
        return self.coset_sites.words

    @property
    def values(self) -> tuple[tuple[int | None, ...], ...]:
        if self._values is None:
            rows = tuple(tuple(None if v < 0 else v for v in row) for row in self.grid.tolist())
            object.__setattr__(self, "_values", rows)
        return self._values

    def value_at(self, c: Word, j: int) -> int | None:
        i = self.coset_sites.position(coset_of(c))
        if i is None or abs(j) > self.window:
            return None
        v = int(self.grid[i, j + self.window])
        return None if v < 0 else v

    @property
    def defined_count(self) -> int:
        return int(np.count_nonzero(self.grid >= 0))

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet.name,
            "cosets": [str(c) for c in self.cosets],
            "window": self.window,
            "values": [list(row) for row in self.values],
        }

    @classmethod
    @json_boundary
    def from_json(cls, data: dict) -> "CosetConfiguration":
        alpha = alphabet_by_name(data["alphabet"])
        cosets = tuple(Word.parse(s) for s in data["cosets"])
        window = _window(data["window"])
        values = tuple(tuple(json_indices(row, 2 * window + 1)) for row in data["values"])
        return cls(alpha, cosets, window, values)


@functools.lru_cache(maxsize=512)
def _act_gather(coset_sites: SiteSet, window: int, g: Word) -> tuple[np.ndarray, ...]:
    """Where the action of g reads each slot from: (row, column, inside).

    With g^-1 c = rep(g^-1 c) * a**m the cocycle exponent is -m, so slot
    (c, j) reads slot (g^-1 c, j + m), unless that coset is not stored or
    j + m is off the window.  Cached like ``translated_sites``.
    """
    src, e = cocycles(encode([g]), coset_sites.codes)
    rows = coset_sites._find(src)
    width = 2 * window + 1
    cols = np.arange(width) - e[:, None]
    inside = (rows >= 0)[:, None] & (cols >= 0) & (cols < width)
    gather = (np.maximum(rows, 0)[:, None], np.clip(cols, 0, width - 1), inside)
    for arr in gather:
        arr.setflags(write=False)
    return gather


def act_grid(g: Word, reps: SiteSet, grid: np.ndarray) -> np.ndarray:
    """The coinduced action on an (n_cosets, 2w + 1, rows) grid over the
    representatives ``reps``: the entry at coset c is the a-shift, by the
    cocycle exponent, of the entry at coset g^-1 c.

    One gather of the grid.  Cosets whose source falls outside ``reps``
    become undefined, as do window positions shifted off the edge.
    """
    rows, cols, inside = _act_gather(reps, grid.shape[1] // 2, g)
    return np.where(inside[..., None], grid[rows, cols], -1)


def coinduced_act(g: Word, y: CosetConfiguration) -> CosetConfiguration:
    """``act_grid`` on the one column of y."""
    moved = act_grid(g, y.coset_sites, y.grid[..., None])[..., 0]
    return CosetConfiguration(y.alphabet, y.coset_sites, y.window, moved)


def a_exponents(phi: BlockMap) -> list[int]:
    """The o of the offsets a^o of a block code along <a>."""
    reps, powers = strip_a_codes(encode(phi.offsets))
    if reps.any():
        raise ValueError(f"{phi.name} is not a block code along <a>")
    return powers.tolist()


def split_grid(sites: SiteSet, values: np.ndarray, window: int | None = None) -> tuple[SiteSet, np.ndarray]:
    """Split values on ``sites`` (one row per site, any trailing shape)
    along <a>-cosets: the representatives, and the (n_cosets, 2w + 1, ...)
    grid whose entry (c, j) is the value at rep(c) * a^j, -1 where no site.

    This is the conjugacy between the shift on group-indexed points and
    the coinduced action on coset-indexed ones; on finite windows it is a
    pure re-indexing bijection of sites, compiled once per site set
    (``SiteSet.coset_table``), so a split is one scatter into the grid.
    The window defaults to the longest site length; with a smaller
    explicit window, sites farther than it along their coset are dropped.
    """
    table = sites.coset_table()
    w = _window(window) if window is not None else _longest(sites.codes)
    keep = np.abs(table.power) <= w
    grid = np.full((len(table.reps), 2 * w + 1, *values.shape[1:]), -1, dtype=values.dtype)
    grid[table.coset[keep], table.power[keep] + w] = values[keep]
    return table.reps, grid


def to_coset_config(x: Configuration, window: int | None = None) -> CosetConfiguration:
    """``split_grid`` on the one column of x."""
    reps, grid = split_grid(x.sites, x.indices[:, None], window)
    return CosetConfiguration(x.alphabet, reps, grid.shape[1] // 2, grid[..., 0])


def _slot_codes(codes: np.ndarray, pos: np.ndarray, w: int) -> np.ndarray:
    """The codes of the slots rep * a^(pos - w), elementwise over the codes
    of canonical representatives and window positions 0 <= pos <= 2w.  A
    canonical representative ends in no a-letter, so a^j or A^j appends j
    digits 1 or 2 to its code c: rep * a^j = 4^j c + (4^j - 1) / 3 and
    rep * A^j = 4^j c + 2 (4^j - 1) / 3, in a dtype that holds them."""
    dtype = _dtype(codes, w)
    j = range(-w, w + 1)
    scale = np.array([4 ** abs(i) for i in j], dtype=dtype)
    tail = np.array([(4 ** abs(i) - 1) // 3 * (1 + (i < 0)) for i in j], dtype=dtype)
    slots = scale[pos] * codes.astype(dtype, copy=False)
    slots += tail[pos]
    return slots


def merge_grid(reps: SiteSet, grid: np.ndarray) -> tuple[SiteSet, np.ndarray]:
    """Merge an (n_cosets, 2w + 1, ...) grid over the representatives
    ``reps`` back to group-indexed values: the value at g is the entry at
    (gH, a-exponent of g).

    The result's sites are the slots rep(c) * a^j that hold a value (>= 0)
    in at least one entry of their trailing axes, so a grid with no columns
    merges to the empty set.  Taken position by position, the held slots'
    codes (``_slot_codes``) are sorted runs, which one stable sort merges
    into shortlex order; the values are gathered from the grid in it.
    """
    w = grid.shape[1] // 2
    held = (grid.swapaxes(0, 1) >= 0).any(axis=tuple(range(2, grid.ndim)))  # position-major
    pos, coset = divmod(np.flatnonzero(held), len(reps))
    slots = _slot_codes(reps.codes[coset], pos, w)
    order = np.argsort(slots, kind="stable")
    sites = SiteSet._from_sorted(slots.take(order, out=slots))  # sorted in place
    return sites, grid[coset.take(order), pos.take(order)]


def from_coset_config(y: CosetConfiguration) -> Configuration:
    """``merge_grid`` on the one column of y: the configuration on the
    slots that hold a value, so that J^-1(J(x)) == x for every total x."""
    sites, values = merge_grid(y.coset_sites, y.grid[..., None])
    return Configuration(y.alphabet, sites, values[:, 0])


def agree_grid(reps1: SiteSet, grid1: np.ndarray, reps2: SiteSet, grid2: np.ndarray) -> dict[int, dict]:
    """Each column's first disagreement on the common defined slots of two (n_cosets, 2w + 1, rows)
    grids, in (coset of grid1, position) order, keyed by column; columns that agree are absent."""
    w1, w2 = grid1.shape[1] // 2, grid2.shape[1] // 2
    w = min(w1, w2)
    rows = reps2.indices_of(reps1)
    common = np.flatnonzero(rows >= 0)
    lhs = grid1[common, w1 - w : w1 + w + 1]
    rhs = grid2[rows[common], w2 - w : w2 + w + 1]
    bad = ((lhs >= 0) & (rhs >= 0) & (lhs != rhs)).reshape(-1, lhs.shape[2])
    found = {}
    for c in np.flatnonzero(bad.any(axis=0)).tolist():
        i, k = divmod(int(np.argmax(bad[:, c])), 2 * w + 1)
        found[c] = {"coset": str(reps1[int(common[i])]), "position": k - w,
                    "lhs": int(lhs[i, k, c]), "rhs": int(rhs[i, k, c])}
    return found


def coset_configs_agree(y1: CosetConfiguration, y2: CosetConfiguration) -> dict | None:
    """``agree_grid`` on the one column of y1 and y2, or None."""
    return agree_grid(y1.coset_sites, y1.grid[..., None], y2.coset_sites, y2.grid[..., None]).get(0)
