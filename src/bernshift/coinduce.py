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

from .config import Alphabet, Configuration, alphabet_by_name, json_boundary, json_indices, symbol_indices
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


class SlotLayout:
    """Where the held slots of a coset configuration sit: coset-major, and
    by ascending a-exponent within a coset.  Coset i, with representative
    ``reps[i]``, holds slots ``offsets[i]:offsets[i + 1]``, and slot k is
    the site reps[i] * a**exponent[k], with |exponent[k]| <= ``window``.
    Values ride along as one (n_slots, ...) array in slot order.

    A layout split from a site set (``split_layout``) also keeps that set
    as ``sites`` and the index in it of every slot as ``order``, so that
    a merge is one take back onto its codes; any other layout has None in
    both.  Equal and hashed by its slots alone.  Immutable.
    """

    __slots__ = ("reps", "window", "offsets", "exponent", "sites", "order", "_hash")

    def __init__(self, reps: SiteSet, window: int, offsets: np.ndarray, exponent: np.ndarray,
                 sites: SiteSet | None = None, order: np.ndarray | None = None):
        for arr in (offsets, exponent, order):
            if arr is not None:
                arr.setflags(write=False)
        for name, value in zip(self.__slots__, (reps, window, offsets, exponent, sites, order, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SlotLayout is immutable")

    def _key(self) -> tuple:
        return (self.reps, self.window, self.offsets.tobytes(), self.exponent.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, SlotLayout) and (self is other or self._key() == other._key())

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __repr__(self) -> str:
        return f"SlotLayout({len(self.reps)} cosets, {len(self.exponent)} slots, w={self.window})"

    @property
    def slot_cosets(self) -> np.ndarray:
        """The coset number of every slot."""
        return np.repeat(np.arange(len(self.reps)), np.diff(self.offsets))

    def restrict(self, keep: np.ndarray) -> "SlotLayout":
        """The layout of the slots where ``keep`` is true."""
        kept = np.concatenate(([0], np.cumsum(keep)))
        order = None if self.order is None else self.order[keep]
        return SlotLayout(self.reps, self.window, kept[self.offsets], self.exponent[keep], self.sites, order)


def split_layout(sites: SiteSet, window: int | None = None) -> SlotLayout:
    """The layout of the split of ``sites`` along <a>-cosets: every site a
    slot, in the order of the cached ``SiteSet.coset_table``.  The window
    defaults to the longest site length; with a smaller explicit window,
    sites farther than it along their coset are dropped."""
    table = sites.coset_table()
    longest = _longest(sites.codes)
    w = _window(window) if window is not None else longest
    layout = SlotLayout(table.reps, w, table.offsets, table.exponent, sites, table.order)
    return layout if w >= longest else layout.restrict(np.abs(table.exponent) <= w)


def split_slots(sites: SiteSet, values: np.ndarray, window: int | None = None) -> tuple[SlotLayout, np.ndarray]:
    """Split values on ``sites`` (one row per site, any trailing shape)
    along <a>-cosets: the layout (``split_layout``), and the values in its
    slot order.

    This is the conjugacy between the shift on group-indexed points and
    the coinduced action on coset-indexed ones; on finite windows it is a
    pure re-indexing bijection of sites, compiled once per site set
    (``SiteSet.coset_table``), so a split is one take in the cached order.
    """
    layout = split_layout(sites, window)
    return layout, values.take(layout.order, axis=0)


def grid_of_slots(layout: SlotLayout, values: np.ndarray) -> np.ndarray:
    """The (n_cosets, 2w + 1, ...) grid of values in a layout's slot order:
    entry (c, j) is the value at reps[c] * a^j, -1 where no slot."""
    w = layout.window
    grid = np.full((len(layout.reps), 2 * w + 1, *values.shape[1:]), -1, dtype=values.dtype)
    grid[layout.slot_cosets, layout.exponent + w] = values
    return grid


def slots_of_grid(reps: SiteSet, grid: np.ndarray) -> tuple[SlotLayout, np.ndarray]:
    """The held slots of an (n_cosets, 2w + 1, ...) grid over the
    representatives ``reps``, those that hold a value (>= 0) in at least
    one entry of their trailing axes, and their values in slot order."""
    held = (grid >= 0).any(axis=tuple(range(2, grid.ndim)))
    coset, pos = np.nonzero(held)
    w = grid.shape[1] // 2
    offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(held, axis=1))))
    return SlotLayout(reps, w, offsets, pos - w), grid[coset, pos]


class CosetConfiguration:
    """Per-coset windows over H = <a>: entry (c, j) is the value at the
    a-power position j in the coset with representative c.

    Stored by held slots: a ``SlotLayout`` over ``coset_sites``, the site
    set of the canonical (shortlex sorted) representatives, with half-width
    ``window``, and ``slot_values``, the read-only symbol index of every
    slot that holds a value, in the layout's slot order and in the
    alphabet's ``symbol_dtype`` (int8 up to 128 symbols, else int64), like
    ``Configuration.indices``.  ``grid`` (a read-only (n_cosets, 2w + 1)
    array in the same dtype, whose row i covers positions -w..w of coset
    i, -1 = undefined), ``cosets`` (Words) and ``values`` (rows with None)
    are boundary views drawn when first asked.  The constructor takes the
    rows or the grid form (an integer array of any dtype), with symbol
    indices in 0..size-1 and None (rows) or -1 (grid) where undefined, and
    checks them as ``config.symbol_indices`` does.  Immutable.
    """

    __slots__ = ("alphabet", "layout", "slot_values", "_grid", "_values")

    def __init__(self, alphabet: Alphabet, cosets: Sequence[Word] | SiteSet, window: int, values):
        codes = cosets.codes if isinstance(cosets, SiteSet) else encode(cosets)
        if (codes[1:] <= codes[:-1]).any():
            raise ValueError("cosets must be distinct and shortlex-sorted")
        window = _window(window)
        width, rows = 2 * window + 1, len(values)
        if not isinstance(values, np.ndarray) or values.dtype == object:
            if any(len(row) != width for row in values):
                raise ValueError(f"each row must have {width} slots")
            values = [v for row in values for v in row]
        grid = symbol_indices(alphabet, values).reshape(rows, width)
        if len(grid) != len(codes):
            raise ValueError("one row per coset required")
        # a canonical representative's last letter is no a-letter
        bad = np.flatnonzero((codes > 0) & ((codes - 1) % 4 <= GEN_A_INV))
        if len(bad):
            raise ValueError(f"{decode(codes[bad[:1]])[0]} is not a canonical coset representative")
        sites = cosets if isinstance(cosets, SiteSet) else SiteSet._from_sorted(codes)
        self._set(alphabet, *slots_of_grid(sites, grid))

    @classmethod
    def _from_slots(cls, alphabet: Alphabet, layout: SlotLayout, values: np.ndarray) -> "CosetConfiguration":
        """From values in a layout's slot order, -1 where undefined, with no
        check: the slots that hold a value.  The values are a stored
        configuration's, so they are in the alphabet's ``symbol_dtype``
        already and are kept as they are."""
        held = values >= 0
        if not held.all():
            layout, values = layout.restrict(held), values[held]
        self = cls.__new__(cls)
        self._set(alphabet, layout, values)
        return self

    def _set(self, alphabet: Alphabet, layout: SlotLayout, values: np.ndarray) -> None:
        values.setflags(write=False)
        for name, value in zip(self.__slots__, (alphabet, layout, values, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CosetConfiguration is immutable")

    def __reduce__(self):
        return CosetConfiguration, (self.alphabet, self.coset_sites, self.window, self.grid)

    def _key(self) -> tuple:
        return (self.alphabet, self.layout, self.slot_values.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, CosetConfiguration) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"CosetConfiguration({self.alphabet.name}, {len(self.coset_sites)} cosets, w={self.window})"

    @property
    def coset_sites(self) -> SiteSet:
        return self.layout.reps

    @property
    def window(self) -> int:
        return self.layout.window

    @property
    def cosets(self) -> tuple[Word, ...]:
        return self.coset_sites.words

    @property
    def grid(self) -> np.ndarray:
        if self._grid is None:
            grid = grid_of_slots(self.layout, self.slot_values)
            grid.setflags(write=False)
            object.__setattr__(self, "_grid", grid)
        return self._grid

    @property
    def values(self) -> tuple[tuple[int | None, ...], ...]:
        if self._values is None:
            rows = tuple(tuple(None if v < 0 else v for v in row) for row in self.grid.tolist())
            object.__setattr__(self, "_values", rows)
        return self._values

    def value_at(self, c: Word, j: int) -> int | None:
        """The value at c * a^j, for any c: j is shifted by c's own
        a-exponent along its coset."""
        rep, power = strip_a_codes(encode([c]))
        i = self.coset_sites.position(decode(rep)[0])
        j += int(power[0])
        if i is None or abs(j) > self.window:
            return None
        lo, hi = self.layout.offsets[i : i + 2].tolist()
        k = lo + int(np.searchsorted(self.layout.exponent[lo:hi], j))
        return int(self.slot_values[k]) if k < hi and self.layout.exponent[k] == j else None

    @property
    def defined_count(self) -> int:
        return len(self.slot_values)

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
def _act_gather(layout: SlotLayout, g: Word) -> tuple[SlotLayout, np.ndarray]:
    """The layout after the action of g, and the slot of ``layout`` that
    each of its slots reads.

    With g^-1 c = rep(g^-1 c) * a**m the cocycle exponent is e = -m, so
    coset c takes the segment of rep(g^-1 c) with every exponent shifted
    by e, which keeps it sorted, and drops the slots shifted off the
    window; a coset whose source is not stored takes no slot.  Cached like
    ``translated_sites``.
    """
    src, e = cocycles(encode([g]), layout.reps.codes)
    rows = layout.reps._find(src)
    offsets = layout.offsets
    count = np.where(rows >= 0, np.diff(offsets)[rows], 0)
    start = np.concatenate(([0], np.cumsum(count)))
    # slot k of coset c reads slot offsets[rows[c]] + k - start[c]
    take = np.repeat(offsets[rows] - start[:-1], count) + np.arange(start[-1])
    exponent = layout.exponent.take(take) + np.repeat(e, count)
    inside = np.abs(exponent) <= layout.window
    kept = np.concatenate(([0], np.cumsum(inside)))
    take = take[inside]
    take.setflags(write=False)
    return SlotLayout(layout.reps, layout.window, kept[start], exponent[inside]), take


def act_slots(g: Word, layout: SlotLayout, values: np.ndarray) -> tuple[SlotLayout, np.ndarray]:
    """The coinduced action on values in a layout's slot order (any
    trailing shape): the entry at coset c is the a-shift, by the cocycle
    exponent, of the entry at coset g^-1 c.

    One take through ``_act_gather``.  Cosets whose source falls outside
    the representatives hold no slot after it, nor do slots shifted off
    the window.
    """
    # the cache keys on the slots alone, so that it keeps no split's site set alive
    moved, take = _act_gather(SlotLayout(layout.reps, layout.window, layout.offsets, layout.exponent), g)
    return moved, values.take(take, axis=0)


def coinduced_act(g: Word, y: CosetConfiguration) -> CosetConfiguration:
    """``act_slots`` on the slot values of y."""
    return CosetConfiguration._from_slots(y.alphabet, *act_slots(g, y.layout, y.slot_values))


def a_exponents(phi: BlockMap) -> list[int]:
    """The o of the offsets a^o of a block code along <a>."""
    reps, powers = strip_a_codes(encode(phi.offsets))
    if reps.any():
        raise ValueError(f"{phi.name} is not a block code along <a>")
    return powers.tolist()


def to_coset_config(x: Configuration, window: int | None = None) -> CosetConfiguration:
    """``split_slots`` on the indices of x: one take in the cached order."""
    return CosetConfiguration._from_slots(x.alphabet, *split_slots(x.sites, x.indices, window))


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


def merge_slots(layout: SlotLayout, values: np.ndarray) -> tuple[SiteSet, np.ndarray]:
    """Merge values in a layout's slot order (any trailing shape) back to
    group-indexed values: slot k of coset c is the site
    reps[c] * a^exponent[k].

    The result's sites are the slots that hold a value (>= 0) in at least
    one entry of their trailing axes, so values with no columns merge to
    the empty set.  A layout split from a site set takes its values back
    onto that set's codes, which are sorted already; any other sorts the
    codes of its slots (``_slot_codes``) and gathers its values in that
    order.
    """
    if layout.sites is not None:
        sites = layout.sites
        out = np.full((len(sites), *values.shape[1:]), -1, dtype=values.dtype)
        out[layout.order] = values
    else:
        w = layout.window
        slots = _slot_codes(layout.reps.codes[layout.slot_cosets], layout.exponent + w, w)
        order = np.argsort(slots)
        sites = SiteSet._from_sorted(slots.take(order))
        out = values.take(order, axis=0)
    held = (out >= 0).any(axis=tuple(range(1, out.ndim)))
    if held.all():
        return sites, out
    return SiteSet._from_sorted(sites.codes[held]), out[held]


def from_coset_config(y: CosetConfiguration) -> Configuration:
    """``merge_slots`` on the slot values of y: the configuration on the
    slots that hold a value, so that J^-1(J(x)) == x for every total x."""
    sites, values = merge_slots(y.layout, y.slot_values)
    return Configuration(y.alphabet, sites, values)


def agree_slots(layout1: SlotLayout, values1: np.ndarray, layout2: SlotLayout, values2: np.ndarray) -> dict[int, dict]:
    """Each column's first disagreement between (n_slots, columns) values in
    two layouts, on the slots that both hold within the smaller window and
    where both are defined, in the slot order of the first, keyed by
    column; columns that agree are absent.  Slots match by (coset,
    exponent): the keys coset * (2w + 1) + exponent + w of the second
    layout increase along its slots, so one search finds them."""
    w2 = layout2.window
    width2 = 2 * w2 + 1
    keys2 = layout2.slot_cosets * width2 + layout2.exponent + w2
    if not len(keys2):
        return {}
    cosets1 = layout1.slot_cosets
    rows = layout2.reps._find(layout1.reps.codes).take(cosets1)
    want = rows * width2 + layout1.exponent + w2
    at = np.minimum(np.searchsorted(keys2, want), len(keys2) - 1)
    common = (rows >= 0) & (np.abs(layout1.exponent) <= min(layout1.window, w2)) & (keys2[at] == want)
    slots = np.flatnonzero(common)
    lhs, rhs = values1[slots], values2[at[slots]]
    bad = (lhs >= 0) & (rhs >= 0) & (lhs != rhs)
    found = {}
    for c in np.flatnonzero(bad.any(axis=0)).tolist():
        k = int(np.argmax(bad[:, c]))
        s = int(slots[k])
        found[c] = {"coset": str(layout1.reps[int(cosets1[s])]), "position": int(layout1.exponent[s]),
                    "lhs": int(lhs[k, c]), "rhs": int(rhs[k, c])}
    return found


def coset_configs_agree(y1: CosetConfiguration, y2: CosetConfiguration) -> dict | None:
    """``agree_slots`` on the one column of y1 and y2, or None."""
    return agree_slots(y1.layout, y1.slot_values[:, None], y2.layout, y2.slot_values[:, None]).get(0)
