"""Coset sections, the transfer cocycle, coinduced actions, and the
conjugacy between group-indexed and coset-indexed configurations.

Everything is instantiated for the concrete subgroup H = <a> inside the
rank-2 free group, where the coset normal form is exact: the canonical
representative of gH is g with its maximal trailing a-power stripped, and
H-elements are integer a-exponents.  The full-group subgroup H = F2 is
the degenerate one-coset case and needs no machinery (see
``full_group_act``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import Alphabet, Configuration, alphabet_by_name, translate
from .freegroup import GEN_A, GEN_A_INV, SiteSet, Word, a_power_decomposition, encode, inv, mul
from .freegroup import right_mul_codes


class NotInSubgroup(ValueError):
    """A cocycle value failed to reduce to an a-power (implementation bug
    by construction; surfaced as a runtime check rather than trusted)."""


def coset_of(g: Word) -> Word:
    """Canonical representative of the coset g<a> (also the section value)."""
    return a_power_decomposition(g)[0]


def cocycle(g: Word, c: Word) -> int:
    """The transfer cocycle rep(c)^-1 * g * rep(g^-1 c) as an a-exponent.

    The product always lies in <a>; if it does not reduce to a pure
    a-power the coset arithmetic is broken and we refuse to continue.
    """
    c = coset_of(c)
    rep2 = coset_of(mul(inv(g), c))
    prod = mul(mul(inv(c), g), rep2)
    letters = prod.letters
    if not letters:
        return 0
    if all(s == 0 for s in letters):
        return len(letters)
    if all(s == 1 for s in letters):
        return -len(letters)
    raise NotInSubgroup(f"cocycle({g}, {c}) reduced to {prod}, not an a-power")


@dataclass(frozen=True)
class CosetConfiguration:
    """Per-coset windows over H = <a>: entry (c, j) is the value at the
    a-power position j in the coset with representative c.

    Rows are indexed by the canonical (shortlex-sorted) representative
    list; each row covers positions -window..window, with None marking
    undefined slots.  ``coset_sites`` is the representatives' site set.
    """

    alphabet: Alphabet
    cosets: tuple[Word, ...]
    window: int
    values: tuple[tuple[int | None, ...], ...]
    coset_sites: SiteSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes = encode(self.cosets)
        if (codes[1:] <= codes[:-1]).any():
            raise ValueError("cosets must be distinct and shortlex-sorted")
        width = 2 * self.window + 1
        if any(len(row) != width for row in self.values):
            raise ValueError(f"each row must have {width} slots")
        # a canonical representative's last letter is no a-letter
        bad = np.flatnonzero((codes > 0) & ((codes - 1) % 4 <= GEN_A_INV))
        if len(bad):
            raise ValueError(f"{self.cosets[bad[0]]} is not a canonical coset representative")
        object.__setattr__(self, "coset_sites", SiteSet._from_sorted(codes))

    def coset_index(self, c: Word) -> int | None:
        return self.coset_sites.position(c)

    def value_at(self, c: Word, j: int) -> int | None:
        i = self.coset_index(coset_of(c))
        if i is None or abs(j) > self.window:
            return None
        return self.values[i][j + self.window]

    @property
    def defined_count(self) -> int:
        return sum(1 for row in self.values for v in row if v is not None)

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet.name,
            "cosets": [str(c) for c in self.cosets],
            "window": self.window,
            "values": [list(row) for row in self.values],
        }

    @classmethod
    def from_json(cls, data: dict, alphabet: Alphabet | None = None) -> "CosetConfiguration":
        alpha = alphabet if alphabet is not None else alphabet_by_name(data["alphabet"])
        cosets = tuple(Word.parse(s) for s in data["cosets"])
        values = tuple(tuple(row) for row in data["values"])
        return cls(alpha, cosets, data["window"], values)


def coinduced_act(g: Word, y: CosetConfiguration) -> CosetConfiguration:
    """The coinduced action: the entry at coset c is the a-shift, by the
    cocycle exponent, of the entry at coset g^-1 c.

    Cosets whose source falls outside the stored list become undefined,
    as do window positions shifted off the edge.
    """
    w = y.window
    rows: list[tuple[int | None, ...]] = []
    empty: tuple[int | None, ...] = (None,) * (2 * w + 1)
    for c in y.cosets:
        src = coset_of(mul(inv(g), c))
        i = y.coset_index(src)
        if i is None:
            rows.append(empty)
            continue
        n = cocycle(g, c)
        old = y.values[i]
        # (a^n v)(a^j) = v(a^(j-n))
        rows.append(
            tuple(
                old[j - n + w] if -w <= j - n <= w else None for j in range(-w, w + 1)
            )
        )
    return CosetConfiguration(y.alphabet, y.cosets, w, tuple(rows))


class ZBlockMap:
    """A sliding block code over H = <a>: output at position j is
    table[v(j + o1), ..., v(j + ok)] for integer offsets o."""

    def __init__(
        self,
        name: str,
        input_alphabet: Alphabet,
        output_alphabet: Alphabet,
        offsets: Sequence[int],
        table: np.ndarray,
    ):
        self.name = name
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.offsets = tuple(offsets)
        self.table = np.asarray(table)
        if self.table.shape != (input_alphabet.size,) * len(self.offsets):
            raise ValueError("table shape must be (size,) * len(offsets)")

    def apply_window(self, row: Sequence[int | None], w: int) -> tuple[int | None, ...]:
        out: list[int | None] = []
        for j in range(-w, w + 1):
            args = []
            for o in self.offsets:
                jj = j + o
                v = row[jj + w] if -w <= jj <= w else None
                if v is None:
                    args = None
                    break
                args.append(v)
            out.append(None if args is None else int(self.table[tuple(args)]))
        return tuple(out)

    def is_bijective_relabel(self) -> bool:
        return (
            self.offsets == (0,)
            and self.input_alphabet.size == self.output_alphabet.size
            and len(set(self.table.tolist())) == self.input_alphabet.size
        )

    def inverse(self) -> "ZBlockMap":
        if not self.is_bijective_relabel():
            raise ValueError(f"{self.name} is not an invertible relabeling")
        inv_table = np.empty_like(self.table)
        inv_table[self.table] = np.arange(self.table.size)
        return ZBlockMap(f"{self.name}^-1", self.output_alphabet, self.input_alphabet, (0,), inv_table)

    def __repr__(self) -> str:
        return f"<ZBlockMap {self.name}>"


def z_relabel(name: str, a_in: Alphabet, a_out: Alphabet, mapping: Sequence[int]) -> ZBlockMap:
    return ZBlockMap(name, a_in, a_out, (0,), np.asarray(mapping))


def coinduce_factor(phi: ZBlockMap, y: CosetConfiguration) -> CosetConfiguration:
    """Coset-wise application of a per-coset map: row c of the result is
    phi applied to row c of the input."""
    if y.alphabet != phi.input_alphabet:
        raise ValueError(f"{phi.name} expects {phi.input_alphabet.name}, got {y.alphabet.name}")
    rows = tuple(phi.apply_window(row, y.window) for row in y.values)
    return CosetConfiguration(phi.output_alphabet, y.cosets, y.window, rows)


def to_coset_config(x: Configuration, window: int | None = None) -> CosetConfiguration:
    """Split a group-indexed configuration along <a>-cosets: the entry at
    (c, j) is the value of x at rep(c) * a^j.

    This is the conjugacy between the shift on group-indexed points and
    the coinduced action on coset-indexed ones; on finite windows it is a
    pure re-indexing bijection of sites.  The re-indexing is compiled
    once per site set (``SiteSet.coset_table``), so a split is one
    scatter of the values into the (coset, position) grid.  The window
    defaults to the longest site length; with a smaller explicit window,
    sites farther than it along their coset are dropped.
    """
    table = x.sites.coset_table()
    # shortlex order: the last site is a longest one
    w = window if window is not None else (len(x.sites[-1]) if len(x.sites) else 0)
    if w < 0:
        raise ValueError(f"window must be nonnegative, got {w}")
    width = 2 * w + 1
    keep = np.abs(table.power) <= w
    slots = (table.coset * width + table.power + w)[keep]
    grid = np.full(len(table.reps) * width, None, dtype=object)
    grid[slots] = np.array(x.values, dtype=object)[keep]
    rows = tuple(map(tuple, grid.reshape(len(table.reps), width).tolist()))
    return CosetConfiguration(x.alphabet, table.reps, w, rows)


def from_coset_config(y: CosetConfiguration) -> Configuration:
    """Merge coset windows back to a group-indexed configuration: the
    value at g is the entry at (gH, a-exponent of g).

    The result's sites are every slot rep(c) * a^j with |j| <= window,
    defined or not.  A canonical representative ends in no a-letter, so
    each step along the a-run appends one digit to the slot's code; the
    slots are put in shortlex order by one sort of their codes, and the
    values are one permutation of the grid.
    """
    a, a_inv = Word((GEN_A,)), Word((GEN_A_INV,))
    up = down = y.coset_sites.codes
    columns = [up]
    for _ in range(y.window):
        up, down = right_mul_codes(up, a), right_mul_codes(down, a_inv)
        columns = [down, *columns, up]
    slots = np.stack(columns, axis=1).ravel()
    order = np.argsort(slots)
    sites = SiteSet._from_sorted(slots[order])
    flat = [v for row in y.values for v in row]
    values = [flat[k] for k in order.tolist()]
    return Configuration(y.alphabet, sites, values)


def coset_configs_agree(y1: CosetConfiguration, y2: CosetConfiguration) -> dict | None:
    """First disagreement on the common defined slots, or None."""
    w = min(y1.window, y2.window)
    for c in y1.cosets:
        if y2.coset_index(c) is None:
            continue
        for j in range(-w, w + 1):
            v1 = y1.value_at(c, j)
            v2 = y2.value_at(c, j)
            if v1 is not None and v2 is not None and v1 != v2:
                return {"coset": str(c), "position": j, "lhs": v1, "rhs": v2}
    return None


def full_group_act(g: Word, x: Configuration) -> Configuration:
    """Degenerate subgroup H = F2: one coset, the section is the identity,
    the cocycle is g itself, and the coinduced action is the shift."""
    return translate(g, x)
