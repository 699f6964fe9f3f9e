"""Independent reference implementations used to pin expected values.

These deliberately avoid the package's evaluation machinery: the group
arithmetic works on letter tuples where the package works on shortlex
codes, the reducer rescans from scratch, the map oracles read values
straight off the defining formulas, and the solver oracle is scipy's
brentq.  They exist so the fast paths are checked against something that
cannot share their bugs.

The first few helpers are building blocks that only tests use: block
codes given by integer a-offsets, the inverse of a relabeling, the
split-apply-merge lift that ``CoinducedCellMap`` replaced, a point mass,
a random reduced word and a plain alphabet.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from bernshift import (
    IDENTITY,
    Alphabet,
    BlockMap,
    ComposedMap,
    Configuration,
    CosetConfiguration,
    Distribution,
    EnumerationTooLarge,
    InsufficientRadius,
    PropertyReport,
    SiteSet,
    Word,
    ball,
    bit_alphabet,
    coinduced_act,
    from_coset_config,
    restrict,
    timar,
    to_coset_config,
    translate,
)
from bernshift.coinduce import NotInSubgroup, _slot_codes, _window, a_exponents, cocycles, coset_configs_agree
from bernshift.config import DEFAULT_ENUMERATION_CAP
from bernshift.freegroup import GEN_A, GEN_A_INV, GEN_B, GEN_B_INV, _longest, decode, encode, random_reduced_codes


def mul(g1: Word, g2: Word) -> Word:
    """The reduced product g1*g2 on letters: cancellation happens only at
    the seam."""
    left = list(g1.letters)
    for s in g2.letters:
        if left and left[-1] == s ^ 1:
            left.pop()
        else:
            left.append(s)
    return Word(left)


def inv(g: Word) -> Word:
    """The reduced inverse: the letters reversed, each inverted."""
    return Word(s ^ 1 for s in reversed(g.letters))


def gen_power(g: Word, letter: int, k: int) -> Word:
    """g * s^k for a generator code s; negative k uses the inverse letter."""
    s = letter if k >= 0 else letter ^ 1
    return mul(g, Word((s,) * abs(k)))


def a_power_decomposition(g: Word) -> tuple[Word, int]:
    """Split g = rep * a^n where rep has no trailing a-family letter: in a
    reduced word the trailing a-run has a single sign, so n is the signed
    run length, and rep is the canonical representative of the coset g<a>."""
    letters = g.letters
    i = len(letters)
    while i > 0 and letters[i - 1] in (GEN_A, GEN_A_INV):
        i -= 1
    run = letters[i:]
    n = len(run) if (not run or run[0] == GEN_A) else -len(run)
    return Word(letters[:i]), n


def coset_of(g: Word) -> Word:
    """The canonical representative of the coset g<a>."""
    return a_power_decomposition(g)[0]


def reduce_word(letters) -> Word:
    """Free reduction with a stack: each letter cancels the one before it
    if they are inverse."""
    stack = []
    for s in letters:
        if stack and stack[-1] == s ^ 1:
            stack.pop()
        else:
            stack.append(s)
    return Word(stack)


def shortlex_key(w: Word) -> tuple:
    """Shortlex order on letters: length first, then the letter order."""
    return (len(w.letters), w.letters)


class ZBlockMap(BlockMap):
    """A sliding block code over H = <a>: output at position j is
    table[v(j + o1), ..., v(j + ok)] for integer offsets o.

    It is stored as the block code with offsets a^o, which on group-indexed
    configurations acts along every <a>-coset at once.
    """

    def __init__(self, name, a_in, a_out, offsets, table):
        super().__init__(name, a_in, a_out, [gen_power(IDENTITY, GEN_A, o) for o in offsets], table)


def z_relabel(name, a_in, a_out, mapping) -> ZBlockMap:
    return ZBlockMap(name, a_in, a_out, (0,), np.asarray(mapping))


def relabel_inverse(phi: BlockMap) -> BlockMap:
    """The inverse of a single-site bijective relabeling."""
    inv_table = np.empty_like(phi.table)
    inv_table[phi.table] = np.arange(phi.table.size)
    return BlockMap(f"{phi.name}^-1", phi.output_alphabet, phi.input_alphabet, (IDENTITY,), inv_table)


def coinduce_factor(phi: BlockMap, y: CosetConfiguration) -> CosetConfiguration:
    """Coset-wise application of a block code along <a> (a ZBlockMap or a
    relabeling): row c of the result is phi applied to row c of the input,
    undefined where some j + o is off the window or undefined.

    The block code itself runs on the merged slots, where the site c * a^j
    reads c * a^(j + o), and the result is split back on the same window
    and read on y's own cosets: a coset with no defined slot has no site
    after the merge, and its row comes back all undefined.
    This is the split-apply-merge path that ``CoinducedCellMap`` replaced."""
    if y.alphabet != phi.input_alphabet:
        raise ValueError(f"{phi.name} expects {phi.input_alphabet.name}, got {y.alphabet.name}")
    a_exponents(phi)  # a rule that reads outside its own coset is refused
    z = to_coset_config(phi.apply(from_coset_config(y)), y.window)
    rows = dict(zip(z.cosets, z.values))
    empty = (None,) * (2 * y.window + 1)
    return CosetConfiguration(phi.output_alphabet, y.cosets, y.window, tuple(rows.get(c, empty) for c in y.cosets))


def point_mass(alphabet, symbol_index) -> Distribution:
    w = [Fraction(0)] * alphabet.size
    w[symbol_index] = Fraction(1)
    return Distribution(alphabet, tuple(w))


def random_word(rng, max_len) -> Word:
    """A random reduced word of length uniform in [0, max_len]."""
    return decode(random_reduced_codes(rng, 1, max_len))[0]


def plain_alphabet(name, symbols) -> Alphabet:
    return Alphabet(name, tuple(symbols), tag="plain")


# The largest table a group of fused block stages may hold, by the grouping rule.
FUSED_ENTRIES = 1 << 16


def read_cone(group) -> list:
    """The read cone of a group of block stages: the products o_last...o_first
    of one offset per stage, listed level by level from e with the last
    stage's offsets first, each product where it first appears.  A fused
    step's table rows and flat index read the cone in this order."""
    level = [IDENTITY]
    for stage in reversed(group):
        level = list(dict.fromkeys(mul(p, o) for p in level for o in stage.offsets))
    return level


def plan_units(stages) -> list:
    """The units a plan runs for ``stages``, in order: a list of stages for
    each group of adjacent block stages, and any other stage on its own.  A
    block stage joins the group before it while the group's first input
    alphabet size to the power of its read cone's size stays within
    FUSED_ENTRIES, and always if its one offset is e."""
    units = []
    for stage in stages:
        if isinstance(stage, BlockMap) and units and isinstance(units[-1], list):
            size = units[-1][0].input_alphabet.size
            if stage.offsets == (IDENTITY,) or size ** len(read_cone(units[-1] + [stage])) <= FUSED_ENTRIES:
                units[-1].append(stage)
                continue
        units.append([stage] if isinstance(stage, BlockMap) else stage)
    return units


def group_sites(group) -> SiteSet:
    """M, every site a group's output at e passes through: e, the read cone
    and the sites of the stages in between."""
    return ComposedMap(group).dependency_sites(SiteSet([IDENTITY]), 0)


def fused_table(group) -> np.ndarray:
    """A group's table by brute force: every input of its read cone (the
    first cone site the most significant digit), -1 on M's other sites, run
    through the stages one at a time on the window M; the output at e."""
    cone, sites = read_cone(group), group_sites(group)
    size = group[0].input_alphabet.size
    values = np.full((len(sites), size ** len(cone)), -1, dtype=np.int64)
    values[[sites.position(r) for r in cone]] = np.indices((size,) * len(cone)).reshape(len(cone), values.shape[1])
    for stage in group:
        padded = np.vstack([values, np.full((1, values.shape[1]), -1)])  # row -1: off the window
        flat, valid = np.zeros(values.shape, dtype=np.int64), np.ones(values.shape, dtype=bool)
        for off in stage.offsets:
            pos = [sites.position(mul(g, off)) for g in sites]
            col = padded[[-1 if j is None else j for j in pos]]
            valid &= col >= 0
            flat = flat * stage.input_alphabet.size + np.maximum(col, 0)
        values = np.where(valid, stage.table.ravel()[flat], -1)
    return values[sites.position(IDENTITY)]


def naive_reduce(letters):
    """Repeatedly delete the first adjacent inverse pair until none remain."""
    w = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == w[i + 1] ^ 1:
                del w[i : i + 2]
                changed = True
                break
    return tuple(w)


def translate_direct(g: Word, x: Configuration, site: Word):
    """(g.x)(f) = x(g^-1 f), evaluated one site at a time."""
    return x.value_at(mul(inv(g), site))


def ow_direct(x: Configuration, g: Word):
    """(x(g)+x(ga), x(g)+x(gb)) packed as c1 + 2*c2, or None."""
    v0 = x.value_at(g)
    va = x.value_at(gen_power(g, GEN_A, 1))
    vb = x.value_at(gen_power(g, GEN_B, 1))
    if v0 is None or va is None or vb is None:
        return None
    return ((v0 + va) % 2) + 2 * ((v0 + vb) % 2)


def star_direct(x: Configuration, g: Word):
    """Star rule by the book: absorb stars, scan each generator ray for
    the first non-star bit, undefined if a scan leaves the defined region."""
    star = 2
    v = x.value_at(g)
    if v is None:
        return None
    if v == star:
        return 4

    def scan(letter):
        k = 1
        while True:
            val = x.value_at(gen_power(g, letter, k))
            if val is None:
                return None
            if val != star:
                return val
            k += 1

    first_a = scan(GEN_A)
    first_b = scan(GEN_B)
    if first_a is None or first_b is None:
        return None
    return ((v + first_a) % 2) + 2 * ((v + first_b) % 2)


def split_direct(x: Configuration, window=None) -> CosetConfiguration:
    """The <a>-coset split slot by slot: (c, j) holds x at c * a^j."""
    w = window if window is not None else max((len(s) for s in x.sites), default=0)
    cosets = sorted({coset_of(s) for s in x.sites}, key=shortlex_key)
    rows = []
    for c in cosets:
        rows.append(tuple(x.value_at(gen_power(c, GEN_A, j)) for j in range(-w, w + 1)))
    return CosetConfiguration(x.alphabet, tuple(cosets), w, tuple(rows))


def merge_direct(y: CosetConfiguration) -> Configuration:
    """The merge slot by slot: the site c * a^j holds entry (c, j), for
    every slot of the window that holds a value."""
    w = y.window
    pairs = []
    for i, c in enumerate(y.cosets):
        row = y.values[i]
        for j in range(-w, w + 1):
            if row[j + w] is not None:
                pairs.append((gen_power(c, GEN_A, j), row[j + w]))
    sites = SiteSet(word for word, _ in pairs)
    values = [None] * len(sites)
    for word, v in pairs:
        values[sites.position(word)] = v
    return Configuration(y.alphabet, sites, values)


# The dense coset kernels the held-slot ones replaced, kept verbatim but for
# their names: every coset holds all 2w + 1 positions of its window in one
# (n_cosets, 2w + 1, ...) grid, -1 where no site.


@functools.lru_cache(maxsize=512)
def _act_gather_dense(coset_sites: SiteSet, window: int, g: Word) -> tuple[np.ndarray, ...]:
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


def act_grid_dense(g: Word, reps: SiteSet, grid: np.ndarray) -> np.ndarray:
    """The coinduced action on an (n_cosets, 2w + 1, rows) grid over the
    representatives ``reps``: the entry at coset c is the a-shift, by the
    cocycle exponent, of the entry at coset g^-1 c.

    One gather of the grid.  Cosets whose source falls outside ``reps``
    become undefined, as do window positions shifted off the edge.
    """
    rows, cols, inside = _act_gather_dense(reps, grid.shape[1] // 2, g)
    return np.where(inside[..., None], grid[rows, cols], -1)


def split_grid_dense(sites: SiteSet, values: np.ndarray, window: int | None = None) -> tuple[SiteSet, np.ndarray]:
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


def merge_grid_dense(reps: SiteSet, grid: np.ndarray) -> tuple[SiteSet, np.ndarray]:
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


def agree_grid_dense(reps1: SiteSet, grid1: np.ndarray, reps2: SiteSet, grid2: np.ndarray) -> dict[int, dict]:
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


def cocycle_direct(g: Word, c: Word) -> int:
    """The transfer cocycle rep(c)^-1 * g * rep(g^-1 c) as an a-exponent,
    read off the letters of the reduced product in Word arithmetic."""
    c = coset_of(c)
    prod = mul(mul(inv(c), g), coset_of(mul(inv(g), c)))
    letters = prod.letters
    if not letters:
        return 0
    if all(s == 0 for s in letters):
        return len(letters)
    if all(s == 1 for s in letters):
        return -len(letters)
    raise NotInSubgroup(f"cocycle({g}, {c}) reduced to {prod}, not an a-power")


def coinduced_act_direct(g: Word, y: CosetConfiguration) -> CosetConfiguration:
    """The coinduced action coset by coset: row c is the row of the coset
    of g^-1 c, a-shifted by the cocycle exponent, in Word arithmetic."""
    w = y.window
    rank = {c: i for i, c in enumerate(y.cosets)}
    rows = []
    for c in y.cosets:
        i = rank.get(coset_of(mul(inv(g), c)))
        if i is None:
            rows.append((None,) * (2 * w + 1))
            continue
        n = cocycle_direct(g, c)
        old = y.values[i]
        # (a^n v)(a^j) = v(a^(j-n))
        rows.append(tuple(old[j - n + w] if -w <= j - n <= w else None for j in range(-w, w + 1)))
    return CosetConfiguration(y.alphabet, y.cosets, w, tuple(rows))


def coset_configs_agree_direct(y1: CosetConfiguration, y2: CosetConfiguration):
    """First slot, in (coset of y1, position) order, where both are defined
    and differ, read slot by slot."""
    w = min(y1.window, y2.window)
    rank = {c: i for i, c in enumerate(y2.cosets)}
    for i1, c in enumerate(y1.cosets):
        i2 = rank.get(c)
        if i2 is None:
            continue
        for j in range(-w, w + 1):
            v1 = y1.values[i1][j + y1.window]
            v2 = y2.values[i2][j + y2.window]
            if v1 is not None and v2 is not None and v1 != v2:
                return {"coset": str(c), "position": j, "lhs": v1, "rhs": v2}
    return None


def cell_row_direct(cell, row, w):
    """A block code along <a> (offsets a^o) on one window row, position
    by position."""
    exponents = [a_power_decomposition(off)[1] for off in cell.offsets]
    out = []
    for j in range(-w, w + 1):
        args = []
        for o in exponents:
            v = row[j + o + w] if -w <= j + o <= w else None
            if v is None:
                args = None
                break
            args.append(v)
        out.append(None if args is None else int(cell.table[tuple(args)]))
    return tuple(out)


def coinduce_factor_direct(cell, y: CosetConfiguration) -> CosetConfiguration:
    rows = tuple(cell_row_direct(cell, row, y.window) for row in y.values)
    return CosetConfiguration(cell.output_alphabet, y.cosets, y.window, rows)


def coinduced_lift_direct(cell, x: Configuration) -> Configuration:
    """Split-apply-merge: split x along the cosets, apply the cell map to
    every coset row, merge, and read the result on x's sites."""
    merged = merge_direct(coinduce_factor_direct(cell, split_direct(x)))
    return Configuration(cell.output_alphabet, x.sites, [merged.value_at(w) for w in x.sites])


def compose_stagewise(stages, x: Configuration) -> Configuration:
    """A composition one stage at a time, each on the whole window."""
    for stage in stages:
        x = stage.apply(x)
    return x


def ball_direct(r):
    """The reduced words of length <= r in shortlex order, grown one
    letter at a time from the words of the previous length."""
    words = [Word()]
    frontier = [Word()]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for s in (GEN_A, GEN_A_INV, GEN_B, GEN_B_INV):
                if not w.letters or w.letters[-1] != s ^ 1:
                    nxt.append(Word(w.letters + (s,)))
        words.extend(nxt)
        frontier = nxt
    return words


def shortlex_sorted(words):
    return sorted(set(words), key=shortlex_key)


def neighbor_indices_direct(words, offset, of=None):
    """For each word g of ``of`` (default: ``words``), the shortlex rank of
    g*offset among ``words``, or -1 if absent."""
    index = {w: i for i, w in enumerate(shortlex_sorted(words))}
    return [index.get(mul(g, offset), -1) for g in shortlex_sorted(of if of is not None else words)]


def ray_indices_direct(words, letter, of=None):
    """Rows of the ranks of g*s, g*s^2, ... among ``words``, each up to the
    first power that is absent, and their lengths."""
    index = {w: i for i, w in enumerate(shortlex_sorted(words))}
    rows = []
    for g in shortlex_sorted(of if of is not None else words):
        row = []
        cur = mul(g, Word((letter,)))
        while cur in index:
            row.append(index[cur])
            cur = mul(cur, Word((letter,)))
        rows.append(row)
    width = max(map(len, rows), default=0)
    return [row + [-1] * (width - len(row)) for row in rows], [len(row) for row in rows]


def expand_walk(rays):
    """The padded (rays, steps) index array and the ray lengths of a
    ``(first, walk)`` pair of ``SiteSet.ray_indices``, in the form of
    ``ray_indices_direct``: row i follows ``walk`` from ``first[i]``, one
    take per step, until every ray reads -1.  A ray that restarts after
    its -1 runs past the longest ray a set can hold, and fails here."""
    first, walk = rays
    bound = len(walk)  # no ray of a set of len(walk) - 1 sites is longer
    steps, pos = [], np.asarray(first)
    while (pos >= 0).any():
        assert len(steps) < bound, "a ray outran its set: an ended ray restarted"
        steps.append(pos)
        pos = walk.take(pos)
    padded = np.array(steps, dtype=np.int64).reshape(len(steps), len(first)).T
    lengths = (padded >= 0).sum(axis=1)
    # a ray is a run of sites, then -1 to the end
    assert all((row[:n] >= 0).all() and (row[n:] < 0).all() for row, n in zip(padded, lengths))
    return padded, lengths


def first_bits_direct(values, rays, star):
    """The first non-star value along each ray of a padded (rays, steps)
    index array over a site-major (sites, columns) array, cell by cell:
    walk row i for column j until a value that is not ``star``
    (an undefined -1 included); -1 if the ray leaves the set (a -1 index)
    or runs out while still seeing stars."""
    n_cols, values = values.shape[1], values.tolist()
    out = [[-1] * n_cols for _ in rays]
    for i, ray in enumerate(rays.tolist()):
        for j in range(n_cols):
            for site in ray:
                if site < 0:
                    break
                if values[site][j] != star:
                    out[i][j] = values[site][j]
                    break
    return out


def coset_table_direct(words):
    """(representatives, coset number, a-exponent) by decomposing every
    word of the shortlex-sorted set."""
    words = shortlex_sorted(words)
    parts = [a_power_decomposition(w) for w in words]
    reps = shortlex_sorted(rep for rep, _ in parts)
    rank = {rep: i for i, rep in enumerate(reps)}
    return reps, [rank[rep] for rep, _ in parts], [n for _, n in parts]


def dependency_direct(out_words, offsets):
    """{g * w : g in out_words, w in offsets}, sorted."""
    return shortlex_sorted(mul(g, w) for g in out_words for w in offsets)


def star_dependency_direct(out_words, budget):
    """The sites and their a- and b-rays, each up to its first power
    longer than the budget."""
    words = set(out_words)
    for g in out_words:
        for letter in (GEN_A, GEN_B):
            cur = mul(g, Word((letter,)))
            while len(cur) <= budget:
                words.add(cur)
                cur = mul(cur, Word((letter,)))
    return shortlex_sorted(words)


def translated_direct(words, g):
    """g * words as a sorted list, and where each translate lands in it."""
    moved = [mul(g, w) for w in shortlex_sorted(words)]
    new = shortlex_sorted(moved)
    rank = {w: i for i, w in enumerate(new)}
    return new, [rank[m] for m in moved]


def random_word_direct(rng, max_len):
    """A random reduced word drawn one scalar at a time: the length, then
    a pick for each of the max_len positions, among the four letters at the
    first and among the three that do not cancel the one before after it;
    only the first ``length`` picks are kept."""
    n = int(rng.integers(0, max_len + 1))
    letters = []
    for k in range(max_len):
        choices = [s for s in (0, 1, 2, 3) if not letters or letters[-1] != s ^ 1]
        pick = int(choices[rng.integers(0, 4 if k == 0 else 3)])
        if k < n:
            letters.append(pick)
    return Word(letters)


def config_from_index(alphabet, sites, index):
    """Configuration number ``index``: site j holds (index // size^j) % size."""
    size = alphabet.size
    values = []
    q = index
    for _ in range(len(sites)):
        values.append(q % size)
        q //= size
    if q:
        raise ValueError(f"index {index} out of range")
    return Configuration(alphabet, sites, values)


def enumerate_configurations(alphabet, sites, cap=DEFAULT_ENUMERATION_CAP):
    """Every total configuration once, with site 0 varying fastest (the
    order of ``config_from_index`` and ``config.index_matrix``)."""
    total = alphabet.size ** len(sites)
    if total > cap:
        raise EnumerationTooLarge(f"{total} configurations exceed cap {cap}")
    for rev in itertools.product(range(alphabet.size), repeat=len(sites)):
        yield Configuration(alphabet, sites, rev[::-1])


def compose(maps, x):
    """Apply a list of maps left to right (empty list: identity)."""
    return ComposedMap(maps).apply(x)


def timar_bits(x, m):
    """The m-plane expansion of x; raises if no output site is defined."""
    out = timar(m).apply(x)
    if out.defined_count == 0:
        raise InsufficientRadius(f"timar:{m} needs radius {m} of margin; no output site is defined")
    return out


def full_group_act(g, x):
    """The degenerate subgroup H = F2: one coset, the section is the
    identity, the cocycle is g itself, and the coinduced action is the shift."""
    return translate(g, x)


def config_mismatch(lhs: Configuration, rhs: Configuration):
    """First site of lhs where both sides are defined but disagree, each
    site looked up in rhs's own site set."""
    v1 = lhs.indices
    v2 = np.append(rhs.indices, -1)[rhs.sites.indices_of(lhs.sites)]
    bad = np.flatnonzero((v1 >= 0) & (v2 >= 0) & (v1 != v2))
    if not len(bad):
        return None
    i = int(bad[0])
    return {"site": str(lhs.sites[i]), "lhs": int(v1[i]), "rhs": int(v2[i])}


def check_equivariance_direct(fmap, r, trials, seed, *, g_radius=2):
    """The equivariance check one trial at a time: draw g and x, apply the
    map to g.x and to x, and compare g.(map x) with map(g.x)."""
    rng = np.random.default_rng(seed)
    sites = ball(r)
    g_pool = ball(g_radius).words
    alpha = fmap.input_alphabet
    failures = 0
    first = None
    for t in range(trials):
        g = g_pool[int(rng.integers(len(g_pool)))]
        x = Configuration(alpha, sites, rng.integers(0, alpha.size, len(sites)))
        mismatch = config_mismatch(fmap.apply(translate(g, x)), translate(g, fmap.apply(x)))
        if mismatch is not None:
            failures += 1
            if first is None:
                first = {"trial": t, "g": str(g), **mismatch, "x": x.to_json()}
    return PropertyReport(f"equivariance[{fmap.name}]", trials, failures, first, seed)


def check_cocycle_direct(trials, seed, max_len=6):
    """The cocycle check one trial at a time in Word arithmetic."""
    rng = np.random.default_rng(seed)
    failures = 0
    first = None
    for t in range(trials):
        g1 = random_word_direct(rng, max_len)
        g2 = random_word_direct(rng, max_len)
        c = coset_of(random_word_direct(rng, max_len))
        lhs = cocycle_direct(mul(g1, g2), c)
        rhs = cocycle_direct(g1, c) + cocycle_direct(g2, coset_of(mul(inv(g1), c)))
        if lhs != rhs:
            failures += 1
            if first is None:
                first = {"trial": t, "g1": str(g1), "g2": str(g2), "coset": str(c), "lhs": lhs, "rhs": rhs}
    return PropertyReport("cocycle_identity", trials, failures, first, seed)


def check_coset_roundtrip_direct(r, trials, seed, *, g_radius=2):
    """The coset round-trip check one trial at a time: split x, merge it
    back onto its sites, then compare the split of g.x with the coinduced
    action of g on the split of x."""
    rng = np.random.default_rng(seed)
    sites = ball(r)
    g_pool = ball(g_radius).words
    alpha = bit_alphabet(1)
    failures = 0
    first = None
    for t in range(trials):
        x = Configuration(alpha, sites, rng.integers(0, 2, len(sites)))
        g = g_pool[int(rng.integers(len(g_pool)))]
        y = to_coset_config(x)
        lost = np.flatnonzero(restrict(from_coset_config(y), x.sites).indices != x.indices)
        if len(lost):
            bad = {"kind": "roundtrip", "site": str(x.sites[int(lost[0])])}
        else:
            mismatch = coset_configs_agree(to_coset_config(translate(g, x)), coinduced_act(g, y))
            bad = None if mismatch is None else {"kind": "equivariance", "g": str(g), **mismatch}
        if bad is not None:
            failures += 1
            if first is None:
                first = {"trial": t, **bad, "x": x.to_json()}
    return PropertyReport("coset_conjugacy", trials, failures, first, seed)


def three_symbol_entropy(p):
    q = 1 - 2 * p
    acc = -2 * p * math.log(p)
    if q > 0:
        acc -= q * math.log(q)
    return acc


def solve_p_oracle(H):
    return brentq(lambda p: three_symbol_entropy(p) - H, 1e-15, 1 / 3, xtol=1e-15, rtol=8.9e-16)
