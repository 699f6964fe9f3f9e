"""Windowed local rules on configurations: the doubling map, iterated
bit-plane expansion, the star map, and their compositions.

Every map is a descriptor object: it knows its alphabets, its window cost
(the radius a single application shaves off the defined region, or None
for unbounded ray lookahead), how to apply itself to one configuration,
and how to evaluate itself on a whole batch of value matrices at once.
Batch matrices are site-major, (sites, rows): each site's values across
the batch are one contiguous row, so a kernel's per-site gather copies
whole rows.  Batch evaluation runs a ``Plan``, the map compiled once per
pair of site sets into block, star and gather steps and memoized on the
input window; adjacent block stages run as one block step of their fused
table, built once per distinct group of stages.  A kernel builds its undefined-cell masks only where a -1
can occur: a total input read through complete index tables needs none.
Descriptors are immutable and shareable across threads.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Iterable, Sequence

import numpy as np

from .config import (Alphabet, Configuration, Distribution, bit_alphabet, block_rows, index_matrix, star_alphabet,
                     symbol_dtype)
from .freegroup import _SINGLE, GEN_A, GEN_B, IDENTITY, SiteSet, Word, code_lengths, encode, mul_codes, right_mul_codes


class AlphabetMismatch(ValueError):
    """A map was applied to a configuration over the wrong alphabet."""


class InsufficientRadius(ValueError):
    """The input window is too small to define any output site."""


class FactorMap:
    """Base descriptor.  Subclasses fill in the evaluation strategy."""

    name: str
    input_alphabet: Alphabet | None
    output_alphabet: Alphabet | None
    window_cost: int | None  # None = unbounded lookahead

    def apply(self, x: Configuration) -> Configuration:
        """The batch kernel on the one row of x, over x's own sites: the plan
        reads x's indices as they are stored, in the input alphabet's
        ``symbol_dtype``, and its output, in the output alphabet's, is stored
        as it comes (the constructor copies it; nothing widens)."""
        self.check_alphabet(x)
        out = self.apply_batch(x.indices[:, None], x.sites, x.sites)[:, 0]
        # only the empty composition has no output alphabet: it is the identity
        return Configuration(self.output_alphabet or x.alphabet, x.sites, out)

    def apply_batch(self, values: np.ndarray, sites: SiteSet, out_sites: SiteSet) -> np.ndarray:
        """Evaluate on a site-major (|sites|, n) index matrix (-1 =
        undefined) of any integer dtype: row j holds the n inputs' values
        at ``sites[j]``.  Returns the (|out_sites|, n) matrix laid out the
        same way, -1 where undefined, in the ``symbol_dtype`` of the output
        alphabet (the empty composition keeps the input's dtype, in a copy).
        Runs ``plan(sites, out_sites)``."""
        return self.plan(sites, out_sites)(values)

    def plan(self, sites: SiteSet, out_sites: SiteSet) -> Plan:
        """This map compiled from ``sites`` to ``out_sites``: a ``Plan`` of
        steps whose last emits ``out_sites``' window positions, memoized on
        ``sites`` like its neighbour tables.  The window holds the map by
        weak reference and no plan refers to a map, so a plan lives as long
        as its window and its map.  Compiled by a subclass (``_compile``)."""
        own = sites._own(out_sites)
        key = None if own else out_sites
        plans = sites._plans.setdefault(self, {})
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = self._compile(sites, sites if own else out_sites)
        return plan

    def _compile(self, sites: SiteSet, out_sites: SiteSet) -> Plan:
        """The plan; every array it holds is read-only, since every later call
        on the window and every thread share it."""
        raise NotImplementedError(f"{self.name} has no batch evaluation")

    def check_alphabet(self, x: Configuration) -> None:
        if self.input_alphabet is not None and x.alphabet != self.input_alphabet:
            raise AlphabetMismatch(f"{self.name} expects {self.input_alphabet.name}, got {x.alphabet.name}")

    def pushforward(self, dist: Distribution) -> Distribution:
        """Single-site output law under an i.i.d. input law."""
        raise NotImplementedError

    def dependency_sites(self, out_sites: SiteSet, budget_radius: int) -> SiteSet:
        """Input sites that can influence the outputs on ``out_sites``;
        unbounded maps clip their ray scans to words of length <=
        budget_radius.  Must be overridden."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "name": self.name,
            "input_alphabet": None if self.input_alphabet is None else self.input_alphabet.name,
            "output_alphabet": None if self.output_alphabet is None else self.output_alphabet.name,
            "window_cost": "unbounded_lookahead" if self.window_cost is None else self.window_cost,
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def _safe_gather(values: np.ndarray, idx: np.ndarray, complete: bool = False) -> np.ndarray:
    """The rows values[idx] of a site-major matrix, treating idx == -1 as
    undefined (a row of -1).  A caller that knows idx holds no -1 passes
    ``complete`` and gets the plain gather, with no mask."""
    if complete:
        return values.take(idx, axis=0)
    if values.shape[0] == 0:
        return np.full((*idx.shape, values.shape[1]), -1, dtype=values.dtype)
    return np.where((idx >= 0)[..., None], values.take(np.maximum(idx, 0), axis=0), -1)


class Plan(tuple):
    """A flat tuple of block, star and gather steps, run in order on a
    site-major matrix by ``_run_block``, ``_run_star`` and ``_safe_gather``."""

    __slots__ = ()

    def __call__(self, values: np.ndarray) -> np.ndarray:
        for step in self:
            if type(step) is GatherStep:
                values = _safe_gather(values, step.rows, step.complete)
            else:
                values = (_run_block if type(step) is BlockStep else _run_star)(values, step)
        return values


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only where a plan or a shared table first holds it."""
    array.setflags(write=False)
    return array


# The steps of a plan.  Row i of what a step returns holds window site
# ``emit[i]``, -1 for a site off the window; its other fields are the
# read-only tables its kernel reads.  A gather returns its input's rows
# ``rows``, -1 for -1 (``complete``: ``rows`` holds no -1).
GatherStep = namedtuple("GatherStep", "emit rows complete")
BlockStep = namedtuple("BlockStep", "emit table lookup size index_dtype")
StarStep = namedtuple("StarStep", "emit complete rays star lookup")


def _block_gather(values: np.ndarray, idx: np.ndarray, valid: np.ndarray | None) -> np.ndarray:
    """The rows values[idx] for a block kernel.  A kernel that masks passes
    its mask ``valid``, which is cleared where a row is undefined (-1),
    and reads those cells as 0."""
    col = values.take(idx, axis=0)
    if valid is not None:
        valid &= col >= 0
        np.maximum(col, 0, out=col)
    return col


def _index_dtype(n: int) -> np.dtype:
    """The narrowest signed dtype that holds 0..n-1: int8 to 128, int16 to 32,768, then int32."""
    return np.min_scalar_type(-n)


def _horner(digits: Iterable[np.ndarray], base: int, shape, dtype) -> np.ndarray:
    """The sum of digits[k] * base ** (K-1-k) by Horner's rule in ``dtype``, which holds
    base ** K - 1; the first digit is not multiplied, so one digit's base need not fit."""
    flat = np.zeros(shape, dtype=dtype)
    for k, digit in enumerate(digits):
        if k:
            flat *= base
        flat += digit
    return flat


def _lookup(lookup: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """lookup[idx] in lookup's dtype, over idx where the dtypes match, one block of rows
    at a time: take widens its index to a fresh intp copy before it writes (so in place,
    too), and one whole-matrix copy raised pushforward's resident peak by 10 MB and ran
    out of cache; every index is in range, and "clip" skips the copy of out that "raise" makes."""
    out = idx if idx.dtype == lookup.dtype else np.empty(idx.shape, lookup.dtype)
    step = block_rows(np.dtype(np.intp).itemsize * idx.shape[1])
    for lo in range(0, idx.shape[0], step):
        lookup.take(idx[lo : lo + step], mode="clip", out=out[lo : lo + step])
    return out


def _run_block(values, step):
    shape = (step.table.shape[1], values.shape[1])
    # a total input read through the complete table has no undefined cell to mask
    valid = None if values.size == 0 or values.min() >= 0 else np.ones(shape, dtype=bool)
    # output j's flat table index, the rows table[:, j] read in base ``size`` in ``index_dtype``,
    # gathered one offset at a time so that a batch holds one gathered row set
    flat = _horner((_block_gather(values, idx, valid) for idx in step.table), step.size, shape, step.index_dtype)
    out = _lookup(step.lookup, flat)
    if valid is not None:
        out[~valid] = -1
    return out


class BlockMap(FactorMap):
    """A sliding block code: output at g is table[x(g*w1), ..., x(g*wk)].

    ``offsets`` is the memory set (w1, ..., wk); the window cost is the
    longest offset.  The table is a k-dimensional integer array.
    """

    def __init__(
        self,
        name: str,
        input_alphabet: Alphabet,
        output_alphabet: Alphabet,
        offsets: Sequence[Word],
        table: np.ndarray,
    ):
        self.name = name
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.offsets = tuple(offsets)
        table = np.asarray(table)
        if table.dtype.kind not in "iu":
            raise ValueError("table entries must be integers")
        if table.shape != (input_alphabet.size,) * len(self.offsets):
            raise ValueError("table shape must be (size,) * len(offsets)")
        if table.min() < 0 or table.max() >= output_alphabet.size:
            raise ValueError("table entries out of output range")
        self.table = table.astype(np.int64, copy=False)
        self.table.setflags(write=False)
        # the flat table in the output dtype, which a block step of this stage alone reads
        self._lookup = _read_only(self.table.ravel().astype(symbol_dtype(output_alphabet.size)))
        self.window_cost = max((len(w) for w in self.offsets), default=0)

    @functools.cached_property
    def _stage(self) -> _Stage:
        """What a fused block step reads of this stage, by value: equal stages
        of separately built maps have equal ones, and share fused tables."""
        return _Stage(self.offsets, self.input_alphabet.size, self._lookup.dtype.str, self._lookup.tobytes())

    # bound here so a tracer can wrap them per class
    apply_batch = FactorMap.apply_batch
    apply = FactorMap.apply

    def _compile(self, sites, out_sites):
        return _compile_stages((self,), sites, out_sites)

    def dependency_sites(self, out_sites, budget_radius):
        # an output site is defined only where the window holds it: it is in its own cone
        return out_sites.times(dict.fromkeys((IDENTITY, *self.offsets)))

    def pushforward(self, dist: Distribution) -> Distribution:
        if dist.alphabet != self.input_alphabet:
            raise AlphabetMismatch(f"{self.name} expects {self.input_alphabet.name}")
        probs = np.array([1.0])
        for _ in self.offsets:
            probs = np.multiply.outer(probs, np.asarray(dist.float_weights())).ravel()
        flat = self.table.ravel()
        out = np.bincount(flat, weights=probs, minlength=self.output_alphabet.size)
        return Distribution(self.output_alphabet, tuple(float(w) for w in out))


def ow() -> BlockMap:
    """The Ornstein-Weiss doubling rule on binary configurations.

    Output at g is the pair (x(g)+x(ga), x(g)+x(gb)) over Z/2 x Z/2; a
    pointwise GF(2) homomorphism that pushes the fair coin law onto the
    uniform four-symbol law.  Its table is bit-plane expansion stage 0.
    """
    stage = timar_stage(0)
    return BlockMap("ow", stage.input_alphabet, stage.output_alphabet, stage.offsets, stage.table)


MAX_TIMAR_PLANES = 6


def timar_stage(n: int) -> BlockMap:
    """One bit-plane expansion stage: planes 1..n copied, the last plane
    doubled by the Ornstein-Weiss rule into planes n+1 and n+2.

    Stage 0 is exactly the doubling rule under the identification of the
    four-symbol alphabet with bit pairs.
    """
    if not 0 <= n <= MAX_TIMAR_PLANES - 1:
        raise ValueError(f"stage must be in [0, {MAX_TIMAR_PLANES - 1}]")
    a_in = bit_alphabet(n + 1)
    a_out = bit_alphabet(n + 2)
    size = a_in.size
    v = np.arange(size)
    low = v & ((1 << n) - 1)
    top = (v >> n) & 1
    c1 = top[:, None, None] ^ top[None, :, None]
    c2 = top[:, None, None] ^ top[None, None, :]
    table = low[:, None, None] + (c1 << n) + (c2 << (n + 1))
    return BlockMap(f"timar_stage{n}", a_in, a_out, (IDENTITY, _SINGLE[GEN_A], _SINGLE[GEN_B]), table)


def plane_projection(planes_in: int, planes_out: int) -> BlockMap:
    """Keep the first ``planes_out`` bit planes; an independent-splitting
    projection (single-site, window cost 0)."""
    if not 1 <= planes_out <= planes_in:
        raise ValueError("need 1 <= planes_out <= planes_in")
    table = np.arange(2**planes_in) & ((1 << planes_out) - 1)
    return BlockMap(
        f"project{planes_in}to{planes_out}",
        bit_alphabet(planes_in),
        bit_alphabet(planes_out),
        (IDENTITY,),
        table,
    )


def relabel(name: str, a_in: Alphabet, a_out: Alphabet, mapping: Sequence[int]) -> BlockMap:
    """A single-site recoding given by a symbol table."""
    return BlockMap(name, a_in, a_out, (IDENTITY,), np.asarray(mapping))


def swap_bits() -> BlockMap:
    """The 0 <-> 1 relabeling on the binary alphabet."""
    return relabel("swap", bit_alphabet(1), bit_alphabet(1), [1, 0])


def identity_map(alphabet: Alphabet) -> BlockMap:
    return relabel(f"identity_{alphabet.name}", alphabet, alphabet, np.arange(alphabet.size))


# Closed rays drop out of the star scan once they hold this many cells, and a
# smaller block is scanned whole: a narrowing and its per-ray check cost a few
# array calls, which small blocks do not win back (a property check's scans
# of 53 rays over 5-50 rows ran 1.2-1.5 times slower when every closed ray
# dropped at once, and up to 1.2 times slower with 1024 here).
_NARROW_CELLS = 4096


def _first_bits(values: np.ndarray, rays: tuple[np.ndarray, np.ndarray], star: int) -> np.ndarray:
    """The first non-star value along each ray, one ray step at a time.

    values: site-major (s, n) matrix; rays: the pair (first, walk) of
    ``SiteSet.ray_indices``, each ray's first site index (-1 off the set)
    and the set's step table, whose trailing -1 keeps an ended ray ended.
    Returns an (m, n) array in the dtype of values, -1 where the ray
    leaves the site set or meets an undefined site before a non-star
    value.

    A cell is open exactly while its value so far is the last step's
    ``*``, so each step moves only the open cells on; a ray that has ended
    reads -1, which closes its cells, and the scan stops once no cell is
    open.  Rays closed in every column drop out once they hold
    ``_NARROW_CELLS`` cells: later steps walk and gather the live rays
    only, as a compact block.  Until then the scan works on its output in
    place.
    """
    pos, walk = rays
    first = _safe_gather(values, pos, pos.min(initial=0) >= 0)
    # the live rays' rows of ``first``, and their values: ``first`` itself until rays drop out
    live, cur = slice(None), first
    open_buf = np.empty(first.shape, dtype=bool)
    while True:
        open_rays = np.equal(cur, star, out=open_buf[: len(cur)])
        if cur.size < _NARROW_CELLS:
            if not open_rays.any():
                break
        else:
            still = np.logical_or.reduce(open_rays, axis=1)
            n_live = np.count_nonzero(still)
            if not n_live:
                break
            if (len(still) - n_live) * cur.shape[1] >= _NARROW_CELLS:
                # closed rays keep their values in ``first``; the rest move on compacted
                kept = np.flatnonzero(still)
                if isinstance(live, slice):
                    live = kept
                else:
                    first[live] = cur
                    live = live.take(kept)
                cur, open_rays, pos = cur.take(kept, axis=0), open_rays.take(kept, axis=0), pos.take(kept)
        # an open cell holds *, so adding (step - *) gives it the step's value;
        # in the input's dtype this stays in [-3, 0] and cannot overflow; the
        # mask is read as int8, which spares an int8 matrix a casting loop
        pos = walk.take(pos)
        step = _safe_gather(values, pos, pos.min(initial=0) >= 0)
        step -= star
        step *= open_rays.view(np.int8)
        cur += step
    if not isinstance(live, slice):
        first[live] = cur
    return first


def _star_lookup(star: int, star_out: int) -> np.ndarray:
    """The star rule's output for each (centre, a-ray bit, b-ray bit) over
    {-1, 0, 1, *}, flat at ((c+1)*4 + a+1)*4 + b+1, in the output's symbol
    dtype: the pair of mod-2 sums for a bit centre with both rays closed on
    bits, ``star_out`` for a ``*`` centre, and -1 (undefined) otherwise.
    Read-only, with the table it views."""
    table = np.full((star + 2,) * 3, -1, dtype=symbol_dtype(star_out + 1))
    c, a, b = np.ix_(range(star), range(star), range(star))
    table[1:-1, 1:-1, 1:-1] = (c ^ a) + 2 * (c ^ b)
    table[-1] = star_out
    return _read_only(table).ravel()


def _run_star(values, step):
    # the centres are the rows ``emit``; the flat index ((c+1)*4 + a+1)*4 + b+1
    # is built in place in the input's dtype (at most 63, so int8 holds it),
    # then read in lookup; by take, not fancy indexing, which left a heap that
    # raised the next Monte Carlo call's resident peak by 8 MB
    idx = _safe_gather(values, step.emit, step.complete)
    for bits in (_first_bits(values, r, step.star) for r in step.rays):
        idx += 1
        idx *= step.star + 2
        idx += bits
    idx += 1
    return _lookup(step.lookup, idx)


class StarMap(FactorMap):
    """The star-extended doubling rule with generator-ray lookahead.

    At a site g holding `*` the output is `*`.  Otherwise the rule scans
    g*a, g*a^2, ... for the first non-star bit (and likewise along b
    powers) and emits the pair of mod-2 sums.  If a scan runs off the
    defined region the output at g is undefined; that truncation is a
    finite-window artifact and is counted by the verifier.
    """

    def __init__(self, p: float = 0.25):
        if not 0 < p <= 0.5:
            raise ValueError(f"star map weight p must lie in (0, 1/2], got {p!r}")
        self.name = f"star:{p:g}"
        self.p = p
        self.input_alphabet = star_alphabet(1)
        self.output_alphabet = star_alphabet(2)
        self.window_cost = None

    apply_batch = FactorMap.apply_batch
    apply = FactorMap.apply

    def _compile(self, sites, out_sites):
        centers, star = sites.neighbor_indices(IDENTITY, out_sites), self.input_alphabet.star_index
        rays = (sites.ray_indices(GEN_A, out_sites), sites.ray_indices(GEN_B, out_sites))
        lookup = _star_lookup(star, self.output_alphabet.star_index)
        return Plan([StarStep(centers, bool(centers.min(initial=0) >= 0), rays, star, lookup)])

    def dependency_sites(self, out_sites, budget_radius):
        # each ray up to its first power longer than the budget
        parts = [out_sites.codes]
        for step in (_SINGLE[GEN_A], _SINGLE[GEN_B]):
            cur = out_sites.codes
            while len(cur):
                cur = right_mul_codes(cur, step)
                cur = cur[code_lengths(cur) <= budget_radius]
                parts.append(cur)
        return SiteSet.from_codes(np.concatenate(parts))

    def pushforward(self, dist: Distribution) -> Distribution:
        """Output law for an i.i.d. star-alphabet input.

        Conditioned on a non-star center, the first non-star symbol on
        each ray is an independent draw from the bit weights renormalized,
        so for the symmetric law (p, p, 1-2p) each pair carries mass p/2.
        """
        if dist.alphabet != self.input_alphabet:
            raise AlphabetMismatch(f"{self.name} expects {self.input_alphabet.name}")
        w0, w1, ws = dist.float_weights()
        if w0 + w1 == 0:
            raise ValueError("star map needs some non-star mass")
        f0, f1 = w0 / (w0 + w1), w1 / (w0 + w1)
        first = (f0, f1)
        weights = [0.0, 0.0, 0.0, 0.0, ws]
        for v, wv in ((0, w0), (1, w1)):
            for c1 in (0, 1):
                for c2 in (0, 1):
                    weights[c1 + 2 * c2] += wv * first[(c1 + v) % 2] * first[(c2 + v) % 2]
        return Distribution(star_alphabet(2), tuple(weights))

    def describe(self) -> dict:
        d = super().describe()
        d["p"] = self.p
        return d


# Adjacent block stages run as one block step, a group, while the group's
# table holds at most this many entries: the first stage's s symbols on each
# of the k sites of the group's read cone, s**k.  timar:3's four stages read
# 15 binary sites (2**15 entries); timar_stage(3) stays out of the group of
# the three before it, and alone, since it and the next stage read 7 sites of
# 16 symbols (2**28 entries).
_FUSED_ENTRIES = 1 << 16

# A block stage by value (``BlockMap._stage``): its offsets, its input
# alphabet's size, and its flat table as the dtype and bytes of its lookup.
_Stage = namedtuple("_Stage", "offsets size dtype data")
# A group of adjacent block stages as one block step reads it.  Its sites M
# are e and the products of one offset from each of its last j stages, for
# every j; ``walk`` finds them from e, one level per stage from the last: the
# (position in M of the parent, offset) of each site new to M, which takes the
# next position.  ``cone`` lists the positions in M of the read cone, the
# products o_last...o_first of one offset per stage, in the order that the
# flat index reads them, and ``lookup`` is the group's table over the cone.
_Group = namedtuple("_Group", "walk cone lookup size index_dtype")


@functools.lru_cache(maxsize=64)
def _fused_groups(run: tuple[_Stage, ...]) -> tuple[_Group, ...]:
    """The groups of a run of adjacent block stages, formed greedily: a stage
    joins the group before it while the group's table stays within
    ``_FUSED_ENTRIES`` entries, and a single-site stage (offsets (e,)), which
    adds no site, always joins.  Cached by value, at the first compile, so
    equal runs of separately built maps share their groups' tables."""
    parts, cone = [], None
    for stage in run:
        offsets = encode(stage.offsets)
        if parts:
            wider = np.unique(mul_codes(offsets[:, None], cone[None, :]))
            if stage.offsets == (IDENTITY,) or parts[-1][0].size ** len(wider) <= _FUSED_ENTRIES:
                parts[-1].append(stage)
                cone = wider
                continue
        parts.append([stage])
        cone = np.unique(offsets)
    return tuple(_fuse(part) for part in parts)


def _fuse(stages: Sequence[_Stage]) -> _Group:
    """One group's walk, read cone and table.  A lone stage that reads each of
    its sites once is its own table.  Any other group's table is its stages run
    unfused by the block kernel on every input of its cone, an index matrix."""
    order, position = [0], {0: 0}  # M's codes, and each code's position in M
    walk, gathers, level = [], [], [0]  # level: the positions in M of the sites one level out
    for stage in reversed(stages):
        codes = np.array([order[p] for p in level], dtype=np.int64)
        products = mul_codes(codes[:, None], encode(stage.offsets)[None, :]).reshape(len(level), len(stage.offsets))
        products = products.tolist()
        new = []
        for parent, row in zip(level, products):
            for off, code in zip(stage.offsets, row):
                if code not in position:
                    position[code] = len(order)
                    order.append(code)
                    new.append((parent, off))
        walk.append(tuple(new))
        outer = list(dict.fromkeys(position[code] for row in products for code in row))
        # the stage's block table: the row of the next level out that each site's offset reads
        row_of = {p: i for i, p in enumerate(outer)}
        gather = [[row_of[position[code]] for code in row] for row in products]
        gathers.append(np.array(gather, dtype=np.int64).reshape(len(level), len(stage.offsets)).T)
        level = outer
    first = stages[0]
    if len(stages) == 1 and len(level) == len(first.offsets):
        lookup = np.frombuffer(first.data, first.dtype)  # read-only; the cone is its offsets, in order
    else:
        # the flat index reads the cone's first site as its most significant
        # digit, and index_matrix gives its first site the least
        values = index_matrix(first.size, len(level), 0, first.size ** len(level))[::-1]
        for stage, gather in zip(stages, reversed(gathers)):
            table = np.frombuffer(stage.data, stage.dtype)
            values = _run_block(values, BlockStep(None, gather, table, stage.size, _index_dtype(table.size)))
        lookup = _read_only(values)[0]
    return _Group(tuple(walk), tuple(level), lookup, first.size, _index_dtype(lookup.size))


def _cone_rows(group: _Group, sites: SiteSet, need: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sites g of ``need`` whose group sites g*M all lie in the window, and
    the (cone, kept sites) window positions of their read cones.  Walks the
    window's neighbour tables of the stage offsets out from g along the group's
    walk; each level drops the sites it left the window from, so the levels
    after it walk only the sites still in."""
    cols = [need]
    for level in group.walk:
        inside = np.ones(len(cols[0]), dtype=bool)
        for parent, off in level:
            cols.append(sites.neighbor_indices(off).take(cols[parent]))
            inside &= cols[-1] >= 0
        if not inside.all():
            kept = np.flatnonzero(inside)
            cols = [col.take(kept) for col in cols]
    return cols[0], np.array([cols[i] for i in group.cone], dtype=np.int64).reshape(len(group.cone), len(cols[0]))


def _compile_stages(stages: Sequence[FactorMap], sites: SiteSet, out_sites: SiteSet) -> Plan:
    """The plan of ``stages`` run left to right from ``sites`` to ``out_sites``.
    Each run of adjacent ``BlockMap`` stages splits into groups
    (``_fused_groups``).  A group is one block step on the sites it must emit
    whose group sites all lie in the window and whose read cone the step before
    emitted, so its table is complete.  Any other stage's plan on the window is
    spliced in, after a gather that widens to the window.  A final gather picks
    the output rows unless the last step emitted them."""
    n = len(sites)
    where = sites.neighbor_indices(IDENTITY, out_sites)
    units = []
    for block, run in itertools.groupby(stages, lambda stage: isinstance(stage, BlockMap)):
        units.extend(_fused_groups(tuple(stage._stage for stage in run)) if block else run)
    # index operations on the window's own neighbour tables only: first the
    # window sites each unit must emit, walking back from the output sites,
    # and on the way each group's candidate sites and the positions they read
    need = where[where >= 0]
    reads = []
    for k in range(len(units) - 1, -1, -1):
        if isinstance(units[k], _Group):
            reads.append(_cone_rows(units[k], sites, need))
            if k:
                need = np.flatnonzero(np.bincount(reads[-1][1].ravel(), minlength=n))
        else:
            reads.append(None)
            need = np.arange(n)
    # then each unit's steps; ``rows`` holds each window site's row in the
    # current matrix, -1 if not emitted, and a last -1 that index -1 reads
    rows, emit = _read_only(np.append(np.arange(n), -1)), np.arange(n)
    steps = []
    for unit, read in zip(units, reversed(reads)):
        if read is not None:
            candidates, cone = read
            table = rows.take(cone)
            defined = np.flatnonzero((table >= 0).all(axis=0))
            steps.append(BlockStep(_read_only(candidates.take(defined)), _read_only(table.take(defined, axis=1)),
                                   unit.lookup, unit.size, unit.index_dtype))
        else:
            if len(emit) < n:
                steps.append(GatherStep(_read_only(np.arange(n)), rows[:n], False))
            steps.extend(unit.plan(sites, sites))
        emit = steps[-1].emit
        rows = np.full(n + 1, -1)
        rows[emit] = np.arange(len(emit))
        rows.setflags(write=False)
    # the empty composition still copies its input
    if not steps or not np.array_equal(emit, where):
        last = _read_only(rows[where])
        steps.append(GatherStep(where, last, bool(last.min(initial=0) >= 0)))
    return Plan(steps)


class ComposedMap(FactorMap):
    """Left-to-right composition with window bookkeeping.

    The defined region shrinks by the sum of the stage window costs;
    unbounded stages propagate undefinedness exactly as they do alone.
    An empty composition is the identity.

    Batch evaluation compiles the stages by ``_compile_stages``, as a lone
    ``BlockMap`` compiles itself, adjacent block stages fused into groups,
    so the result equals stage-by-stage evaluation on the full window
    restricted to ``out_sites``.  Stages
    run by their plans, so a stage whose class has an ``apply_batch`` of
    its own but no plan compiler is refused (NotImplementedError).
    """

    def __init__(self, stages: Sequence[FactorMap], name: str | None = None):
        self.stages = tuple(stages)
        for k, stage in enumerate(self.stages):
            # the nearest class that defines either must compile plans
            kind = next(c for c in type(stage).__mro__ if {"apply_batch", "_compile"} & vars(c).keys())
            if "_compile" not in vars(kind):
                raise NotImplementedError(f"stage {k} ({stage.name}) has an apply_batch but no plan")
        for k in range(len(self.stages) - 1):
            out_a = self.stages[k].output_alphabet
            in_a = self.stages[k + 1].input_alphabet
            if out_a is not None and in_a is not None and out_a != in_a:
                raise AlphabetMismatch(
                    f"stage {k} emits {out_a.name} but stage {k + 1} expects {in_a.name}"
                )
        self.name = name or ("id" if not self.stages else "+".join(s.name for s in self.stages))
        self.input_alphabet = self.stages[0].input_alphabet if self.stages else None
        self.output_alphabet = self.stages[-1].output_alphabet if self.stages else None
        costs = [s.window_cost for s in self.stages]
        self.window_cost = None if any(c is None for c in costs) else sum(costs)

    apply = FactorMap.apply

    def check_alphabet(self, x: Configuration) -> None:
        if self.stages:
            try:
                self.stages[0].check_alphabet(x)
            except AlphabetMismatch as exc:
                raise AlphabetMismatch(f"stage 0 ({self.stages[0].name}): {exc}") from exc

    def _compile(self, sites, out_sites):
        return _compile_stages(self.stages, sites, out_sites)

    def dependency_sites(self, out_sites, budget_radius):
        # the stages' own cones, last stage first
        for stage in reversed(self.stages):
            out_sites = stage.dependency_sites(out_sites, budget_radius)
        return out_sites

    def pushforward(self, dist: Distribution) -> Distribution:
        for stage in self.stages:
            dist = stage.pushforward(dist)
        return dist


def timar(m: int) -> ComposedMap:
    """The first m stabilized bit planes of the iterated expansion.

    Plane m needs exactly m expansion stages, after which it never
    changes, so the total window cost is m.  The final stage's extra
    working plane is dropped by a zero-cost projection.
    """
    if not 1 <= m <= MAX_TIMAR_PLANES:
        raise ValueError(f"plane count must be in [1, {MAX_TIMAR_PLANES}]")
    stages: list[FactorMap] = [timar_stage(n) for n in range(m)]
    stages.append(plane_projection(m + 1, m))
    return ComposedMap(stages, name=f"timar:{m}")


def star(p: float = 0.25) -> StarMap:
    return StarMap(p)


def parse_map_spec(spec: str) -> FactorMap:
    """Resolve CLI map names: ow, timar:m, star:p, swap, identity,
    project:min:mout, coinduced:identity, coinduced:swap."""
    head, _, rest = spec.partition(":")
    if head == "ow":
        return ow()
    if head == "timar":
        return timar(int(rest))
    if head == "star":
        return star(float(rest) if rest else 0.25)
    if head == "swap":
        return swap_bits()
    if head == "identity":
        return identity_map(bit_alphabet(1))
    if head == "project":
        a, _, b = rest.partition(":")
        return plane_projection(int(a), int(b))
    if head == "coinduced":
        from .pipeline import coinduced_map

        if rest == "identity":
            return coinduced_map(identity_map(bit_alphabet(1)))
        if rest == "swap":
            return coinduced_map(swap_bits())
        raise ValueError(f"unknown coinduced cell map {rest!r}")
    raise ValueError(f"unknown map spec {spec!r}")
