"""Exact arithmetic in the rank-2 free group and Cayley-ball enumeration.

Group elements are reduced words over the generators a, b and their
inverses.  Letters are encoded as small integers so that integer order is
exactly the generator order used everywhere else in the package:

    a = 0 < a^-1 = 1 < b = 2 < b^-1 = 3

and ``letter ^ 1`` is the inverse letter.  All values in this module are
immutable after construction; every operation is a pure function and safe
to share across threads.

Words and site sets are stored as *shortlex codes*, the bijective base-4
numerals code(e) = 0, code(w*s) = 4 * code(w) + s + 1: integer order is
shortlex order, and an n-letter word's code is start(n) = (4**n - 1) // 3,
the digits 1...1, plus D, its letters as base-4 digits.  The group
arithmetic is one set of functions on code arrays, which ``mul``, ``inv``
and ``gen_power`` call on a Word's one code.  Products, inverses and
<a>-stripping take a fixed number of array operations at any length: an
inverse swaps ever larger bit blocks of D and XORs start(n); a product
cancels the common prefix of u**-1 and v, read off their XOR; the
trailing a-run ends at D's lowest high bit.  Code arrays are int64 while
every code formed has at most ``MAX_INT64_LETTERS`` letters, and object
arrays of Python ints beyond; the same functions serve both, on masks 64
bits wide or the next power of two (one more swap per doubling).
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

GEN_A, GEN_A_INV, GEN_B, GEN_B_INV = 0, 1, 2, 3
LETTER_CHARS = "aAbB"
_CHAR_TO_LETTER = {c: i for i, c in enumerate(LETTER_CHARS)}

DEFAULT_RADIUS_CAP = 12


class RadiusTooLarge(ValueError):
    """Requested Cayley ball exceeds the configured radius cap."""


class Word:
    """A reduced word in the free group F2 = <a, b>, held as its shortlex
    code alone; the empty word, code 0, is the identity.

    Words hash and compare by the code, so ``sorted`` uses shortlex order;
    ``len`` is read off the code's size, ``letters`` and ``str`` decode it,
    and ``Word(letters)`` reduces by folding the code step over the letters.
    """

    __slots__ = ("code",)

    code: int

    def __init__(self, letters: Iterable[int] = ()):
        code = 0
        for s in letters:
            if s not in (0, 1, 2, 3):
                raise ValueError(f"bad letter code {s!r}")
            code = (code - 1) // 4 if code and (code - 1) % 4 == s ^ 1 else 4 * code + int(s) + 1
        _set_code(self, code)

    @classmethod
    def _from_code(cls, code: int) -> "Word":
        """The word whose code is ``code``, a Python int."""
        w = cls.__new__(cls)
        _set_code(w, code)
        return w

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse the textual word syntax: `a`, `A` (=a^-1), `b`, `B`, `e`.

        `e` denotes the identity and is only valid on its own.
        """
        text = text.strip()
        if text == "e" or text == "":
            return IDENTITY
        try:
            return cls(_CHAR_TO_LETTER[c] for c in text)
        except KeyError as exc:
            raise ValueError(f"bad word {text!r}: letters must be a, A, b, B") from exc

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word._from_code, (self.code,)

    def __len__(self) -> int:
        return ((3 * self.code + 1).bit_length() - 1) // 2

    def __hash__(self) -> int:
        return hash(self.code)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.code == other.code

    def __lt__(self, other: "Word") -> bool:
        return self.code < other.code

    @property
    def letters(self) -> tuple[int, ...]:
        """The letter codes, first to last, decoded from the code."""
        out, code = [], self.code
        while code:
            code, s = divmod(code - 1, 4)
            out.append(s)
        return tuple(reversed(out))

    @property
    def is_identity(self) -> bool:
        return not self.code

    def __str__(self) -> str:
        return "".join(LETTER_CHARS[s] for s in self.letters) or "e"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


# The slot descriptor writes past Word.__setattr__, which refuses every
# assignment; it is cheaper than object.__setattr__ on the hot path.
_set_code = Word.__dict__["code"].__set__

IDENTITY = Word()
# the one-letter words, indexed by letter
_SINGLE = tuple(Word((s,)) for s in (GEN_A, GEN_A_INV, GEN_B, GEN_B_INV))


def mul(g1: Word, g2: Word) -> Word:
    """Reduced product g1*g2."""
    return decode(mul_codes(encode([g1]), encode([g2])))[0]


def inv(g: Word) -> Word:
    """Reduced inverse; mul(g, inv(g)) is the identity."""
    return decode(inv_codes(encode([g])))[0]


def gen_power(g: Word, letter: int, k: int) -> Word:
    """Reduced form of g * s^k for a generator code s.

    Negative k uses the inverse letter, so the same helper walks both
    directions of a generator ray.
    """
    s = letter if k >= 0 else letter ^ 1
    return decode(right_mul_codes(encode([g]), Word((s,) * abs(k))))[0]


# The longest words whose codes fit int64: 4 * (4**31 - 1) / 3 < 2**63.
MAX_INT64_LETTERS = 31


def _longest(codes: np.ndarray) -> int:
    """Letters in the longest word: the n with 4**n <= 3 * code + 1 < 4**(n + 1)."""
    return ((3 * int(codes.max()) + 1).bit_length() - 1) // 2 if codes.size else 0


def _dtype(codes: np.ndarray, extra: int = 0):
    """int64 if it holds codes ``extra`` letters longer than any in ``codes``."""
    return np.int64 if _longest(codes) + extra <= MAX_INT64_LETTERS else object


def _digits(codes: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first codes start(n) of the lengths n <= top, in codes' dtype; each
    code's length n, looked up in them; and its digits D = code - start(n)."""
    starts = np.array([(4**n - 1) // 3 for n in range(top + 1)], dtype=codes.dtype)
    n = np.searchsorted(starts, codes, side="right") - 1
    return starts, n, codes - starts[n]


def code_lengths(codes: np.ndarray) -> np.ndarray:
    """The word length of every code, by lookup in the first codes of each length."""
    return _digits(codes, _longest(codes))[1]


def encode(words: Iterable[Word]) -> np.ndarray:
    """The codes of a sequence of Words, in order, int64 if they all fit."""
    codes = np.array([w.code for w in words], dtype=object)
    return codes.astype(_dtype(codes))


def _step(codes: np.ndarray, letter: int) -> np.ndarray:
    """Codes of w * letter; the caller makes room for one more letter."""
    last = (codes - 1) % 4
    back = (codes > 0) & (last == letter ^ 1)
    return np.where(back, (codes - 1 - last) // 4, 4 * codes + (letter + 1))


def right_mul_codes(codes: np.ndarray, offset: Word) -> np.ndarray:
    """Codes of w * offset for every code of w."""
    codes = codes.astype(_dtype(codes, len(offset)), copy=False)
    for s in offset.letters:
        codes = _step(codes, s)
    return codes


def _reversed(digits: np.ndarray, n: np.ndarray, top: int) -> np.ndarray:
    """The last n <= top base-4 digits of each of ``digits``, reversed: moved
    to the top of the mask width, then blocks of 2, 4, 8, ... bits swapped.
    Masks keep a block's low half, so bits past the width, and signs, drop.
    The swaps shift in place, through one buffer: two code-sized arrays."""
    width = 1 << max(6, (2 * top - 1).bit_length())
    d = digits << (width - 2 * n)
    high = np.empty_like(d)
    for k in (1 << i for i in range(1, width.bit_length() - 1)):
        mask = ((1 << width) - 1) // ((1 << 2 * k) - 1) * ((1 << k) - 1)
        np.right_shift(d, k, out=high)
        high &= mask
        d &= mask
        d <<= k
        d |= high
    return d


def inv_codes(codes: np.ndarray) -> np.ndarray:
    """Codes of w**-1 for every code of w: w's digits reversed, each inverted."""
    top = _longest(codes)
    codes = codes.astype(_dtype(codes), copy=False)
    starts, n, digits = _digits(codes, top)
    return starts[n] + (_reversed(digits, n, top) ^ starts[n])


def mul_codes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Codes of u * v, elementwise over the codes of u in x and of v in y
    (broadcast against each other).

    The k letters that cancel are u's last k against v's first k: the
    common prefix of u**-1 and v, m = min(n_u, n_v) less the digits left in
    the XOR of their first m letters.  u * v is then u's first n_u - k
    digits followed by v's last n_v - k.
    """
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    lx, ly = _longest(x), _longest(y)
    dtype = np.int64 if lx + ly <= MAX_INT64_LETTERS else object
    x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    (starts, nx, x_digits), (_, ny, y_digits) = _digits(x, lx + ly), _digits(y, lx + ly)
    m = np.minimum(nx, ny)
    # u's last m digits, reversed and inverted, are u**-1's first m
    diff = _reversed(x_digits, m, min(lx, ly)) ^ starts[m] ^ (y_digits >> 2 * (ny - m))
    k = m - np.searchsorted(3 * starts + 1, diff, side="right")
    rest = ny - k
    return starts[nx - k + rest] + ((x_digits >> 2 * k) << 2 * rest) + (y_digits & 3 * starts[rest])


def decode(codes: np.ndarray) -> tuple[Word, ...]:
    """The Words of an array of codes."""
    return tuple(map(Word._from_code, codes.tolist()))


def ball(r: int) -> "SiteSet":
    """All reduced words of length <= r in shortlex order.

    |ball(r)| = 2 * 3^r - 1 for r >= 1 and 1 for r = 0.  Refused above
    ``DEFAULT_RADIUS_CAP`` because the count grows as 3^r.  Built level by
    level on codes: the children 4c + s + 1 of a sorted level, in parent
    order, are again sorted.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r > DEFAULT_RADIUS_CAP:
        raise RadiusTooLarge(f"radius {r} exceeds cap {DEFAULT_RADIUS_CAP} (|ball| would be {2 * 3**r - 1})")
    level = np.zeros(1, dtype=np.int64)
    levels = [level]
    digits = np.arange(1, 5)
    for _ in range(r):
        last = (level - 1) % 4
        reduced = (level[:, None] == 0) | (digits[None, :] - 1 != last[:, None] ^ 1)
        level = (4 * level[:, None] + digits[None, :])[reduced]
        levels.append(level)
    return SiteSet._from_sorted(np.concatenate(levels))


class CosetTable(NamedTuple):
    """The <a>-coset decomposition of a site set: site i is
    ``reps[coset[i]] * a**power[i]``.

    ``reps`` is the site set of the canonical representative of every
    coset that meets the set (its Words are decoded when first asked).
    The same sites as held slots, coset-major and by ascending a-exponent
    within a coset: slot k is site ``order[k]``, which is
    ``reps[c] * a**exponent[k]`` for the coset c with
    ``offsets[c] <= k < offsets[c + 1]``.
    """

    reps: "SiteSet"
    coset: np.ndarray
    power: np.ndarray
    offsets: np.ndarray
    exponent: np.ndarray
    order: np.ndarray


class SiteSet:
    """An ordered finite set of distinct group elements (shortlex order).

    The set is the strictly increasing, read-only array ``codes`` of its
    sites' shortlex codes (construction drops duplicates and sorts);
    ``words``, iteration and indexing decode it when first asked.  Derived
    lookup tables (neighbor and coset indices, and one generator-ray walk
    per letter) and the maps' evaluation plans are built on the codes and
    memoized on the instance, which is safe because they are pure
    functions of the site list; they are read-only, since every caller
    shares them.
    """

    __slots__ = ("codes", "_words", "_neighbors", "_rays", "_plans", "_cosets", "_hash")

    def __init__(self, words: Iterable[Word]):
        self._finish_init(np.unique(encode(words)))

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "SiteSet":
        """The set of the words with these codes, in any order and with repeats."""
        return cls._from_sorted(np.unique(codes))

    @classmethod
    def _from_sorted(cls, codes: np.ndarray) -> "SiteSet":
        self = cls.__new__(cls)
        self._finish_init(codes)
        return self

    def _finish_init(self, codes: np.ndarray) -> None:
        codes = np.asarray(codes, dtype=_dtype(codes))
        codes.setflags(write=False)
        key = codes.tobytes() if codes.dtype != object else tuple(codes.tolist())
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "_words", None)
        object.__setattr__(self, "_neighbors", {})
        object.__setattr__(self, "_rays", {})
        object.__setattr__(self, "_plans", WeakKeyDictionary())  # map -> {None or out sites: plan}
        object.__setattr__(self, "_cosets", None)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("SiteSet is immutable")

    def __reduce__(self):
        return SiteSet._from_sorted, (self.codes,)  # a copy builds its own tables

    @property
    def words(self) -> tuple[Word, ...]:
        if self._words is None:
            object.__setattr__(self, "_words", decode(self.codes))
        return self._words

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return self.position(w) is not None

    def __getitem__(self, i: int) -> Word:
        if isinstance(i, slice):
            return self.words[i]
        return Word._from_code(int(self.codes[i]))

    def __eq__(self, other) -> bool:
        return isinstance(other, SiteSet) and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SiteSet({len(self)} sites)"

    def position(self, w: Word) -> int | None:
        code, codes = w.code, self.codes
        if codes.dtype != object and len(w) > MAX_INT64_LETTERS:
            return None
        i = int(codes.searchsorted(code))
        return i if i < len(codes) and codes[i] == code else None

    def _find(self, codes: np.ndarray) -> np.ndarray:
        """The index of every code in this set, or -1 if absent."""
        mine = self.codes
        if codes.dtype != mine.dtype:
            mine, codes = mine.astype(object, copy=False), codes.astype(object, copy=False)
        if not len(mine):
            return np.full(len(codes), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(mine, codes), len(mine) - 1)
        return np.where(mine[pos] == codes, pos, -1)

    def indices_of(self, other: "SiteSet") -> np.ndarray:
        """For each site of ``other``, its index in this set, or -1 if absent."""
        return self._find(other.codes)

    def times(self, offsets: Iterable[Word]) -> "SiteSet":
        """The set {g * w : g in this set, w in offsets}."""
        parts = [right_mul_codes(self.codes, off) for off in offsets]
        return SiteSet.from_codes(np.concatenate(parts) if parts else self.codes[:0])

    def neighbor_indices(self, offset: Word, of: "SiteSet | None" = None) -> np.ndarray:
        """For each site g of ``of`` (default: this set), the index of
        g*offset in this set, or -1 if absent.  Cached per (offset, ``of``)."""
        own = self._own(of)
        key = offset if own else (offset, of)
        table = self._neighbors.get(key)
        if table is None:
            if own and offset.is_identity:
                table = np.arange(len(self), dtype=np.int64)  # g * e = g, no search
            else:
                table = self._find(right_mul_codes(self.codes if own else of.codes, offset))
            table.setflags(write=False)
            self._neighbors[key] = table
        return table

    def _own(self, of: "SiteSet | None") -> bool:
        """Whether ``of`` is this set, whose own tables are cached without
        it in their keys, so that the caches hold no cycle."""
        return of is None or of is self or of == self

    def ray_indices(self, letter: int, of: "SiteSet | None" = None) -> tuple[np.ndarray, np.ndarray]:
        """Generator-ray lookup for each site g of ``of`` (default: this
        set), as a pair ``(first, walk)``.

        ``first`` holds the index of g*s, or -1: ``neighbor_indices`` of
        the letter.  ``walk`` is this set's own single-letter neighbour
        table with one trailing -1, so step k+1 of every ray is
        ``walk.take(step k)`` and a ray that has ended (-1) stays ended.
        Each ray thus stops at the first power that is not a site
        (membership, not word length: lengths are not monotone near
        cancellations).  ``walk`` is read-only and cached once per letter,
        whatever ``of``.
        """
        walk = self._rays.get(letter)
        if walk is None:
            walk = np.append(self.neighbor_indices(_SINGLE[letter]), np.int64(-1))
            walk.setflags(write=False)
            self._rays[letter] = walk
        return self.neighbor_indices(_SINGLE[letter], of), walk

    def coset_table(self) -> CosetTable:
        """Each site's <a>-coset number and a-exponent, from stripping the
        trailing a-digits of every code (no group multiplication), and the
        sites in slot order, from one sort."""
        if self._cosets is None:
            object.__setattr__(self, "_cosets", _build_coset_table(self.codes))
        return self._cosets


def strip_a_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write every word as rep * a**n with rep ending in no a-letter, the
    canonical representative of the coset of the word: the codes of rep,
    and n.  In a reduced word the trailing a-run has one sign, so n is its
    signed length; the sign is the last digit's low bit."""
    starts, n, digits = _digits(codes, _longest(codes))
    pow4 = 3 * starts + 1
    power = np.where((digits & 1) == 1, -1, 1)
    # bit 2i is set where digit i is b or B, and past the word at digit n; the
    # lowest is 4**run.  In place, to hold fewer ball-sized arrays at once
    run = (digits >> 1) & starts[-1]
    run |= pow4[n]
    run &= -run
    run = np.searchsorted(pow4, run)
    power *= run
    n -= run
    digits >>= 2 * run
    digits += starts[n]
    return digits, power


def _build_coset_table(codes: np.ndarray) -> CosetTable:
    """One sort of the sites by (representative, a-exponent): the key
    rep * (2w + 1) + power + w, in a dtype that holds it."""
    rep, power = strip_a_codes(codes)
    w = _longest(codes)
    width = 2 * w + 1
    if rep.dtype != object and rep.size and int(rep.max()) * width + 2 * w > np.iinfo(np.int64).max:
        rep = rep.astype(object)
    key = rep  # a fresh array: the key is built in its place
    key *= width
    key += power
    key += w
    order = np.argsort(key)
    key = key.take(order)
    key //= width  # the representative of every slot
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    slot_coset = np.cumsum(first)
    slot_coset -= 1
    coset = np.empty_like(slot_coset)
    coset[order] = slot_coset
    offsets = np.append(starts, len(key))
    exponent = power.take(order)
    for arr in (coset, power, offsets, exponent, order):
        arr.setflags(write=False)
    return CosetTable(SiteSet._from_sorted(key.take(starts)), coset, power, offsets, exponent, order)


@functools.lru_cache(maxsize=512)
def translated_sites(sites: SiteSet, g: Word) -> tuple[SiteSet, np.ndarray]:
    """Left-translate a site set: returns (g*sites, permutation).

    permutation[i] is the position of g*sites[i] in the new set.  Cached
    because group actions repeatedly translate the same few balls.
    """
    moved = mul_codes(encode([g]), sites.codes)
    new = SiteSet.from_codes(moved)
    perm = new._find(moved)
    perm.setflags(write=False)
    return new, perm


def random_reduced_codes(rng: np.random.Generator, n: int, max_len: int) -> np.ndarray:
    """The codes of n random reduced words of length uniform in [0, max_len].

    One draw of an (n, max_len + 1) matrix, row w for word w in row-major
    order, so word w depends on the seed and w alone.  Column 0 is the
    length; column k + 1 picks letter k, the first among the four and each
    later one among the three that do not cancel the letter before it, in
    letter order; the picks past the length go unused.
    """
    if max_len < 0:
        raise ValueError("max_len must be at least 0")
    draws = rng.integers(0, [max_len + 1, 4, *[3] * (max_len - 1)][: max_len + 1], size=(n, max_len + 1))
    codes = np.zeros(n, dtype=np.int64 if max_len <= MAX_INT64_LETTERS else object)
    banned = np.full(n, 4)  # the inverse of the letter before; none before the first
    for k in range(max_len):
        letter = draws[:, k + 1] + (draws[:, k + 1] >= banned)
        codes = np.where(k < draws[:, 0], 4 * codes + letter + 1, codes)
        banned = letter ^ 1
    return codes
