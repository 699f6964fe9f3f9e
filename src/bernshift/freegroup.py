"""Exact arithmetic in the rank-2 free group and Cayley-ball enumeration.

Group elements are reduced words over the generators a, b and their
inverses.  Letters are encoded as small integers so that integer order is
exactly the generator order used everywhere else in the package:

    a = 0 < a^-1 = 1 < b = 2 < b^-1 = 3

and ``letter ^ 1`` is the inverse letter.  All values in this module are
immutable after construction; every operation is a pure function and safe
to share across threads.
"""

from __future__ import annotations

import contextlib
import functools
import gc
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

GEN_A, GEN_A_INV, GEN_B, GEN_B_INV = 0, 1, 2, 3
LETTER_CHARS = "aAbB"
_CHAR_TO_LETTER = {c: i for i, c in enumerate(LETTER_CHARS)}

DEFAULT_RADIUS_CAP = 12


class RadiusTooLarge(ValueError):
    """Requested Cayley ball exceeds the configured radius cap."""


def inverse_letter(letter: int) -> int:
    """Inverse generator code; an involution (s^1)^1 == s."""
    return letter ^ 1


class Word:
    """A reduced word in the free group F2 = <a, b>.

    The empty word is the identity.  Words compare and hash by their
    letter sequence; ``sorted`` uses shortlex order (length first, then
    the letter order a < a^-1 < b < b^-1).
    """

    __slots__ = ("letters", "_hash")

    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int] = ()):
        reduced = _reduce_letters(letters)
        _set_letters(self, reduced)
        _set_hash(self, hash(reduced))

    @classmethod
    def _from_reduced(cls, letters: tuple[int, ...]) -> "Word":
        """Wrap letters already known to be reduced (internal fast path)."""
        w = cls.__new__(cls)
        _set_letters(w, letters)
        _set_hash(w, hash(letters))
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

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __lt__(self, other: "Word") -> bool:
        return self.shortlex_key < other.shortlex_key

    def __le__(self, other: "Word") -> bool:
        return self.shortlex_key <= other.shortlex_key

    @property
    def shortlex_key(self) -> tuple:
        return (len(self.letters), self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return mul(self, other)

    def __invert__(self) -> "Word":
        return inv(self)

    def inverse(self) -> "Word":
        return inv(self)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return "".join(LETTER_CHARS[s] for s in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


# The slot descriptors write past Word.__setattr__, which refuses every
# assignment; they are cheaper than object.__setattr__ on the hot path.
_set_letters = Word.__dict__["letters"].__set__
_set_hash = Word.__dict__["_hash"].__set__


@contextlib.contextmanager
def bulk_words() -> Iterator[None]:
    """Pause the cyclic garbage collector while building many Words.

    A Word holds only a tuple of ints, so Words never form reference
    cycles, but each one is a tracked object: allocating a few hundred
    thousand of them sets off several full collections that rescan the
    whole heap, which doubles the cost of the allocation.  The collector
    is re-enabled on exit only if it was enabled on entry.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for s in letters:
        if s not in (0, 1, 2, 3):
            raise ValueError(f"bad letter code {s!r}")
        if stack and stack[-1] == s ^ 1:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


IDENTITY = Word()


def reduce_word(letters: Sequence[int]) -> Word:
    """Free reduction: cancel adjacent inverse pairs until none remain.

    The result is the unique reduced word equal to the input; idempotent.
    """
    return Word(letters)


def mul(g1: Word, g2: Word) -> Word:
    """Reduced product g1*g2 (cancellation happens only at the seam)."""
    left = list(g1.letters)
    for s in g2.letters:
        if left and left[-1] == s ^ 1:
            left.pop()
        else:
            left.append(s)
    return Word._from_reduced(tuple(left))


def a_power_decomposition(g: Word) -> tuple[Word, int]:
    """Split g = rep * a^n where rep has no trailing a-family letter.

    In a reduced word the trailing a-run has a single sign, so n is just
    the signed run length.  rep is the canonical representative of the
    coset g<a>.
    """
    letters = g.letters
    i = len(letters)
    while i > 0 and letters[i - 1] in (GEN_A, GEN_A_INV):
        i -= 1
    run = letters[i:]
    n = len(run) if (not run or run[0] == GEN_A) else -len(run)
    return Word._from_reduced(letters[:i]), n


def inv(g: Word) -> Word:
    """Reduced inverse; mul(g, inv(g)) is the identity."""
    return Word._from_reduced(tuple(s ^ 1 for s in reversed(g.letters)))


def gen_power(g: Word, letter: int, k: int) -> Word:
    """Reduced form of g * s^k for a generator code s.

    Negative k uses the inverse letter, so the same helper walks both
    directions of a generator ray.
    """
    if k == 0:
        return g
    s = letter if k > 0 else inverse_letter(letter)
    return mul(g, Word._from_reduced((s,) * abs(k)))


def ball(r: int, cap: int = DEFAULT_RADIUS_CAP) -> "SiteSet":
    """All reduced words of length <= r in shortlex order.

    |ball(r)| = 2 * 3^r - 1 for r >= 1 and 1 for r = 0.  Guarded by a
    radius cap because the count grows as 3^r.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r > cap:
        raise RadiusTooLarge(f"radius {r} exceeds cap {cap} (|ball| would be {2 * 3**r - 1})")
    words: list[Word] = [IDENTITY]
    frontier: list[Word] = [IDENTITY]
    for _ in range(r):
        nxt: list[Word] = []
        for w in frontier:
            last = w.letters[-1] if w.letters else None
            for s in (GEN_A, GEN_A_INV, GEN_B, GEN_B_INV):
                if last is not None and last == s ^ 1:
                    continue
                nxt.append(Word._from_reduced(w.letters + (s,)))
        words.extend(nxt)
        frontier = nxt
    return SiteSet._from_sorted(tuple(words))


class CosetTable(NamedTuple):
    """The <a>-coset decomposition of a site set: site i is
    ``reps[coset[i]] * a**power[i]``.

    ``reps`` lists the canonical representative of every coset that
    meets the set, in shortlex order.
    """

    reps: tuple[Word, ...]
    coset: np.ndarray
    power: np.ndarray


class SiteSet:
    """An ordered finite set of distinct group elements (shortlex order).

    Construction canonicalizes: duplicates are dropped and the words are
    sorted.  The set is immutable; derived lookup tables (neighbor,
    generator-ray and coset indices) are memoized on the instance, which
    is safe because they are pure functions of the site list.  The cached
    arrays are read-only, since every caller shares them.
    """

    __slots__ = ("words", "_index", "_neighbors", "_rays", "_cosets", "_hash")

    def __init__(self, words: Iterable[Word]):
        ordered = tuple(sorted(set(words), key=lambda w: w.shortlex_key))
        self._finish_init(ordered)

    @classmethod
    def _from_sorted(cls, ordered: tuple[Word, ...]) -> "SiteSet":
        self = cls.__new__(cls)
        self._finish_init(ordered)
        return self

    def _finish_init(self, ordered: tuple[Word, ...]) -> None:
        object.__setattr__(self, "words", ordered)
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(ordered)})
        object.__setattr__(self, "_neighbors", {})
        object.__setattr__(self, "_rays", {})
        object.__setattr__(self, "_cosets", None)
        object.__setattr__(self, "_hash", hash(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("SiteSet is immutable")

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self._index

    def __getitem__(self, i: int) -> Word:
        return self.words[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, SiteSet) and self.words == other.words

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SiteSet({len(self.words)} sites)"

    def position(self, w: Word) -> int | None:
        return self._index.get(w)

    def neighbor_indices(self, offset: Word) -> np.ndarray:
        """For each site g, the index of g*offset, or -1 if absent."""
        cached = self._neighbors.get(offset)
        if cached is None:
            idx = self._index
            cached = np.fromiter(
                (idx.get(mul(w, offset), -1) for w in self.words),
                dtype=np.int64,
                count=len(self.words),
            )
            cached.setflags(write=False)
            self._neighbors[offset] = cached
        return cached

    def ray_indices(self, letter: int) -> tuple[np.ndarray, np.ndarray]:
        """Generator-ray lookup: indices of g*s^k for k = 1, 2, ...

        The scan along each ray stops at the first power that is not a
        site (membership, not word length, is the criterion; reduced
        lengths are not monotone along rays near cancellations).  Returns
        a padded (n_sites, max_len) index array (-1 past the end) and the
        per-site ray lengths.
        """
        cached = self._rays.get(letter)
        if cached is None:
            idx = self._index
            rows: list[list[int]] = []
            for w in self.words:
                row: list[int] = []
                cur = w
                while True:
                    cur = mul(cur, _SINGLE[letter])
                    j = idx.get(cur)
                    if j is None:
                        break
                    row.append(j)
                rows.append(row)
            max_len = max((len(r) for r in rows), default=0)
            padded = np.full((len(rows), max_len), -1, dtype=np.int64)
            lengths = np.zeros(len(rows), dtype=np.int64)
            for i, row in enumerate(rows):
                padded[i, : len(row)] = row
                lengths[i] = len(row)
            padded.setflags(write=False)
            lengths.setflags(write=False)
            cached = (padded, lengths)
            self._rays[letter] = cached
        return cached

    def coset_table(self) -> CosetTable:
        """Each site's <a>-coset number and a-exponent, from one pass over
        the letters of every site (no group multiplication)."""
        if self._cosets is None:
            object.__setattr__(self, "_cosets", _build_coset_table(self.words))
        return self._cosets


def _build_coset_table(words: Sequence[Word]) -> CosetTable:
    first: dict[Word, int] = {}  # representative -> number in order of first appearance
    seen = np.empty(len(words), dtype=np.int64)
    power = np.empty(len(words), dtype=np.int64)
    for i, w in enumerate(words):
        rep, n = a_power_decomposition(w)
        seen[i] = first.setdefault(rep, len(first))
        power[i] = n
    reps = sorted(first, key=lambda c: c.shortlex_key)
    rank = np.empty(len(reps), dtype=np.int64)
    rank[[first[c] for c in reps]] = np.arange(len(reps))
    coset = rank[seen]
    coset.setflags(write=False)
    power.setflags(write=False)
    return CosetTable(tuple(reps), coset, power)


_SINGLE = tuple(Word._from_reduced((s,)) for s in (GEN_A, GEN_A_INV, GEN_B, GEN_B_INV))


@functools.lru_cache(maxsize=512)
def translated_sites(sites: SiteSet, g: Word) -> tuple[SiteSet, tuple[int, ...]]:
    """Left-translate a site set: returns (g*sites, permutation).

    permutation[i] is the position of g*sites[i] in the new set.  Cached
    because group actions repeatedly translate the same few balls.
    """
    moved = [mul(g, w) for w in sites.words]
    new = SiteSet(moved)
    perm = tuple(new.position(m) for m in moved)  # type: ignore[misc]
    return new, perm


def random_word(rng: np.random.Generator, max_len: int) -> Word:
    """A random reduced word of length uniform in [0, max_len]."""
    n = int(rng.integers(0, max_len + 1))
    letters: list[int] = []
    for _ in range(n):
        choices = [s for s in (0, 1, 2, 3) if not letters or letters[-1] != s ^ 1]
        letters.append(int(choices[rng.integers(0, len(choices))]))
    return Word._from_reduced(tuple(letters))
