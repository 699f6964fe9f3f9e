"""Alphabets, finite distributions, and partial configurations on site sets.

A configuration is the finite shadow of a point of the full shift: a
partial assignment of alphabet symbols to an ordered site set, stored
as an index array with -1 where a value is missing (window-boundary
effects are data, not errors).  Everything here is an immutable value.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn, Sequence

import numpy as np

from .freegroup import SiteSet, Word, encode, translated_sites

DEFAULT_ENUMERATION_CAP = 2**24
# Bytes of buffer ``sample_matrix`` fills per block: 1 MiB of float64
# uniforms on the float path, 1 MiB of intp byte-pair indices on the byte
# path (a quarter as many 64-bit random words, four pairs each), either
# way small enough to stay in L2 cache with its companions.
SAMPLE_BLOCK_BYTES = 2**20


class EnumerationTooLarge(ValueError):
    """The requested exhaustive enumeration exceeds the configured cap."""


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set, optionally with bit-plane or star structure.

    tag "z2_product": 2^planes symbols identified with bit vectors; the
    label spells the planes in order (i1 i2 ... im) and plane 1 is the
    least significant bit of the symbol index.
    tag "star_extended": the 2^planes pair symbols plus a final `*`.
    """

    name: str
    symbols: tuple[str, ...]
    tag: str = "plain"
    planes: int | None = None

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if self.tag == "z2_product":
            if self.planes is None or len(self.symbols) != 2**self.planes:
                raise ValueError("z2_product alphabet needs exactly 2^planes symbols")
        elif self.tag == "star_extended":
            if self.planes is None or len(self.symbols) != 2**self.planes + 1:
                raise ValueError("star_extended alphabet needs 2^planes + 1 symbols")
        elif self.tag != "plain":
            raise ValueError(f"unknown alphabet tag {self.tag!r}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def star_index(self) -> int:
        if self.tag != "star_extended":
            raise ValueError(f"{self.name} has no star symbol")
        return len(self.symbols) - 1


def _bit_labels(m: int) -> tuple[str, ...]:
    return tuple("".join(str((i >> (j - 1)) & 1) for j in range(1, m + 1)) for i in range(2**m))


def bit_alphabet(m: int) -> Alphabet:
    """The 2^m-symbol alphabet of m-bit vectors, named U2, U4, U8, ..."""
    if m < 1:
        raise ValueError("need at least one bit plane")
    return Alphabet(f"U{2**m}", _bit_labels(m), tag="z2_product", planes=m)


def star_alphabet(m: int = 1) -> Alphabet:
    """2^m bit-vector symbols plus a distinguished `*`, named e.g. U2*."""
    if m < 1:
        raise ValueError("need at least one bit plane")
    return Alphabet(f"U{2**m}*", _bit_labels(m) + ("*",), tag="star_extended", planes=m)


_ALPHABET_NAME_RE = re.compile(r"^U(\d+)(\*?)$")


def alphabet_by_name(name: str) -> Alphabet:
    """Resolve the standard alphabet names used in JSON dumps and the CLI."""
    m = _ALPHABET_NAME_RE.match(name)
    if m:
        n = int(m.group(1))
        planes = n.bit_length() - 1
        if 2**planes == n and planes >= 1:
            return star_alphabet(planes) if m.group(2) else bit_alphabet(planes)
    raise ValueError(f"unknown alphabet name {name!r}")


@dataclass(frozen=True)
class Distribution:
    """A probability vector over an alphabet.

    Weights are either all `Fraction` (exact mode, used by enumeration
    checks) or floats (entropy arithmetic).  The vector must sum to 1,
    exactly in rational mode and within 1e-12 otherwise.
    """

    alphabet: Alphabet
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != self.alphabet.size:
            raise ValueError("one weight per symbol required")
        if not all(w >= 0 for w in self.weights):  # a nan weight fails too
            raise ValueError("weights must be nonnegative")
        total = sum(self.weights)
        if self.is_exact:
            if total != 1:
                raise ValueError(f"rational weights sum to {total}, not 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(w, (Fraction, int)) for w in self.weights)

    def float_weights(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)


def uniform(alphabet: Alphabet) -> Distribution:
    n = alphabet.size
    return Distribution(alphabet, tuple(Fraction(1, n) for _ in range(n)))


def star_base(p) -> Distribution:
    """The three-symbol law (p, p, 1-2p) on {0, 1, *}."""
    if not 0 < p <= Fraction(1, 2):
        raise ValueError("p must lie in (0, 1/2]")
    return Distribution(star_alphabet(1), (p, p, 1 - 2 * p))


def star_image(p) -> Distribution:
    """The star-map output law (p/2 on each pair, 1-2p on *)."""
    if not 0 < p <= Fraction(1, 2):
        raise ValueError("p must lie in (0, 1/2]")
    half = p / 2
    return Distribution(star_alphabet(2), (half, half, half, half, 1 - 2 * p))


def json_boundary(parse):
    """Refuse wrong-typed JSON with a ValueError: a field of the wrong type,
    or an integer past int64, fails ``parse`` with one of the errors below."""

    @functools.wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except (TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed JSON input: {exc}") from exc

    return wrapper


def json_indices(values, count: int) -> list:
    """A JSON list of ``count`` values; the constructor it feeds refuses
    any that is neither a symbol index nor null (``symbol_indices``)."""
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"need a list of {count} values")
    return values


def symbol_indices(alphabet: Alphabet, values) -> np.ndarray:
    """A fresh array of symbol indices over ``alphabet``, in its
    ``symbol_dtype``, -1 where undefined: from an integer array of any
    shape in that form, or from a sequence of ints with None where
    undefined (in which -1 is refused, as None marks an undefined site
    there).  A float or a bool is no symbol index.  Every index is checked
    against -1..size-1 before the cast, with one min/max pass, so that
    none wraps (256 is no int8 0)."""
    size = alphabet.size
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in "iu":
            raise ValueError(f"symbol indices must be integers, not {values.dtype}")
        if values.size and (int(values.min()) < -1 or int(values.max()) >= size):
            _refuse(alphabet, values.ravel().tolist(), -1)
        return values.astype(symbol_dtype(size))
    values = list(values)
    if not set(map(type, values)) <= {int, type(None)}:  # one pass over the types in the common case
        for v in values:
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
                raise ValueError(f"value {v!r} is neither a symbol index nor null")
    try:
        indices = np.array([-1 if v is None else v for v in values], dtype=np.int64)
    except OverflowError:
        _refuse(alphabet, values, None)
    if indices.size and (int(indices.min()) < -1 or int(indices.max()) >= size
                         or np.count_nonzero(indices == -1) != values.count(None)):
        _refuse(alphabet, values, None)
    return indices.astype(symbol_dtype(size))


def _refuse(alphabet: Alphabet, values: list, undefined) -> NoReturn:
    """Raise for the first of ``values``, other than the mark ``undefined``
    (-1 or None), that is out of range for ``alphabet``."""
    bad = next(v for v in values if v != undefined and not 0 <= v < alphabet.size)
    raise ValueError(f"symbol index {bad} out of range for {alphabet.name}")


class Configuration:
    """A partial symbol assignment on a site set.

    Stored as one read-only array ``indices`` in the alphabet's
    ``symbol_dtype`` (int8 up to 128 symbols, else int64), the dtype of
    every batch matrix: the symbol index at ``sites[i]``, or -1 where the
    configuration is undefined (the batch convention).  ``values`` is the
    boundary view, a tuple with None at undefined sites, built when first
    asked.  The constructor takes that view, or an integer array of any
    dtype in the index form, and copies it (``symbol_indices``).  The
    dtype depends on the alphabet alone, so equal values are equal bytes.
    Immutable.
    """

    __slots__ = ("alphabet", "sites", "indices", "_values")

    def __init__(self, alphabet: Alphabet, sites: SiteSet, values: Sequence[int | None] | np.ndarray):
        indices = symbol_indices(alphabet, values)
        if indices.shape != (len(sites),):
            raise ValueError("one value per site required")
        indices.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __reduce__(self):
        return Configuration, (self.alphabet, self.sites, self.indices)

    def _key(self) -> tuple:
        return (self.alphabet, self.sites, self.indices.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Configuration({self.alphabet.name}, {len(self.sites)} sites, {self.defined_count} defined)"

    @property
    def values(self) -> tuple[int | None, ...]:
        if self._values is None:
            values = tuple(None if v < 0 else v for v in self.indices.tolist())
            object.__setattr__(self, "_values", values)
        return self._values

    def value_at(self, w: Word) -> int | None:
        i = self.sites.position(w)
        return None if i is None or self.indices[i] < 0 else int(self.indices[i])

    @property
    def defined_count(self) -> int:
        return int(np.count_nonzero(self.indices >= 0))

    @property
    def is_total(self) -> bool:
        return bool((self.indices >= 0).all())

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet.name,
            "sites": [str(w) for w in self.sites],
            "values": list(self.values),
        }

    @classmethod
    @json_boundary
    def from_json(cls, data: dict) -> "Configuration":
        alpha = alphabet_by_name(data["alphabet"])
        words = [Word.parse(s) for s in data["sites"]]
        sites = SiteSet(words)
        if len(sites) != len(words):
            raise ValueError("duplicate sites in configuration dump")
        values = json_indices(data["values"], len(words))
        return cls(alpha, sites, [values[i] for i in np.argsort(encode(words))])


def translate(g: Word, x: Configuration) -> Configuration:
    """The shift action on configurations: value of the result at g*f is
    the value of x at f, i.e. (g.x)(h) = x(g^-1 h)."""
    new_sites, perm = translated_sites(x.sites, g)
    values = np.empty(len(new_sites), dtype=x.indices.dtype)
    values[perm] = x.indices
    return Configuration(x.alphabet, new_sites, values)


def restrict(x: Configuration, sub: SiteSet) -> Configuration:
    """Restriction to a site set; sites absent from x become undefined."""
    # index -1 (absent) reads the appended undefined entry
    padded = np.concatenate((x.indices, [-1]), dtype=x.indices.dtype)
    return Configuration(x.alphabet, sub, padded[x.sites.indices_of(sub)])


def sample(
    dist: Distribution, sites: SiteSet, seed: int | np.random.Generator
) -> Configuration:
    """One i.i.d. draw of a total configuration; deterministic given seed."""
    return Configuration(dist.alphabet, sites, sample_matrix(dist, len(sites), 1, np.random.default_rng(seed))[:, 0])


def symbol_dtype(size: int) -> type:
    """The dtype of a batch of symbol indices over an alphabet of ``size``
    symbols: int8 up to 128 symbols (-1 stays representable), else int64."""
    return np.int8 if size <= 128 else np.int64


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes each that fit ``SAMPLE_BLOCK_BYTES``; at least one."""
    return max(1, SAMPLE_BLOCK_BYTES // max(1, row_bytes))


@functools.lru_cache(maxsize=32)
def dyadic_table(weights: tuple) -> np.ndarray | None:
    """The byte table of a dyadic law, or None for any other law.

    A law is dyadic when every weight, read exactly as a ``Fraction`` (so
    the float 0.25 qualifies), is k_i / 2^d with d <= 8, and the weights
    sum to exactly 1.  Row b of the (256, c) table holds the c symbols
    that the random byte b gives: c is the largest power of two with
    c * d <= 8 and c * itemsize <= 8, and lane l reads bits
    [l * 8/c, (l + 1) * 8/c) of b, of which symbol i owns k_i * 2^(8/c - d)
    values.  So in every lane symbol i owns exactly k_i * 2^(8 - d) of the
    256 bytes, and the sampled law is exactly the declared one.  This
    table defines the law; ``pair_table`` only reads two bytes at once.
    """
    exact = [Fraction(w) for w in weights]
    dens = [f.denominator for f in exact]
    if sum(exact) != 1 or any(den & (den - 1) for den in dens) or max(dens) > 256:
        return None
    d = max(dens).bit_length() - 1
    dtype = np.dtype(symbol_dtype(len(weights)))
    c = 8 // dtype.itemsize
    while c * d > 8:
        c //= 2
    bits = 8 // c
    cum = np.cumsum([int(f * 2**d) << (bits - d) for f in exact])
    lanes = (np.arange(256)[:, None] >> (bits * np.arange(c))) & ((1 << bits) - 1)
    table = np.searchsorted(cum, lanes, side="right").astype(dtype)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=32)
def pair_table(weights: tuple) -> np.ndarray:
    """The byte table of a dyadic law read two bytes at a time.

    Row b0 + 256 * b1 of the 65,536 rows is ``dyadic_table`` row b0
    followed by row b1: the 2c cells of the little-endian byte pair
    (b0, b1), as one word of 2c * itemsize bytes (``V16`` when that is
    wider than 8 bytes).  Read-only, and built on a law's first draw.
    """
    table = dyadic_table(weights)
    c = table.shape[1]
    both = np.empty((256, 256, 2 * c), dtype=table.dtype)
    both[:, :, :c] = table  # axis 1 is b0
    both[:, :, c:] = table[:, None]  # axis 0 is b1
    width = both.itemsize * 2 * c
    pairs = both.view(f"u{width}" if width <= 8 else f"V{width}").reshape(-1)
    pairs.setflags(write=False)
    return pairs


def sample_matrix(
    dist: Distribution, n_sites: int, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_sites, n_draws) i.i.d. symbol indices with law ``dist``.

    Site-major: column k is draw k, and row j holds every draw's value at
    site j contiguously, which is what the batch kernels gather.  The
    matrix is int8 for alphabets of at most 128 symbols and int64
    otherwise (``symbol_dtype``).  Both samplers below fill the matrix in
    its flat (site-major) order from one random stream.

    A dyadic law (``dyadic_table``) is sampled exactly from random bytes:
    byte t of the stream gives the c cells t*c .. t*c + c - 1.  The
    stream is the little-endian bytes of ``rng.integers(0, 2**64,
    dtype=np.uint64)`` words, drawn in blocks of whole words, so
    consecutive blocks continue one stream.  On a fresh PCG64 generator
    those bytes are exactly one ``rng.bytes`` call's (its 32-bit draws
    are the low, then the high half of each 64-bit word); on a generator
    that has made a lone 32-bit draw they are not, since ``rng.bytes``
    would first spend the buffered half word.  Each byte pair is looked
    up at once in ``pair_table`` and written straight into place, after
    being widened into one reused intp buffer of ``SAMPLE_BLOCK_BYTES``
    (``np.take`` would widen a fresh copy); a last partial pair is
    filled from the byte table.

    Any other law takes inversion sampling against the cumulative
    weights: cell t is the number of cumulative weights (all but the
    last) that uniform t of one ``rng.random`` stream reaches, which is
    ``searchsorted(cdf, u, side="right")``.  The uniforms are drawn in
    blocks of ``SAMPLE_BLOCK_BYTES`` into one reused buffer, beside one
    reused bool buffer, and counted straight into place.
    """
    table = dyadic_table(dist.weights)
    if table is not None:
        out = np.empty((n_sites, n_draws), dtype=table.dtype)
        _sample_bytes(table, pair_table(dist.weights), out.reshape(-1), rng)
        return out
    cdf = np.cumsum(np.asarray(dist.float_weights(), dtype=np.float64))
    out = np.empty((n_sites, n_draws), dtype=symbol_dtype(len(cdf)))
    flat = out.reshape(-1)
    # buffers reused by every block: fresh ones would fault in new pages each time
    u = np.empty(min(block_rows(8), max(len(flat), 1)))
    hit = np.empty(u.shape, dtype=bool)
    for lo in range(0, len(flat), len(u)):
        draws = rng.random(out=u[: len(flat) - lo])
        block, reached = flat[lo : lo + len(draws)], hit[: len(draws)]
        block.fill(0)
        for c in cdf[:-1]:
            block += np.greater_equal(draws, c, out=reached)
    return out


def _sample_bytes(table: np.ndarray, pairs: np.ndarray, flat: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``flat`` from one random byte pair per row of ``pairs``; the
    last pair fills a partial row from ``table`` when 2c does not divide
    ``flat``'s size."""
    c = table.shape[1]
    n_full, rest = divmod(len(flat), 2 * c)
    full = flat[: n_full * 2 * c].view(pairs.dtype)
    n_words = -(-len(flat) // (8 * c))  # 8 bytes of c cells each per word
    block = max(1, SAMPLE_BLOCK_BYTES // np.dtype(np.intp).itemsize // 4)  # words of 4 pairs
    idx = np.empty(min(4 * block, n_full), dtype=np.intp)
    for lo in range(0, n_words, block):
        words = rng.integers(0, 2**64, size=min(block, n_words - lo), dtype=np.uint64)
        pair = words.astype("<u8", copy=False).view("<u2")
        ix = idx[: min(len(pair), n_full - 4 * lo)]
        ix[...] = pair[: len(ix)]
        # every pair indexes the table; "clip" skips the copy "raise" buffers out through
        np.take(pairs, ix, out=full[4 * lo : 4 * lo + len(ix)], mode="clip")
        if rest and len(ix) < len(pair):
            b = int(pair[len(ix)])
            flat[n_full * 2 * c :] = table[[b & 255, b >> 8]].reshape(-1)[:rest]


def index_matrix(size: int, n_sites: int, lo: int, hi: int) -> np.ndarray:
    """Inputs lo..hi-1 of the enumeration as an (n_sites, hi-lo) index
    matrix: site-major like ``sample_matrix``, with column k the input
    lo + k and site j its j-th base-``size`` digit.  Int8 for alphabets
    of at most 128 symbols and int64 otherwise, as ``sample_matrix``."""
    idx = np.arange(lo, hi, dtype="<i8")  # little-endian: byte b holds binary digits 8b..8b+7
    out = np.empty((n_sites, hi - lo), dtype=symbol_dtype(size))
    if size == 2:
        by_byte = np.ascontiguousarray(idx.view(np.uint8).reshape(-1, 8).T[: -(-n_sites // 8)])
        for j in range(n_sites):
            np.bitwise_and(by_byte[j // 8] >> (j % 8), 1, out=out[j])
    else:
        q = idx.copy()
        for j in range(n_sites):
            out[j] = q % size
            q //= size
    return out
