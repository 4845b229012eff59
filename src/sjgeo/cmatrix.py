"""Dense complex matrix kernel.

Small, self-contained helpers for the matrix sizes this library actually
meets (everything is <= 10x10): the product of small matrices or of
stacks of them (mat_mul: the metric forms and the fields multiply a
stack of stencil nodes or oracle points with it, not with one BLAS call
per matrix), inversion with an explicit pivot guard (mat_inverse), block
assembly, the Hermitian positive-definite margin, the max-norm and the
symmetry defect, each of one matrix or of every matrix of a stack, the
seeded draws every random_* builds on, and the JSON wire format shared by
all higher layers.

The seeded draws (seeded, SeedStream) compute what numpy's
default_rng(seed) draws, to the last bit, for a whole stack of seeds at
once: SeedSequence's hashing, PCG64's outputs as one product with a table
of constants, and Generator's uniform and bounded integer draws.  No
generator is built and numpy.random is never imported.

mat_mul and mat_inverse take stacks in any memory order and keep it: a
stack laid out stack-last, as (K, r, c) views of (r, c, K) memory, gets
stack-last products and inverses, with the bits of a C-contiguous stack.

Backed by numpy alone, with one algorithm per operation for one matrix
and for a stack, in any memory order, so a matrix gets the same bits
alone or in any stack; the contracts (shapes, error conditions, tolerances)
are what the rest of the library relies on.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = [
    "SeedStream",
    "SingularMatrix",
    "as_cmatrix",
    "frozen",
    "seeded",
    "block",
    "mat_mul",
    "mat_inverse",
    "hermitian_pd_margin",
    "mat_max_abs",
    "sym_defect",
    "mat_to_json",
    "mat_from_json",
]

# Relative pivot threshold for inversion: pivots below this times the
# largest entry signal a (numerically) singular input.
PIVOT_RTOL = 1e-12


class SingularMatrix(Exception):
    """Raised when a matrix required to be invertible is numerically singular."""


def as_cmatrix(data) -> np.ndarray:
    """Return a complex128 2-D array, validating shape and finiteness."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def frozen(a, dtype, shape: tuple | None = None) -> np.ndarray:
    """A read-only array of ``dtype`` with the values of ``a``; ``shape``,
    when given, is the expected full shape, stack axes included.

    An array that is already read-only, of ``dtype`` and owns its data is
    taken as it is, without a copy (stacked points can be large); any
    other input is copied, so a caller's array never changes flags.  The
    library's own producers (the chart's unpacking, act_upper, act_disk)
    mark the arrays they have just made, and alone hold, read-only before
    they hand them over, so a fresh point is built without a second copy.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.flags.writeable = False
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


# ---------------------------------------------------------------------------
# Seeded draws: numpy's default_rng(seed) stream for a stack of seeds
#
# default_rng(seed) hashes the seed's 32-bit words into a pool of four with
# SeedSequence, and the pool into a PCG64 seed x and stream number q, whose
# increment is 2q + 1 (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014).  PCG64's state before output i is then
# M^(i+2) x + (M^0 + ... + M^(i+2)) (2q + 1) mod 2**128, a linear form in
# the 16-bit halves of the words of x and q, with constant coefficients:
# one matrix product gives every output of every seed.

_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list:
    """SeedSequence's first ``count`` hash constants: its kth hash maps a
    word v to h ^ (h >> 16), h = (v ^ xor) * mul mod 2**32, where (xor, mul)
    is pair k."""
    pairs = []
    for _ in range(count):
        pairs.append((init, init * mult & _M32))
        init = pairs[-1][1]
    return pairs


_MIX = (0xCA01F9DD, 0x4973F715)

# The pool's hashes: one per entropy word, then three per pool word, one
# mixed into each other pool word; a word past the fourth (a seed of
# 2**128 or more) takes four more, mixed into each pool word.
_POOL_HASH = (0x43B0D7E5, 0x931E8875)
_POOL_PAIRS = _hash_constants(*_POOL_HASH, 16)
# generate_state(4, uint64) hashes the pool twice round into eight words:
# x is words 2, 3, 0, 1 and q words 6, 7, 4, 5, least significant first.
_STATE_PAIRS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_STATE_WORDS = [2, 3, 0, 1, 6, 7, 4, 5]

# Round r mixes the pool word r into the three others, so its constants
# stand at the other words' places.
_POOL_XOR, _POOL_MUL = np.array(_POOL_PAIRS, dtype=np.uint32).T
_ROUND_OTHERS = ~np.eye(4, dtype=bool)
_ROUND_XOR, _ROUND_MUL = np.zeros((2, 4, 4), dtype=np.uint32)
_ROUND_XOR[_ROUND_OTHERS] = _POOL_XOR[4:]
_ROUND_MUL[_ROUND_OTHERS] = _POOL_MUL[4:]
_STATE_XOR, _STATE_MUL = np.array(_STATE_PAIRS, dtype=np.uint32)[_STATE_WORDS].T
_STATE_POOL = np.array(_STATE_WORDS) % 4


def _hashed(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    h = words ^ xor
    h *= mul
    h ^= h >> 16
    return h


def _mixed(pool: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each hash of ``h`` mixed into its word p of ``pool``: r ^ (r >> 16),
    r = (_MIX[0] p - _MIX[1] h) mod 2**32."""
    h *= np.uint32(_MIX[1])
    mixed = pool * np.uint32(_MIX[0])
    mixed -= h
    mixed ^= mixed >> 16
    return mixed


def _state_words(words: np.ndarray, counts) -> np.ndarray:
    """(K, 8) uint32: the words of x and q of each seed, on the stack, from
    its 32-bit words (K, W) uint32, W >= 4, least significant first and
    zero past its word count ``counts`` (one per seed, or one all share)."""
    pool = _hashed(words[:, :4], _POOL_XOR[:4], _POOL_MUL[:4])
    for r in range(4):
        h = _hashed(pool[:, r, None], _ROUND_XOR[r], _ROUND_MUL[r])
        np.copyto(pool, _mixed(pool, h), where=_ROUND_OTHERS[r])
    if words.shape[1] > 4:   # a seed of 2**128 or more
        pairs = np.array(_hash_constants(*_POOL_HASH, 4 * words.shape[1]), dtype=np.uint32)
        xor, mul = pairs.T.reshape(2, -1, 4)   # word k's four hashes are row k
        for k in range(4, words.shape[1]):
            h = _hashed(words[:, k, None], xor[k], mul[k])
            np.copyto(pool, _mixed(pool, h), where=(counts > k)[:, None])
    return _hashed(pool[:, _STATE_POOL], _STATE_XOR, _STATE_MUL)


@cache
def _pcg_table(stop: int) -> np.ndarray:
    """(17, 4, stop) float64, read-only: word j of the coefficients of
    PCG64's state before each output i < stop, one row per coefficient:
    the low and high 16-bit halves of each word of x and of q
    (_seed_halves), and a constant.  Each entry is below 2**32, so with the
    halves below 2**16 and the constant 1 every sum is an integer below
    16 (2**16 - 1)(2**32 - 1) + 2**32 < 2**52, exact in float64."""
    mod = 1 << 128
    power, total, a, b = _PCG_MULT ** 2 % mod, 1 + _PCG_MULT, [], []
    for _ in range(stop):
        total = (total + power) % mod
        a.append(power)
        b.append(total)
        power = power * _PCG_MULT % mod

    def limbs(values):   # (8, stop) 16-bit halves, least significant first
        return np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values),
                             dtype="<u2").reshape(-1, 8).T.astype(np.float64)

    rows = []
    for coeffs in (limbs(a), limbs([2 * v % mod for v in b])):
        for shift in range(8):   # the halves of words 0..3 of x (of q), times 2**(16 shift)
            shifted = np.zeros_like(coeffs)
            shifted[shift:] = coeffs[:8 - shift]
            rows.append(shifted[0::2] + 65536.0 * shifted[1::2])
    constant = limbs(b)
    rows.append(constant[0::2] + 65536.0 * constant[1::2])
    table = np.stack(rows)
    table.flags.writeable = False
    return table


def _pcg_outputs(halves: np.ndarray, start: int, stop: int) -> np.ndarray:
    """(K, stop - start) uint64: outputs start..stop-1 of each seed, from its
    (K, 17) row of _seed_halves."""
    # built on the first draw that needs it, for 64, 128, 256, ... outputs
    table = _pcg_table(max(64, 1 << (stop - 1).bit_length()))[:, :, start:stop]
    # numpy's own loop, not BLAS: the sums are exact in any order, and BLAS
    # would spread a large stack's product over threads, which then spin
    # through the rest of the check
    sums = np.einsum("kr,rjc->kjc", halves, table)
    # an integer v < 2**52 has the bits of 2**52 + v less those of 2**52:
    # the sums become uint64 in place
    sums += 2.0 ** 52
    words = sums.view(np.uint64)
    words -= np.uint64(0x4330000000000000)
    w0, w1, w2, w3 = words.transpose(1, 0, 2)
    # the state's 64-bit halves from the sums of its 32-bit words
    hi = w0 >> 32
    hi += w1
    hi >>= 32
    hi += w2
    w3 <<= 32
    hi += w3
    w1 <<= 32
    w1 += w0   # the low half
    # XSL-RR: hi ^ lo, rotated right by the state's top six bits
    rot = np.right_shift(hi, 58, out=w2)
    w1 ^= hi
    out = w1 >> rot
    np.subtract(64, rot, out=w3)
    w3 &= 63
    w1 <<= w3
    out |= w1
    return out


def _seed_halves(seed) -> tuple:
    """Each seed's 16-bit halves of the words of x and q and a one (K, 17),
    and whether ``seed`` is a stack (a 1-D array) of seeds."""
    seeds = np.asarray(seed)
    if seeds.ndim > 1 or not seeds.size:
        raise ValueError(f"expected a seed or a 1-D array of seeds, got shape {seeds.shape}")
    flat = seeds.reshape(-1)
    if seeds.dtype.kind in "iu":
        if flat.min() < 0:
            raise ValueError("a seed must be non-negative")
        flat = flat.astype(np.uint64)
        words = np.zeros((len(flat), 4), dtype=np.uint32)
        words[:, 0] = flat   # the low 32 bits
        words[:, 1] = flat >> 32
        words = _state_words(words, 4)
    else:
        # seeds of 2**64 or more; no generator, no None, no bool (a bool is
        # an int to Python, not to numpy)
        values = flat.tolist()
        if seeds.dtype.kind != "O" or not all(
                isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))
                for v in values):
            raise TypeError(f"a seed is an integer, got {type(seed).__name__}")
        values = [int(v) for v in values]
        if min(values) < 0:
            raise ValueError("a seed must be non-negative")
        counts = [(max(128, v.bit_length()) + 31) // 32 for v in values]
        words = _state_words(np.array([[v >> 32 * k & _M32 for k in range(max(counts))]
                                       for v in values], dtype=np.uint32), np.array(counts))
    halves = np.ones((len(flat), 17))
    halves[:, :16] = np.ascontiguousarray(words, dtype="<u4").view("<u2")
    return halves, bool(seeds.ndim)


def _uniform(raw: np.ndarray, low: float, high: float) -> np.ndarray:
    """Generator's uniform(low, high) from raw outputs."""
    # (high - low) * 2**-53 is exact, so this rounds as Generator's
    # low + (high - low) * ((raw >> 11) * 2**-53) does
    values = (raw >> 11) * ((high - low) * 2.0 ** -53)
    values += low
    return values


_HALVES = np.array([0, 32], dtype=np.uint64)   # the shifts of an output's low and high half


def _lemire(half: np.ndarray, low: int, high: int) -> tuple:
    """Generator's integers(low, high) from 32-bit halves (uint64), and
    whether Lemire's method rejects each half."""
    span = high - low
    scaled = half * np.uint64(span)
    return (scaled >> 32).astype(np.intp) + low, (scaled & _M32) < (2 ** 32 - span) % span


class SeedStream:
    """What ``numpy.random.default_rng(seed)`` draws, for each seed of a
    stack at once, bit for bit: its raw 64-bit outputs, computed when first
    needed, and the ``uniform`` and ``steps`` draws Generator makes from
    them.

    Every seed starts at output 0 and keeps its own place.  ``uniform``
    takes whole outputs: ``low + (high - low) * ((r >> 11) * 2**-53)``.
    ``steps`` makes the stream's integer draws, from 32-bit halves.
    """

    def __init__(self, seed):
        self._halves, self.stacked = _seed_halves(seed)
        self._raw = np.empty((len(self._halves), 0), dtype=np.uint64)
        self._next = np.zeros(len(self._halves), dtype=np.intp)   # each seed's next output
        self._rows = np.arange(len(self._halves))[:, None]
        self._stepped = False

    def _outputs(self, stop: int) -> np.ndarray:
        """The raw outputs, at least the first ``stop`` of every seed."""
        have = self._raw.shape[1]
        if stop > have:
            more = _pcg_outputs(self._halves, have, stop)
            self._raw = np.concatenate([self._raw, more], axis=1) if have else more
        return self._raw

    def _take(self, cols: np.ndarray) -> np.ndarray:
        """The outputs at each seed's ``cols`` (a row per seed)."""
        return self._outputs(int(cols.max(initial=-1)) + 1)[self._rows, cols]

    def _window(self, count: int) -> np.ndarray:
        """(K, count): each seed's next ``count`` outputs."""
        return self._take(self._next[:, None] + np.arange(count))

    def uniform(self, *parts) -> tuple:
        """One array (K, *shape) per part (low, high, shape), drawn in order."""
        shapes = [(shape,) if isinstance(shape, int) else shape for _, _, shape in parts]
        sizes = [math.prod(shape) for shape in shapes]
        raw = self._window(sum(sizes))
        self._next += sum(sizes)
        out, at = [], 0
        for (low, high, _), shape, size in zip(parts, shapes, sizes):
            out.append(_uniform(raw[:, at: at + size], low, high).reshape(raw.shape[:1] + shape))
            at += size
        return tuple(out)

    def steps(self, count: range, kinds: int, bare: int, shape: tuple) -> tuple:
        """Generator's ``integers(count.start, count.stop)`` steps, each of
        a kind ``integers(0, kinds)`` followed, unless it is ``bare``, by
        ``uniform(-1.0, 1.0, shape)``: each seed's kinds (K, count.stop - 1),
        -1 past its count, and uniforms (K, count.stop - 1, *shape), zero
        where a step has none.

        Generator draws each integer from a 32-bit half by Lemire's method
        ("Fast Random Integer Generation in an Interval", ACM TOMACS 2019):
        the low half of a fresh output, or the high half of the last one,
        which waits for the next integer draw while ``uniform`` takes whole
        outputs.  So the count and kind 0 are the halves of the first
        output, and kinds 2j + 1 and 2j + 2 those of the output after the
        uniforms of kind 2j, all seeds at once.  A rejected half (about one
        in 2**32) is drawn again from the next one and moves every later
        draw of its seed, which is then drawn alone (_steps_one).  A
        stream makes one ``steps`` draw: a second would first have to read
        the half the first left waiting.
        """
        if count.start < 1 or len(count) < 2 or not 1 < kinds < 2 ** 32:
            raise ValueError(f"steps needs a count range of 1 or more and at least "
                             f"two counts and two kinds, got {count} and {kinds}")
        if self._stepped:
            raise RuntimeError("a SeedStream makes one steps draw")
        self._stepped = True
        size, most = math.prod(shape), count.stop - 1
        rows = self._rows[:, 0]
        window = self._window(1 + most // 2 + most * size)   # what the longest draw reads
        word, at = window[:, 0], np.ones_like(rows)
        number, rejected = _lemire(word & _M32, count.start, count.stop)
        # kind t is half 1 - t % 2 of ``word``, its uniforms start at
        # ``starts[t]`` and the next draw at ``ends[t]``: every step as if
        # all were drawn
        got, missed, starts, ends = [], [], [], []
        for t in range(most):
            if t % 2:   # kinds t and t + 1 are the halves of a fresh output
                word, at = window[rows, at], at + 1
            if t % 2 or not t:
                kind, rejects = _lemire(word[:, None] >> _HALVES & _M32, 0, kinds)
            got.append(kind[:, 1 - t % 2])
            missed.append(rejects[:, 1 - t % 2])
            starts.append(at)
            at = at + size * (got[-1] != bare)
            ends.append(at)
        got, starts = np.stack(got, axis=1), np.stack(starts, axis=1) + self._next[:, None]
        live = number[:, None] > np.arange(most)
        rejected |= (np.stack(missed, axis=1) & live).any(axis=1)
        got[~live] = -1
        at = np.stack(ends, axis=1)[rows, number - 1] + self._next
        for row in np.flatnonzero(rejected):
            got[row], starts[row], at[row] = self._steps_one(row, count, kinds, bare, size)
        cols = starts[:, :, None] + np.arange(size)
        u = _uniform(self._take(cols.reshape(len(at), -1)), -1.0, 1.0).reshape(cols.shape)
        u[(got < 0) | (got == bare)] = 0.0
        self._next = at
        return got, u.reshape(got.shape + tuple(shape))

    def _steps_one(self, row: int, count: range, kinds: int, bare: int, size: int) -> tuple:
        """``steps`` of the seed in ``row`` alone, one Generator call at a
        time: its kinds, the first output of each step's uniforms, and its
        next output."""
        at, held = int(self._next[row]), None

        def integer(low: int, high: int) -> int:
            nonlocal at, held
            span = high - low
            while True:
                if held is None:
                    word = int(self._outputs(at + 1)[row, at])
                    at += 1
                    half, held = word & _M32, word >> 32
                else:
                    half, held = held, None
                scaled = half * span
                if scaled & _M32 >= (2 ** 32 - span) % span:
                    return low + (scaled >> 32)

        got, starts = np.full(count.stop - 1, -1), np.zeros(count.stop - 1, dtype=np.intp)
        for k in range(integer(count.start, count.stop)):
            got[k] = integer(0, kinds)
            starts[k] = at
            if got[k] != bare:
                at += size
        return got, starts, at


def seeded(seed, sizes, draw, build) -> tuple:
    """A seeded draw: ``draw(stream)`` makes the raw ``uniform`` and
    ``integers`` calls of ``default_rng(seed)`` for every seed at once on a
    SeedStream (its ``uniform`` and ``steps``) and returns them as arrays
    stacked along a leading axis, one member per seed; ``build`` does all the arithmetic once on the
    stack.

    ``seed`` is an integer or a 1-D array of them, and a single seed is a
    stack of one: the result is the tuple ``build`` returns, or member 0 of
    each of its arrays.  Member k of a stacked draw is, to the last bit,
    what ``numpy.random.default_rng(seed k)`` makes alone (the per-seed
    generator is the tests' oracle; the library never builds one).  A
    seed's 32-bit words, least significant first, are SeedSequence's
    entropy: a seed below 2**128 fills at most its pool of four words
    (the rest read as zero words), and each further word of a larger seed
    goes through SeedSequence's extra mixing round.  A negative seed
    raises ValueError, as default_rng does; a generator, None, a float or
    a bool raises TypeError.  ``sizes`` are the draw's matrix dimensions
    (n, and m where it has one); each must be >= 1.
    """
    if any(size < 1 for size in sizes):
        raise ValueError("n and m must be >= 1")
    stream = SeedStream(seed)
    built = build(*draw(stream))
    return built if stream.stacked else tuple(a[0] for a in built)


def _per_matrix(values: np.ndarray):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def mat_max_abs(m):
    """Max-norm of one matrix (a float) or of each matrix of a stack."""
    return _per_matrix(np.max(np.abs(np.asarray(m)), axis=(-2, -1)))


def block(rows) -> np.ndarray:
    """np.block for a grid of matrices that may carry leading stack axes.

    The blocks' stack shapes broadcast against each other; ``None`` is a
    zero block, sized by the other blocks of its block row and column.
    """
    blocks = [b for row in rows for b in row if b is not None]
    heights = [next(b.shape[-2] for b in row if b is not None) for row in rows]
    widths = [next(row[j].shape[-1] for row in rows if row[j] is not None)
              for j in range(len(rows[0]))]
    batch = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    out = np.zeros(batch + (sum(heights), sum(widths)), dtype=np.result_type(*blocks))
    top = 0
    for row, height in zip(rows, heights):
        left = 0
        for b, width in zip(row, widths):
            if b is not None:
                out[..., top: top + height, left: left + width] = b
            left += width
        top += height
    return out


def mat_mul(a, b) -> np.ndarray:
    """The product a @ b of two matrices, or of the matrices of stacks
    whose leading axes broadcast as they do for ``@``.

    The inner index is summed in a fixed order, term k added to the sum of
    terms 0..k-1, with elementwise products only: no BLAS call and no
    einsum, whose rounding may depend on the size or layout of the stack.
    So a matrix gets the same product, to the last bit, alone or in a
    stack of any size.  On a stack of small matrices this is also much
    faster than ``@``, which makes one BLAS call per matrix.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"mat_mul needs matrices with matching inner sizes, "
                         f"got {a.shape} and {b.shape}")
    out = a[..., :, :1] * b[..., :1, :]
    if a.shape[-1] > 1:
        term = np.empty_like(out)   # one temporary, reused for every k
        for k in range(1, a.shape[-1]):
            np.multiply(a[..., :, k: k + 1], b[..., k: k + 1, :], out=term)
            out += term
    return out


def mat_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix, or each matrix of a (K, n, n) stack, by
    Gauss-Jordan elimination with partial pivoting.

    The elimination runs on one (n, 2n, K) working array, [m | I], with
    the stack axis last, so each row operation is one pass over
    contiguous memory for the whole stack.  Step k updates only columns
    k + 1 onward, the only ones a later step reads, and swaps rows under
    a mask per candidate row.  One matrix is inverted as a stack of one,
    and every entry sees the same operations in the same order wherever
    its matrix sits, so a matrix gets the same inverse, to the last bit,
    alone or in a stack of any size.  The inverse is a new array in the
    memory order of ``m``: a C-contiguous stack gets a C-contiguous
    inverse, and a (K, n, n) view of stack-last memory a stack-last one.
    Pivots are chosen by |Re| + |Im|.  Raises SingularMatrix when the
    smallest pivot of a matrix falls below PIVOT_RTOL times that matrix's
    largest entry, and when an entry is not finite; callers treat that as
    "the point or group element is outside its domain".
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"mat_inverse needs a square matrix or a stack of them, "
                         f"got {m.shape}")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    aug = np.zeros((n, 2 * n, len(stack)), dtype=np.complex128)
    aug[:, :n] = stack.transpose(1, 2, 0)
    scale = np.max(np.abs(aug[:, :n]), axis=(0, 1))
    if np.any(scale == 0.0):
        raise SingularMatrix("zero matrix")
    if not np.all(np.isfinite(scale)):
        raise SingularMatrix("matrix entry is not finite")
    aug[np.arange(n), n + np.arange(n)] = 1.0
    pivots = np.empty((n, len(stack)))
    for k in range(n):
        last = k == n - 1   # no row below the pivot: no search, no swap
        if not last:
            col = aug[k:, k]
            r = k + np.argmax(np.abs(col.real) + np.abs(col.imag), axis=0)
            for i in range(k + 1, n):   # swap rows k and i where row i holds the pivot
                swap = r == i
                if swap.any():
                    top = aug[k, k:].copy()
                    np.copyto(aug[k, k:], aug[i, k:], where=swap)
                    np.copyto(aug[i, k:], top, where=swap)
        p = aug[k, k]
        pivots[k] = np.abs(p)
        # A zero pivot fails the guard below; dividing by 1 keeps the rest finite.
        aug[k, k + 1:] /= np.where(p == 0.0, 1.0, p)
        # The rows above and below the pivot.  Column k is not written, so
        # the multipliers stay as they were.
        if k:
            aug[:k, k + 1:] -= aug[:k, k, None] * aug[k, k + 1:]
        if not last:
            aug[k + 1:, k + 1:] -= aug[k + 1:, k, None] * aug[k, k + 1:]
    low = pivots.min(axis=0)
    # written so that a NaN pivot (an overflow in the elimination) fails too
    failed = ~(low >= PIVOT_RTOL * scale)
    worst = np.argmax(failed)
    if failed[worst]:
        raise SingularMatrix(f"pivot {low[worst]:.3e} below {PIVOT_RTOL:.0e} "
                             f"* {scale[worst]:.3e}")
    out = np.empty_like(m)
    out[...] = aug[:, n:].transpose(2, 0, 1).reshape(m.shape)
    return out


def hermitian_pd_margin(m: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of ``m``, per matrix of a stack.

    Positive values measure how far the matrix is inside the
    positive-definite cone; used by samplers to enforce a boundary margin.
    """
    m = np.asarray(m, dtype=np.complex128)
    h = 0.5 * (m + m.conj().mT)
    return _per_matrix(np.linalg.eigvalsh(h).min(axis=-1))


def sym_defect(m: np.ndarray):
    """Max-norm distance from symmetry, ||m - tm||_max.

    A float for one matrix; for a (K, n, n) stack, one defect per matrix.
    """
    m = np.asarray(m)
    return _per_matrix(np.max(np.abs(m - m.mT), axis=(-2, -1)))


def mat_to_json(m: np.ndarray) -> dict:
    """Wire form: {"rows": r, "cols": c, "data": [[re, im], ...]} row-major."""
    m = as_cmatrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def mat_from_json(obj: dict) -> np.ndarray:
    """Inverse of mat_to_json, with shape validation; a ValueError names
    the size key that is not an integer >= 1 (a bool or a float is not),
    or the first entry of ``data`` that is not a [re, im] pair of numbers."""
    rows, cols = obj["rows"], obj["cols"]
    for key, size in (("rows", rows), ("cols", cols)):
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
            raise ValueError(f"{key!r} is not an integer >= 1: {size!r}")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    flat = np.empty(len(data), dtype=np.complex128)
    for k, entry in enumerate(data):
        try:
            re, im = entry
            flat[k] = complex(re, im)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"data entry {k} is not a [re, im] pair of numbers") from None
    return as_cmatrix(flat.reshape(rows, cols))
