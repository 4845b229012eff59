"""The stacked seed stream against numpy's own generator.

Every seeded draw of the library reads SeedStream, which computes what
``numpy.random.default_rng(seed)`` draws for a whole stack of seeds at
once.  The oracle here is the per-seed path: one default_rng per seed,
making the draw's ``integers`` and ``uniform`` calls in order, the arrays
stacked.  Both must agree to the last bit.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo import metrics as M
from sjgeo import operators as op
from sjgeo import verify as V
from sjgeo.cmatrix import SeedStream

# Seeds every stack of the oracle test holds: both ends of one 32-bit
# word, two words, three, five and seven (past SeedSequence's pool of
# four, so one stack mixes seeds with and without each extra word).
EDGE_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 128 + 12345, 2 ** 200 + 3]


def _sp_rng(n, rng):
    kinds = np.full(8, -1)
    u = np.zeros((8, n, n))
    for t in range(int(rng.integers(4, 9))):
        kinds[t] = rng.integers(0, 3)
        if kinds[t] != 2:
            u[t] = rng.uniform(-1.0, 1.0, size=(n, n))
    return kinds, u


def _heisenberg_rng(n, m, rng):
    return rng.uniform(-1.0, 1.0, size=(2, m, n)), rng.uniform(-1.0, 1.0, size=(m, m))


def _slots(n, m):
    return M.chart_of("upper", n, m).n_slots


# kind -> ((n, m, stream) -> the library's raw draw,
#          (n, m, generator) -> the same draw on one seed's generator)
DRAWS = {
    "sp": (lambda n, m, s: G._sp_draw(n, s), lambda n, m, rng: _sp_rng(n, rng)),
    "heisenberg": (lambda n, m, s: G._heisenberg_draw(n, m, s), _heisenberg_rng),
    "jacobi": (lambda n, m, s: G._sp_draw(n, s) + G._heisenberg_draw(n, m, s),
               lambda n, m, rng: _sp_rng(n, rng) + _heisenberg_rng(n, m, rng)),
    "point": (lambda n, m, s: geo._disk_draw(n, m, s),
              lambda n, m, rng: (rng.uniform(-1.0, 1.0, size=(2, n, n)),
                                 rng.uniform(-2.0, 2.0, size=(2, m, n)))),
    "tangent": (lambda n, m, s: M._tangent_draw(n, m, s),
                lambda n, m, rng: (rng.uniform(-1, 1, (2, n, n)), rng.uniform(-1, 1, (2, m, n)))),
    "hermitian": (lambda n, m, s: s.uniform((-1.0, 1.0, (2, _slots(n, m), _slots(n, m)))),
                  lambda n, m, rng: (rng.uniform(-1.0, 1.0, (2, _slots(n, m), _slots(n, m))),)),
    "suite": (lambda n, m, s: op._suite_draw(M.chart_of("upper", n, m).dim, n, m, s),
              lambda n, m, rng: (rng.uniform(-1.0, 1.0, M.chart_of("upper", n, m).dim),
                                 rng.uniform(-0.5, 0.5, M.chart_of("upper", n, m).dim),
                                 rng.uniform(-1.0, 1.0, (m, n)),
                                 rng.uniform(-1.0, 1.0, (n, n)))),
}


def _oracle(kind, n, m, seeds) -> tuple:
    draws = [DRAWS[kind][1](n, m, np.random.default_rng(int(s))) for s in seeds]
    return tuple(np.stack(arrays) for arrays in zip(*draws))


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _built(kind, n, m, seeds):
    """The library's public draw of ``kind``, as plain arrays."""
    if kind == "heisenberg":
        h = G.random_heisenberg(n, m, seeds)
        return h.lam, h.mu, h.kappa
    if kind in ("sp", "jacobi"):
        g = G.random_jacobi(n, m, seeds)
        return (g.sp.a, g.sp.b, g.sp.c, g.sp.d) if kind == "sp" else (g.sp.a, g.h.lam)
    if kind == "point":
        return geo.random_point("upper", n, m, seeds).omega, geo.random_point("disk", n, m, seeds).w
    if kind == "tangent":
        t = M.random_tangent("disk", n, m, seeds)
        return t.dmat, t.dvec
    if kind == "hermitian":
        return (V._hermitian(seeds, _slots(n, m)),)
    return ()   # the suite has no stacked public draw


def _built_from(kind, n, m, raw):
    """_built from the oracle's raw arrays, through the library's builders."""
    if kind == "sp":
        return G._sp_blocks(*raw)
    if kind == "heisenberg":
        return G._heisenberg_blocks(*raw)
    if kind == "jacobi":
        return G._sp_blocks(*raw[:2])[0], G._heisenberg_blocks(*raw[2:])[0]
    if kind == "point":
        disk = geo.DiskPoint(*geo._disk_blocks(*raw))
        return geo.cayley(disk).omega, disk.w
    if kind == "tangent":
        return M._tangent_blocks(*raw)
    if kind == "hermitian":
        a = raw[0][:, 0] + 1j * raw[0][:, 1]
        return (a + a.conj().mT,)
    return ()


seed_stacks = st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=7)
cells = st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])


@settings(max_examples=100, deadline=2000)
@given(seeds=seed_stacks, cell=cells, kind=st.sampled_from(list(DRAWS)))
def test_every_draw_is_default_rng_to_the_last_bit(seeds, cell, kind):
    n, m = cell
    # small seeds as an int64 stack, and with the edge seeds as Python
    # integers of one to seven words
    for stack in (np.array(seeds, dtype=np.int64), np.array(seeds + EDGE_SEEDS, dtype=object)):
        raw = _oracle(kind, n, m, stack)
        _same_bits(DRAWS[kind][0](n, m, SeedStream(stack)), raw)
        _same_bits(_built(kind, n, m, stack), _built_from(kind, n, m, raw))


@pytest.mark.parametrize("kind", list(DRAWS))
def test_a_single_seed_is_a_stack_of_one(kind):
    for seed in EDGE_SEEDS + [7]:
        got = DRAWS[kind][0](2, 1, SeedStream(seed))
        _same_bits(got, _oracle(kind, 2, 1, [seed]))


def test_field_suite_draws_its_coefficients_from_default_rng():
    rng = np.random.default_rng(2 ** 40 + 3)
    dim = M.chart_of("disk", 3, 2, False).dim
    coeff = rng.uniform(-1.0, 1.0, dim)
    suite = op.test_field_suite("disk", 3, 2, 2 ** 40 + 3, mat_only=True)
    p = geo.random_point("disk", 3, 2, np.arange(4))
    linear = suite[1](p)
    assert np.array_equal(linear, np.sum(M.chart_of("disk", 3, 2, False).point_to_vec(p) * coeff,
                                         axis=-1))


def test_raw_outputs_are_pcg64_outputs():
    seeds = [0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 96, 2 ** 200 + 5]
    for stack in (np.array(seeds, dtype=object), np.array(seeds[:6], dtype=np.uint64)):
        want = [np.random.default_rng(int(s)).bit_generator.random_raw(40) for s in stack]
        assert np.array_equal(SeedStream(stack)._outputs(40)[:, :40], want)


@pytest.mark.parametrize("seed", [-1, [3, -2], np.array([5, -1]), -(2 ** 70), [2 ** 70, -1]])
def test_a_negative_seed_is_refused(seed):
    with pytest.raises(ValueError, match="non-negative"):
        np.random.default_rng(seed if np.ndim(seed) == 0 else np.asarray(seed, dtype=object)[-1])
    with pytest.raises(ValueError, match="non-negative"):
        G.random_jacobi(2, 1, seed)


# ---------------------------------------------------------------------------
# Lemire's rejections, on constructed streams
#
# No practical seed draws a rejected 32-bit half (about one in 2**32), so
# these streams come from PCG64 states chosen to output zero halves: a zero
# half is the one rejected value of integers(4, 9) and integers(0, 3).

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD = 1 << 128
_M64 = (1 << 64) - 1


def _state_for(step: int, inc: int, output: int, fill: int) -> int:
    """A PCG64 state whose output ``step`` is ``output``: the state after
    step + 1 LCG steps has high half ``fill`` and the low half that XSL-RR
    (hi ^ lo rotated right by hi >> 58) turns into ``output``."""
    rot = fill >> 58
    lo = fill ^ ((output << rot | output >> (64 - rot)) & _M64 if rot else output)
    target = fill << 64 | lo
    power, total = 1, 0
    for _ in range(step + 1):
        total = (total * _MULT + 1) % _MOD
        power = power * _MULT % _MOD
    # target = power * state + total * inc
    return (target - total * inc) * pow(power, -1, _MOD) % _MOD


def _generator(state: int, inc: int) -> np.random.Generator:
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def _constructed(states) -> tuple:
    """Generators at the given (state, inc) pairs, and a SeedStream holding
    their first 200 raw outputs."""
    raw = np.array([_generator(*s).bit_generator.random_raw(200) for s in states])
    stream = SeedStream(np.arange(len(states)))
    stream._raw = raw
    return [_generator(*s) for s in states], stream


def test_constructed_states_output_what_they_are_built_for():
    inc = 0x9E3779B97F4A7C15F39CC0605CEDC835 | 1
    for step, output, fill in [(0, 0, 12345), (3, 0xABCDEF0100000000, 2 ** 63 + 7), (7, 5, 2 ** 62)]:
        raw = _generator(_state_for(step, inc, output, fill), inc).bit_generator.random_raw(step + 1)
        assert int(raw[step]) == output


# (output, fill): both halves zero, only the low half, only the high half
ZERO_HALVES = [(0, 99), (0xABCDEF0100000000, 2 ** 63 + 99), (0x00000000FEDCBA98, 2 ** 61 + 5)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("step", [0, 1, 2, 5, 10, 19])
@pytest.mark.parametrize("halves", range(len(ZERO_HALVES)))
@pytest.mark.parametrize("before", [0, 3])
def test_sp_draw_redraws_a_rejected_kind(n, step, halves, before):
    # an output with zero halves at ``step`` of one seed in a stack of
    # three, after ``before`` uniforms: wherever an integers call meets a
    # zero half, it is rejected
    inc = (0x5851F42D4C957F2D14057B7EF767814F << 1) % _MOD | 1
    states = [(_state_for(step, inc, *ZERO_HALVES[halves]), inc), (1234567, inc),
              (_state_for(0, inc + 2, 0, 5), inc + 2)]
    gens, stream = _constructed(states)
    stacked = stream.uniform((-1.0, 1.0, before)) + G._sp_draw(n, stream) + G._heisenberg_draw(n, 2, stream)
    want = [(g.uniform(-1.0, 1.0, before),) + _sp_rng(n, g) + _heisenberg_rng(n, 2, g) for g in gens]
    _same_bits(stacked, tuple(np.stack(a) for a in zip(*want)))


@pytest.mark.parametrize("count, kinds", [(range(0, 9), 3), (range(4, 5), 3), (range(4, 9), 1)])
def test_steps_refuses_a_draw_generator_would_not_make_alike(count, kinds):
    # integers(low, low + 1) draws nothing, and zero steps have no last one
    with pytest.raises(ValueError, match="steps needs"):
        SeedStream(7).steps(count, kinds, 2, (2, 2))


def test_a_stream_makes_one_steps_draw():
    stream = SeedStream(np.array([11, 12, 13]))
    G._sp_draw(2, stream)
    with pytest.raises(RuntimeError, match="one steps draw"):
        G._sp_draw(2, stream)


# ---------------------------------------------------------------------------
# Sample seeds and the process footprint


@pytest.mark.parametrize("master", [0, 7, 42, 2 ** 31 - 1, 2 ** 64 + 5])
def test_sample_seed_is_hashlib_blake2b(master):
    for parts in [(), (0,), (3, "p"), (17, "op-inv", 2), ("fields",), (5, "herm", 0, "t")]:
        text = ":".join([str(master)] + [str(p) for p in parts])
        want = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
        assert V.sample_seed(master, *parts) == want & 0x7FFFFFFF


FOOTPRINT = """
import sys
import sjgeo.cli
from sjgeo.metrics import MetricParams
from sjgeo.verify import run_check
# three samples reach the linear field, an informative LB sample, so the
# LB checks' pairing constant is computed
assert sjgeo.cli.main(["verify", "all", "--n", "1", "--m", "1", "--samples", "3"]) == 0
run_check("group-laws", 3, 2, MetricParams(1.0, 1.0), 4, 42)
print(sorted(m for m in ("numpy.random", "_hashlib", "numpy.ma") if m in sys.modules))
"""


def test_library_runs_without_numpy_random_or_openssl():
    # numpy.random and hashlib (OpenSSL's libcrypto) cost every process
    # about 6.5 MB of memory, and numpy.ma (which np.median imports) 1.3 MB;
    # the library needs none of them
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
