"""Build, cache, check, load and call the compiled library in _loops.c.

The library draws every random number coopsim uses: the seed sequences
engine.derive_seed reads, each generator (generator), a run's start
(start) and graph growth (grow, for network.generate). It holds the
generation loops too, which apply the payment and score rules of
coopsim.interference and coopsim.game and the Fermi copy probability with
the C library's exp; their oracles are in tests/conftest.py. run is the
one place that calls a loop through ctypes: dynamics.step_deterministic
and dynamics.step_stochastic forward to it.

A generator is a contiguous uint64[4] array, numpy's PCG64 state and
increment, each 128-bit number low word first; the calls that draw from
it step it in place. The draws are numpy's SeedSequence, PCG64 and
Generator draws, held to numpy.random by tests/test_engine.py. So the CSV
bytes follow _loops.c, not numpy's Generator, whose methods NEP 19 lets
change between numpy releases; no coopsim module imports numpy.random.

The first call in a process loads the library, once, however many of its
threads ask at the same time. If no build of the current source exists
yet, it first compiles one with gcc into this package's __pycache__
directory, under a name keyed by a CRC-32 of the compiler command and the
source; the command and source themselves are kept beside the build and
compared byte for byte before it is loaded, so a name that two sources
share does not load the other's build. A build goes to a temporary name and is then renamed
into place, so processes that build at once each load a whole file; the
builds of other sources are then removed. Flags that may change
floating-point results (-ffast-math, -march=native, contraction into
FMAs) stay off: the loops must give the oracles' numbers bit for bit.
Loading checks the library's seeded draws against numpy's, pinned in
_CHECK_DRAWS, so a build that draws other numbers stops the first call
with a RuntimeError.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import zlib
from pathlib import Path

import numpy as np

from . import network
from .game import PayoffParams
from .interference import NEB, NI, POP, InterferenceConfig

CC = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_loops.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

# The load check: a seed, a number of draws skipped, then the next two
# draws, as numpy 2.4 draws them,
# Generator(PCG64(seed).advance(skipped)).random(2). A skip of 255 draws is
# one jump of 256 steps, the first past the near maps.
_CHECK_DRAWS = ((0, 0, 0.6369616873214543, 0.2697867137638703),
                (1, 1, 0.9504636963259353, 0.14415961271963373),
                (2, 255, 0.4190758607675362, 0.26739823009819164),
                (3, 256, 0.18755529632959123, 0.1483028147700044),
                (20230116, 1000, 0.017004611244392565, 0.4282155105923242),
                (2**64 - 1, 2**40 + 7, 0.9147887014387753, 0.024688556400738526))


class Pay(ctypes.Structure):
    """struct pay in _loops.c: who is paid the endowment theta."""

    _fields_ = [("active", ctypes.c_int), ("pop", ctypes.c_int), ("neb", ctypes.c_int),
                ("theta", ctypes.c_double), ("p_c", ctypes.c_double),
                ("n_c", ctypes.c_double), ("ni_degree", ctypes.c_int64)]


_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_PAY = ctypes.POINTER(Pay)
_PROTOTYPES = {
    # entropy bytes, their word count, the output words and their count
    "coopsim_seed_sequence": ((_PTR, _I64, _PTR, _I64), None),
    "coopsim_pcg64_seed": ((_PTR, _I64, _PTR), None),
    "coopsim_start": ((_PTR, _I64, _PTR), None),
    # dms, n, the generator, the edges
    "coopsim_grow": ((_I64, _I64, _PTR, _PTR), None),
    # n, CSR, b, pay, [K,] horizon, is_coop, coop, invested, the generator
    "coopsim_imitate_best": ((_I64, _PTR, _PTR, _F64, _PAY, _I64, _PTR, _PTR, _PTR, _PTR),
                             _I64),
    "coopsim_fermi": ((_I64, _PTR, _PTR, _F64, _PAY, _F64, _I64, _PTR, _PTR, _PTR, _PTR),
                      _I64),
    "coopsim_pcg64_random": ((_PTR, _I64), _F64),
}


def _command() -> list[str]:
    """The compiler command, reading the source from stdin."""
    return [CC, *FLAGS, "-x", "c", "-", "-lm"]


def _key(source: bytes) -> bytes:
    """What a build is keyed by: the compiler command, then the source."""
    return "\0".join(_command()).encode() + b"\0" + source


def cache_name(source: bytes) -> str:
    """The library's file name for this source text and command."""
    return f"_loops-{zlib.crc32(_key(source)):08x}.so"


def _build(source: bytes, path: Path) -> None:
    # Imported here: loading a cached build, the common case, needs neither.
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        try:
            proc = subprocess.run([*_command(), "-o", tmp], input=source,
                                  capture_output=True)
        except OSError as exc:
            raise RuntimeError(f"cannot build the compiled loops: C compiler {CC!r} "
                               f"did not run: {exc}") from exc
        if proc.returncode != 0:
            raise RuntimeError(f"cannot build the compiled loops: C compiler {CC!r} "
                               f"exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        os.replace(tmp, path)
        # The key goes in last, the same way: a build loads once its key does.
        Path(tmp).write_bytes(_key(source))
        os.replace(tmp, path.with_suffix(".key"))
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # Builds of other sources are never loaded again. A process that has one
    # loaded keeps its mapping.
    for stale in path.parent.glob("_loops-*"):
        if stale.stem != path.stem and stale.suffix in (".so", ".key"):
            stale.unlink(missing_ok=True)


def _entropy(ints) -> tuple[bytes, int]:
    """ints as numpy's SeedSequence reads them: each int's 32-bit words,
    least significant first (one word for 0), one int after the other, as
    little-endian bytes; and the number of words."""
    data = b"".join(x.to_bytes(4 * max(1, -(-x.bit_length() // 32)), "little")
                    for x in ints)
    return data, len(data) // 4


def _generator(lib: ctypes.CDLL, seed: int) -> np.ndarray:
    rng = np.empty(4, dtype=np.uint64)
    lib.coopsim_pcg64_seed(*_entropy([seed]), rng.ctypes.data)
    return rng


def _check_draws(lib: ctypes.CDLL) -> None:
    """Raise RuntimeError unless the library's generator seeded with each
    seed of _CHECK_DRAWS draws the pinned numbers after the skip: the
    seeding, the jump over the skipped draws and the draw itself, and the
    generator left where the draws leave it."""
    for seed, skipped, *want in _CHECK_DRAWS:
        rng = _generator(lib, seed)
        got = [lib.coopsim_pcg64_random(rng.ctypes.data, skip) for skip in (skipped, 0)]
        if got != want:
            raise RuntimeError(f"the compiled library does not draw numpy's PCG64 numbers: "
                               f"seed {seed}, {skipped} draws skipped, drew {got}, numpy "
                               f"draws {want}")


_LOAD_LOCK = threading.Lock()


def library() -> ctypes.CDLL:
    """The compiled library, built first if need be and checked against
    numpy's pinned draws. Threads that ask at the same time wait for one
    load, and all get the same library."""
    with _LOAD_LOCK:
        return _load()


@functools.cache
def _load() -> ctypes.CDLL:
    source = SOURCE.read_bytes()
    path = CACHE_DIR / cache_name(source)
    key = path.with_suffix(".key")
    if not (path.exists() and key.exists() and key.read_bytes() == _key(source)):
        _build(source, path)
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _PROTOTYPES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    _check_draws(lib)
    return lib


def _check(name: str, *buffers) -> None:
    """Raise ValueError unless each (array, dtype, size) of buffers is a
    contiguous array of that dtype and shape (size,), which name may read
    through a pointer."""
    for arr, dtype, size in buffers:
        if not isinstance(arr, np.ndarray):
            raise ValueError(f"{name} needs contiguous {np.dtype(dtype)} arrays, got a "
                             f"{type(arr).__name__}")
        if arr.dtype != dtype or arr.shape != (size,) or not arr.flags.c_contiguous:
            raise ValueError(f"{name} needs contiguous {np.dtype(dtype)} arrays of shape "
                             f"({size},), got {arr.dtype} of shape {arr.shape}")


def seed_words(entropy: list[int], n: int) -> list[int]:
    """numpy's SeedSequence(entropy).generate_state(n, uint32), as ints:
    entropy is a list of ints >= 0."""
    out = (ctypes.c_uint32 * n)()
    library().coopsim_seed_sequence(*_entropy(entropy), out, n)
    return list(out)


def generator(seed: int) -> np.ndarray:
    """A new generator array: numpy's PCG64(seed), seed an int >= 0."""
    return _generator(library(), seed)


def start(rng: np.ndarray, n: int) -> np.ndarray:
    """n agents' start, each C or D with equal probability: the mask
    numpy's integers(0, 2, n, dtype=int8) draws, as bools, from generator
    rng, which it steps."""
    _check("coopsim_start", (rng, np.uint64, 4))
    is_coop = np.empty(n, dtype=bool)
    library().coopsim_start(rng.ctypes.data, n, is_coop.ctypes.data)
    return is_coop


def grow(model: str, n: int, rng: np.ndarray) -> np.ndarray:
    """The 2n - 3 edges, an int64 array of shape (2n - 3, 2), of a graph of
    model (network.BA or network.DMS) grown to n nodes from generator rng,
    which it steps. network.NetworkConfig bounds n to [3, 2**30)."""
    _check("coopsim_grow", (rng, np.uint64, 4))
    edges = np.empty((2 * n - 3, 2), dtype=np.int64)
    library().coopsim_grow(model == network.DMS, n, rng.ctypes.data, edges.ctypes.data)
    return edges


def ni_degree(g: network.Graph, c_I: float) -> int:
    """NI's threshold c_I as a degree: the least degree of g whose
    degree_percentiles value reaches c_I, or g.n when none does. A
    percentile never falls as the degree grows, so a node's percentile
    reaches c_I exactly when its degree reaches this one."""
    return int(g.degrees[network.degree_percentiles(g) >= c_I].min(initial=g.n))


def run(name: str, g: network.Graph, is_coop: np.ndarray, payoff: PayoffParams,
        icfg: InterferenceConfig, rng: np.ndarray, coop: np.ndarray,
        invested: np.ndarray, *rule) -> int | None:
    """Run the compiled loop name over every generation of one replicate on
    g, with the update rule's own arguments rule after the common ones, and
    return the generation it absorbed at, or None.

    is_coop, the bool cooperator mask, ends as the final population; coop
    (float64) and invested (int64), of the horizon's length, are filled as
    RunResult's arrays. The loop steps rng, a generator array (see
    generator), in place. An array of another dtype or shape, or not
    contiguous, is a ValueError before a pointer is passed. NI reaches the
    loop as one degree, ni_degree(g, c_I), so the loop borrows no array but
    g's CSR and these four. A loop that cannot allocate its work block is a
    MemoryError.
    """
    _check(name, (g.indptr, np.int64, g.n + 1), (g.indices, np.int64, int(g.indptr[-1])),
           (is_coop, bool, g.n), (coop, np.float64, coop.size),
           (invested, np.int64, coop.size), (rng, np.uint64, 4))
    pay = Pay(icfg.active, POP in icfg.schemes, NEB in icfg.schemes, icfg.theta or 0.0,
              icfg.p_c or 0.0, icfg.n_c or 0.0,
              ni_degree(g, icfg.c_I) if NI in icfg.schemes else 0)
    absorbed_at = getattr(library(), name)(
        g.n, g.indptr.ctypes.data, g.indices.ctypes.data, payoff.b, pay, *rule, coop.size,
        is_coop.ctypes.data, coop.ctypes.data, invested.ctypes.data, rng.ctypes.data)
    if absorbed_at == -2:
        raise MemoryError(f"{name}: no memory for its work block")
    return None if absorbed_at < 0 else absorbed_at
