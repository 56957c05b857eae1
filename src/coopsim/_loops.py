"""Build, cache, check, load and call the compiled library in _loops.c.

The library draws every random number coopsim uses: the seed sequences
engine.derive_seed reads, each generator (generator), a run's start
(start) and graph growth (grow, for network.generate). It builds each
graph's CSR (csr, for network.Graph.from_edges), and it holds the
generation loops too, which apply the payment and score rules of
coopsim.interference and coopsim.game and the Fermi copy probability with
the C library's exp; their oracles are in tests/conftest.py. run is the
one place that calls a loop through ctypes: dynamics.step_deterministic
and dynamics.step_stochastic forward to it.

A generator is a uint64[4] buffer, numpy's PCG64 state and increment,
each 128-bit number low word first; the calls that draw from it step it
in place. The draws are numpy's SeedSequence, PCG64 and Generator draws,
held to numpy.random by tests/test_engine.py. So the CSV bytes follow
_loops.c, not numpy's Generator, whose methods NEP 19 lets change between
numpy releases.

The library reads and writes buffers through pointers. _check hands it
any contiguous buffer of the right kind and length, so the tests can pass
numpy arrays; this module makes array.array and ctypes buffers itself,
and no coopsim process imports numpy. Each array.array is made by
repetition, array.array(code, [0]) * length, which allocates exactly
its length: one made from bytes keeps spare room past its end, where
tools/sanitize.py would not see a write.

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

import array
import ctypes
import functools
import os
import threading
import zlib
from pathlib import Path

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
    # n, the edge count, the ends, indptr, indices
    "coopsim_csr": ((_I64, _I64, _PTR, _PTR, _PTR), None),
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


def _generator(lib: ctypes.CDLL, seed: int) -> array.array:
    rng = array.array("Q", [0]) * 4
    lib.coopsim_pcg64_seed(*_entropy([seed]), rng.buffer_info()[0])
    return rng


def _check_draws(lib: ctypes.CDLL) -> None:
    """Raise RuntimeError unless the library's generator seeded with each
    seed of _CHECK_DRAWS draws the pinned numbers after the skip: the
    seeding, the jump over the skipped draws and the draw itself, and the
    generator left where the draws leave it."""
    for seed, skipped, *want in _CHECK_DRAWS:
        rng = _generator(lib, seed)
        got = [lib.coopsim_pcg64_random(rng.buffer_info()[0], skip) for skip in (skipped, 0)]
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


# The kinds of buffer the library reads: a name, the struct format codes
# that hold it, and the item size.
_BOOL, _INT64, _UINT64, _FLOAT64 = (("bool", "?", 1), ("int64", "ql", 8),
                                    ("uint64", "QL", 8), ("float64", "d", 8))


def _check(name: str, *buffers) -> list:
    """The pointers that name reads: each (buffer, kind, length) of buffers
    as a ctypes array over the buffer's memory. Raise ValueError unless
    each buffer is a 1-D contiguous buffer of length items of kind. A
    read-only buffer, such as a Graph's CSR, which the library only reads,
    is read through the whole object it views."""
    pointers = []
    for buf, (kind, codes, itemsize), length in buffers:
        try:
            view = memoryview(buf)
        except TypeError:
            raise ValueError(f"{name} needs contiguous {kind} arrays, got a "
                             f"{type(buf).__name__}") from None
        if (view.format.lstrip("@=<") not in codes or view.itemsize != itemsize
                or view.ndim != 1 or not view.c_contiguous or len(view) != length):
            raise ValueError(f"{name} needs contiguous {kind} arrays of shape ({length},), "
                             f"got format {view.format!r} of shape {view.shape}")
        pointers.append((ctypes.c_char * view.nbytes).from_buffer(
            view.obj if view.readonly else view))
    return pointers


def seed_words(entropy: list[int], n: int) -> list[int]:
    """numpy's SeedSequence(entropy).generate_state(n, uint32), as ints:
    entropy is a list of ints >= 0."""
    out = (ctypes.c_uint32 * n)()
    library().coopsim_seed_sequence(*_entropy(entropy), out, n)
    return list(out)


def generator(seed: int) -> array.array:
    """A new generator, a uint64 array.array: numpy's PCG64(seed), seed an
    int >= 0."""
    return _generator(library(), seed)


def start(rng, n: int) -> ctypes.Array:
    """n agents' start, each C or D with equal probability: the mask
    numpy's integers(0, 2, n, dtype=int8) draws, as a ctypes bool array,
    from generator rng, which it steps."""
    (generator,) = _check("coopsim_start", (rng, _UINT64, 4))
    is_coop = (ctypes.c_bool * n)()
    library().coopsim_start(generator, n, is_coop)
    return is_coop


def grow(model: str, n: int, rng) -> array.array:
    """The 2n - 3 edges of a graph of model (network.BA or network.DMS)
    grown to n nodes from generator rng, which it steps: their ends, pair
    by pair, in an int64 array.array. network.NetworkConfig bounds n to
    [3, 2**30)."""
    (generator,) = _check("coopsim_grow", (rng, _UINT64, 4))
    edges = array.array("q", [0]) * (2 * (2 * n - 3))
    library().coopsim_grow(model == network.DMS, n, generator, edges.buffer_info()[0])
    return edges


def csr(n: int, edges) -> list[memoryview]:
    """The indptr and indices, read-only int64 memoryviews, of the graph of
    n nodes whose edges have the ends edges, an int64 buffer, pair by pair,
    each end a node: coopsim_csr in _loops.c. Each row lists its node's
    neighbors in the order their edges appear in edges."""
    (ends,) = _check("coopsim_csr", (edges, _INT64, len(edges)))
    arrays = [array.array("q", [0]) * k for k in (n + 1, len(edges))]
    library().coopsim_csr(n, len(edges) // 2, ends, *(a.buffer_info()[0] for a in arrays))
    return [memoryview(a).toreadonly() for a in arrays]


def ni_degree(g: network.Graph, c_I: float) -> int:
    """NI's threshold c_I as a degree: the least degree of g whose
    percentile, the fraction of the other nodes of lower degree, reaches
    c_I, or g.n when none does. A percentile never falls as the degree
    grows, so a node's percentile reaches c_I exactly when its degree
    reaches this one. It reads g.percentile_by_degree, worked out once per
    graph, not its nodes."""
    return next((degree for degree, percentile in g.percentile_by_degree
                 if percentile >= c_I), g.n)


def run(name: str, g: network.Graph, is_coop, payoff: PayoffParams,
        icfg: InterferenceConfig, rng, coop, invested, *rule) -> int | None:
    """Run the compiled loop name over every generation of one replicate on
    g, with the update rule's own arguments rule after the common ones, and
    return the generation it absorbed at, or None.

    is_coop, the bool cooperator mask, ends as the final population; coop
    (float64) and invested (int64), of the horizon's length, are filled as
    RunResult's arrays. The loop steps rng, a generator (see generator),
    in place. Each is a buffer: one of another kind or length, or not
    contiguous, is a ValueError before a pointer is passed (see _check).
    NI reaches the loop as one degree, ni_degree(g, c_I), so the loop
    borrows no array but g's CSR and these four. A loop that cannot
    allocate its work block is a MemoryError.
    """
    horizon = len(coop)
    indptr, indices, is_coop, coop, invested, rng = _check(
        name, (g.indptr, _INT64, g.n + 1), (g.indices, _INT64, g.indptr[-1]),
        (is_coop, _BOOL, g.n), (coop, _FLOAT64, horizon), (invested, _INT64, horizon),
        (rng, _UINT64, 4))
    pay = Pay(icfg.active, POP in icfg.schemes, NEB in icfg.schemes, icfg.theta or 0.0,
              icfg.p_c or 0.0, icfg.n_c or 0.0,
              ni_degree(g, icfg.c_I) if NI in icfg.schemes else 0)
    absorbed_at = getattr(library(), name)(g.n, indptr, indices, payoff.b, pay, *rule,
                                           horizon, is_coop, coop, invested, rng)
    if absorbed_at == -2:
        raise MemoryError(f"{name}: no memory for its work block")
    return None if absorbed_at < 0 else absorbed_at
