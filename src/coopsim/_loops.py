"""Build, cache, check, load and call the compiled loops in _loops.c.

The loops apply the payment and score rules of coopsim.interference and
coopsim.game, and the Fermi copy probability with the C library's exp;
their oracles are in tests/conftest.py. run is the one place that calls a
loop through ctypes: dynamics.step_deterministic and
dynamics.step_stochastic forward to it. The first run in a process loads
the library, once, however many of its threads ask at the same time. If
no build of the current source exists yet, it first compiles one with gcc
into this package's __pycache__ directory, under a name keyed by the
sha256 of the source and the compiler command. A build goes to a
temporary name and is then renamed into place, so processes that build at
once each load a whole file; the builds of other sources are then
removed. Flags that may change floating-point results (-ffast-math,
-march=native, contraction into FMAs) stay off: the loops must give the
oracles' numbers bit for bit.

The loops step numpy's PCG64 state in place. Loading checks that their
draws equal numpy's own for a few seeds, so a numpy whose PCG64 layout
differs stops the first run with a RuntimeError instead of drawing other
numbers.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import threading
from pathlib import Path

import numpy as np

from . import network
from .game import PayoffParams
from .interference import NEB, NI, POP, InterferenceConfig

CC = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_loops.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

# Seeds and skips of the load check: the draw after skipping k draws. A skip
# of 255 draws is one jump of 256 steps, the first past the near maps.
_CHECK_DRAWS = ((0, 0), (1, 1), (2, 255), (3, 256), (20230116, 1000),
                (2**64 - 1, 2**40 + 7))


class Pay(ctypes.Structure):
    """struct pay in _loops.c: who is paid the endowment theta."""

    _fields_ = [("active", ctypes.c_int), ("pop", ctypes.c_int), ("neb", ctypes.c_int),
                ("theta", ctypes.c_double), ("p_c", ctypes.c_double),
                ("n_c", ctypes.c_double), ("ni_degree", ctypes.c_int64)]


_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_PAY = ctypes.POINTER(Pay)
_PROTOTYPES = {
    # n, CSR, b, pay, [K,] horizon, is_coop, coop, invested, the generator's
    # state address
    "coopsim_imitate_best": ((_I64, _PTR, _PTR, _F64, _PAY, _I64, _PTR, _PTR, _PTR, _PTR),
                             _I64),
    "coopsim_fermi": ((_I64, _PTR, _PTR, _F64, _PAY, _F64, _I64, _PTR, _PTR, _PTR, _PTR),
                      _I64),
    "coopsim_pcg64_random": ((_PTR, _I64), _F64),
}


def _command() -> list[str]:
    """The compiler command, reading the source from stdin."""
    return [CC, *FLAGS, "-x", "c", "-", "-lm"]


def cache_name(source: bytes) -> str:
    """The library's file name for this source text and command."""
    key = hashlib.sha256(source + b"\0" + "\0".join(_command()).encode()).hexdigest()
    return f"_loops-{key[:16]}.so"


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
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # Builds of other sources are never loaded again. A process that has one
    # loaded keeps its mapping.
    for stale in path.parent.glob("_loops-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)


def _check_draws(random) -> None:
    """Raise RuntimeError unless the library's inline PCG64 draws are
    numpy's: the same value after the same skip, and the generator left
    where numpy's draws leave it."""
    for seed, skipped in _CHECK_DRAWS:
        bitgen = np.random.PCG64(seed)
        got = [random(bitgen.ctypes.state_address, skipped),
               np.random.Generator(bitgen).random()]
        want = np.random.Generator(np.random.PCG64(seed).advance(skipped)).random(2).tolist()
        if got != want:
            raise RuntimeError(f"the compiled loops cannot read numpy {np.__version__}'s "
                               f"PCG64 state: seed {seed}, {skipped} draws skipped, drew "
                               f"{got}, numpy draws {want}")


_LOAD_LOCK = threading.Lock()


def library() -> ctypes.CDLL:
    """The compiled loops, built first if need be and checked against
    numpy's PCG64 draws. Threads that ask at the same time wait for one
    load, and all get the same library."""
    with _LOAD_LOCK:
        return _load()


@functools.cache
def _load() -> ctypes.CDLL:
    source = SOURCE.read_bytes()
    path = CACHE_DIR / cache_name(source)
    if not path.exists():
        _build(source, path)
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _PROTOTYPES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    _check_draws(lib.coopsim_pcg64_random)
    return lib


def ni_degree(g: network.Graph, c_I: float) -> int:
    """NI's threshold c_I as a degree: the least degree of g whose
    degree_percentiles value reaches c_I, or g.n when none does. A
    percentile never falls as the degree grows, so a node's percentile
    reaches c_I exactly when its degree reaches this one."""
    return int(g.degrees[network.degree_percentiles(g) >= c_I].min(initial=g.n))


def run(name: str, g: network.Graph, is_coop: np.ndarray, payoff: PayoffParams,
        icfg: InterferenceConfig, rng: np.random.Generator, coop: np.ndarray,
        invested: np.ndarray, *rule) -> int | None:
    """Run the compiled loop name over every generation of one replicate on
    g, with the update rule's own arguments rule after the common ones, and
    return the generation it absorbed at, or None.

    is_coop, the bool cooperator mask, ends as the final population; coop
    (float64) and invested (int64), of the horizon's length, are filled as
    RunResult's arrays. The loop steps rng's PCG64 state in place, under
    its lock; any other bit generator, and any array of another dtype or
    shape or not contiguous, is a ValueError before a pointer is passed.
    NI reaches the loop as one degree, ni_degree(g, c_I), so the loop
    borrows no array but g's CSR and these three. A loop that cannot
    allocate its work block is a MemoryError.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ValueError(f"the compiled loops draw from numpy's PCG64 alone, got a "
                         f"{type(bitgen).__name__} generator")
    for arr, dtype, size in ((g.indptr, np.int64, g.n + 1),
                             (g.indices, np.int64, int(g.indptr[-1])), (is_coop, bool, g.n),
                             (coop, np.float64, coop.size), (invested, np.int64, coop.size)):
        if arr.dtype != dtype or arr.shape != (size,) or not arr.flags.c_contiguous:
            raise ValueError(f"{name} needs contiguous {np.dtype(dtype)} arrays of shape "
                             f"({size},), got {arr.dtype} of shape {arr.shape}")
    pay = Pay(icfg.active, POP in icfg.schemes, NEB in icfg.schemes, icfg.theta or 0.0,
              icfg.p_c or 0.0, icfg.n_c or 0.0,
              ni_degree(g, icfg.c_I) if NI in icfg.schemes else 0)
    loop = getattr(library(), name)
    with bitgen.lock:
        absorbed_at = loop(g.n, g.indptr.ctypes.data, g.indices.ctypes.data, payoff.b, pay,
                           *rule, coop.size, is_coop.ctypes.data, coop.ctypes.data,
                           invested.ctypes.data, bitgen.ctypes.state_address)
    if absorbed_at == -2:
        raise MemoryError(f"{name}: no memory for its work block")
    return None if absorbed_at < 0 else absorbed_at
