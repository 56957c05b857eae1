"""Build, cache, check and load the compiled loops in _loops.c.

The loops apply the payment and score rules of coopsim.interference and
coopsim.game; their numpy oracles are in tests/conftest.py. The first run
in a process loads the library. If no build of the current source exists
yet, it first compiles one with gcc into this package's __pycache__
directory, under a name keyed by the sha256 of the source and the
compiler command. A build goes to a temporary name and is then renamed
into place, so processes that build at once each load a whole file. Flags
that may change floating-point results (-ffast-math, -march=native,
contraction into FMAs) stay off: the loops must give the numpy oracles'
numbers bit for bit.

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
from pathlib import Path

import numpy as np

from .interference import NEB, NI, POP, InterferenceConfig

CC = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_loops.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

# Seeds and skips of the load check: the draw after skipping k draws.
_CHECK_DRAWS = ((0, 0), (1, 1), (20230116, 1000), (2**64 - 1, 2**40 + 7))


class Pay(ctypes.Structure):
    """struct pay in _loops.c: who is paid the endowment theta."""

    _fields_ = [("active", ctypes.c_int), ("pop", ctypes.c_int), ("neb", ctypes.c_int),
                ("theta", ctypes.c_double), ("p_c", ctypes.c_double),
                ("n_c", ctypes.c_double), ("c_I", ctypes.c_double),
                ("percentile", ctypes.c_void_p)]


def pay(icfg: InterferenceConfig, percentile: np.ndarray | None) -> Pay:
    """The Pay of icfg; percentile (the graph's degree_percentiles, float64
    and contiguous) is read only when NI is active."""
    ni = NI in icfg.schemes
    return Pay(icfg.active, POP in icfg.schemes, NEB in icfg.schemes, icfg.theta or 0.0,
               icfg.p_c or 0.0, icfg.n_c or 0.0, icfg.c_I or 0.0,
               percentile.ctypes.data if ni else None)


# The Fermi loop's callback for a copy draw in the guard band:
# (own score, picked neighbor's score) -> numpy's copy probability.
FERMI_PROBABILITY = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double)

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_PAY = ctypes.POINTER(Pay)
_PROTOTYPES = {
    # n, CSR, b, pay, [K, band, fermi_probability,] horizon, is_coop, coop,
    # invested, the generator's state address
    "coopsim_imitate_best": ((_I64, _PTR, _PTR, _F64, _PAY, _I64, _PTR, _PTR, _PTR, _PTR),
                             _I64),
    "coopsim_fermi": ((_I64, _PTR, _PTR, _F64, _PAY, _F64, _F64, FERMI_PROBABILITY,
                       _I64, _PTR, _PTR, _PTR, _PTR), _I64),
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


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled loops, built first if need be and checked against
    numpy's PCG64 draws."""
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
