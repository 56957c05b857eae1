"""Build, cache and load the compiled imitate-best loop in _imitate.c.

The first imitate-best run in a process loads the library. If no build of
the current source exists yet, it first compiles one with gcc into this
package's __pycache__ directory, under a name keyed by the sha256 of the
source and the compiler command. A build goes to a temporary name and is
then renamed into place, so processes that build at once each load a whole
file. Flags that may change floating-point results (-ffast-math,
-march=native, contraction into FMAs) stay off: the loop must give the
numpy oracle's numbers bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path

CC = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_imitate.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")

_ARGTYPES = (
    ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double,  # n, CSR, b
    ctypes.c_int, ctypes.c_double,                                      # active, theta
    ctypes.c_int, ctypes.c_double, ctypes.c_int, ctypes.c_double,       # POP, NEB
    ctypes.c_void_p, ctypes.c_double,                                   # NI
    ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # horizon, arrays
    # The generator: numpy's bit generator state and its next_double.
    ctypes.c_void_p, ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p),
)


def _command() -> list[str]:
    """The compiler command, reading the source from stdin."""
    return [CC, *FLAGS, "-x", "c", "-"]


def cache_name(source: bytes) -> str:
    """The library's file name for this source text and command."""
    key = hashlib.sha256(source + b"\0" + "\0".join(_command()).encode()).hexdigest()
    return f"_imitate-{key[:16]}.so"


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
            raise RuntimeError(f"cannot build the imitate-best loop: C compiler {CC!r} "
                               f"did not run: {exc}") from exc
        if proc.returncode != 0:
            raise RuntimeError(f"cannot build the imitate-best loop: C compiler {CC!r} "
                               f"exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
        os.chmod(tmp, 0o755)  # mkstemp made it private to this user
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def library():
    """The compiled coopsim_imitate_best, built first if need be."""
    source = SOURCE.read_bytes()
    path = CACHE_DIR / cache_name(source)
    if not path.exists():
        _build(source, path)
    fn = ctypes.CDLL(str(path)).coopsim_imitate_best
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64
    return fn
