"""Sanitizer check of the compiled library: do the tests that call
src/coopsim/_loops.c run clean under AddressSanitizer and UBSan?

The script copies the tree into a temporary directory, as
tools/mutants.py does, and adds the sanitizer flags below to the copy's
compiler flags (_loops.FLAGS). The build key holds the compiler command,
so this build never meets the normal one. It builds the copy's library,
then runs the test files that reach the library there, with gcc's
libasan preloaded (Python itself is not instrumented),
ASAN_OPTIONS=detect_leaks=0:allocator_may_return_null=1 and
PYTHONMALLOC=malloc. Leaks are Python's; a test asks malloc for a block
no address space holds, to see the loops give up (ASan warns that it
failed to allocate: that is not a report); and PYTHONMALLOC=malloc puts
small buffers, which Python's own allocator would pool, in blocks ASan
watches. A sanitizer report stops the process that made it, and so
fails a test or the run. Prints "clean" with the pytest summary, or the
report and the failures, and exits 0 when clean and 1 otherwise. A copy
that does not build, or a libasan that gcc cannot name, stops it with a
message.

    python3 tools/sanitize.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import ROOT, built_copy

LOOPS = Path("src", "coopsim", "_loops.py")
TESTS = ("tests/test_engine.py", "tests/test_network.py", "tests/test_golden.py",
         "tests/test_dynamics.py", "tests/test_cli.py")
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer")
ASAN_OPTIONS = "detect_leaks=0:allocator_may_return_null=1"
# The marks of a sanitizer report's lines, in any process's output: ASan's
# error and summary, and UBSan's runtime error.
REPORT_MARKS = ("ERROR: AddressSanitizer", "SUMMARY: ", "runtime error:")


def main() -> int:
    libasan = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(libasan):
        sys.exit(f"gcc names no libasan.so (got {libasan!r})")
    with tempfile.TemporaryDirectory(prefix="coopsim-sanitize-") as tmp:
        tree = Path(tmp)
        env = built_copy(tree, LOOPS, (ROOT / LOOPS).read_text() + f"\nFLAGS += {SANITIZE!r}\n",
                         "the sanitized build failed")
        # --capture=sys: a report written to the file descriptor reaches
        # this script even when it stops the test process.
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--capture=sys", *TESTS], cwd=tree, capture_output=True, text=True,
            env={**env, "LD_PRELOAD": libasan, "ASAN_OPTIONS": ASAN_OPTIONS,
                 "PYTHONMALLOC": "malloc"})
    output = tests.stdout + tests.stderr
    reports = [line for line in output.splitlines()
               if any(mark in line for mark in REPORT_MARKS)]
    summary = tests.stdout.strip().splitlines()[-1:] or ["no pytest summary"]
    if tests.returncode == 0 and not reports:
        print(f"clean: {summary[0]}")
        return 0
    print(f"NOT CLEAN: pytest exited {tests.returncode}: {summary[0]}")
    print(output if reports else tests.stdout)
    return 1


if __name__ == "__main__":
    sys.exit(main())
