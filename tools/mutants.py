"""Mutation check of the compiled library: do tests/test_engine.py and
tests/test_network.py catch each of a fixed set of faults planted in
src/coopsim/_loops.c?

For the unchanged tree and then for each mutant, the script copies the
tree into a temporary directory, replaces the mutant's target text (which
must occur exactly once) in the copy's _loops.c, builds the copy's
library without loading it (a mutant may fail the load check), and runs
the two test files there, stopping at the first failure. A mutant is
caught when a test fails, and missed when all pass. Prints one line per
run and the count caught, and exits 0 when every mutant is caught and 1
when one is missed. An unchanged tree whose tests fail, a copy that does
not build, or tests that cannot run stop it with a message.

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path("src", "coopsim", "_loops.c")
TESTS = ("tests/test_engine.py", "tests/test_network.py")

_SCALE_THETA = ("\n    struct pay scaled = *pay;"
                "\n    scaled.theta *= 1.5;"
                "\n    r.pay = &scaled;")

# (name, target text in _loops.c, its replacement)
MUTANTS = (
    ("NEB threshold strict", "<= pay->n_c", "< pay->n_c"),
    ("POP threshold strict", "<= r->pay->p_c", "< r->pay->p_c"),
    ("NI threshold strict", ">= r->pay->ni_degree", "> r->pay->ni_degree"),
    ("paid drops the cooperator conjunct", "pay->active & pop_ok & r->is_coop[i]",
     "pay->active & pop_ok"),
    ("theta x1.5 in the imitate-best loop", ".nc = (double *)(key + n)};",
     ".nc = (double *)(key + n)};" + _SCALE_THETA),
    ("theta x1.5 in the Fermi loop", "memset(r.front, 0, words * sizeof *r.front);",
     "memset(r.front, 0, words * sizeof *r.front);" + _SCALE_THETA),
    ("NEB pays no cooperator off the Fermi front", "pay->neb && pay->n_c < 1.0 ?",
     "pay->neb ?"),
    ("a switch leaves coop_ni", "r->coop_ni += d * ni_pays(r, i);", "r->coop_ni += 0;"),
    ("Fermi front misses agents one neighbor short of full agreement",
     "uint64_t on = r->nc[x] != (r->is_coop[x] ? (double)degree(r, x) : 0.0);",
     "uint64_t on = fabs(r->nc[x] - (r->is_coop[x] ? (double)degree(r, x) : 0.0)) > 1.0;"),
    ("start reads bit 0 of each byte", "bytes >> (8 * (i % 4) + 7) & 1",
     "bytes >> (8 * (i % 4)) & 1"),
    # + 4, not - 4: at node 2 the bound 2 - 4 would read far outside edges.
    ("BA redraw with the bound off by 4", "second = edges[bounded(&h, (uint32_t)e)];",
     "second = edges[bounded(&h, (uint32_t)(e + 4))];"),
    ("SeedSequence hash multiplier changed", "*hash *= 0x931e8875u;",
     "*hash *= 0x931e8877u;"),
    # Both CSR faults stay in bounds: one that writes past an array can
    # crash pytest, which stops the script instead of counting it caught.
    ("CSR fill writes each end's own node", "indices[indptr[edges[e]]++] = edges[e ^ 1];",
     "indices[indptr[edges[e]]++] = edges[e];"),
    ("CSR starts left unshifted", "memmove(indptr + 1, indptr, n * sizeof *indptr);\n"
     "    indptr[0] = 0;", ""),
)


def mutate(source: str, target: str, replacement: str) -> str:
    if source.count(target) != 1:
        raise ValueError(f"{target!r} occurs {source.count(target)} times in {SOURCE}, "
                         f"not once")
    return source.replace(target, replacement)


def built_copy(tree: Path, path: Path, text: str, failure: str) -> dict[str, str]:
    """Copy src/, tests/, tools/ and pyproject.toml into the directory
    tree, write text to the copy's file at path, and build the copy's
    library without loading it. Returns the environment that imports the
    copy; a build that fails stops the script with failure and the
    compiler's error."""
    for part in ("src", "tests", "tools"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    (tree / path).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    build = subprocess.run(
        [sys.executable, "-c", "from coopsim import _loops; "
         "source = _loops.SOURCE.read_bytes(); "
         "_loops._build(source, _loops.CACHE_DIR / _loops.cache_name(source))"],
        cwd=tree, env=env, capture_output=True, text=True)
    if build.returncode != 0:
        sys.exit(f"{failure}:\n{build.stderr}")
    return env


def check(name: str, source: str) -> bool:
    """Whether the TESTS pass on a copy of the tree with source as its
    _loops.c. A copy that does not build stops the script."""
    with tempfile.TemporaryDirectory(prefix="coopsim-mutant-") as tmp:
        tree = Path(tmp)
        env = built_copy(tree, SOURCE, source, f"{name}: the build failed")
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
            cwd=tree, env=env, capture_output=True, text=True)
        if tests.returncode not in (0, 1):  # 1: a test failed; else pytest could not run
            sys.exit(f"{name}: pytest exited {tests.returncode}:\n{tests.stdout}")
        return tests.returncode == 0


def main() -> int:
    source = (ROOT / SOURCE).read_text()
    mutants = [(name, mutate(source, target, new)) for name, target, new in MUTANTS]
    if not check("unchanged", source):
        sys.exit("unchanged: FAILED, so no mutant can be judged")
    print("unchanged: passed", flush=True)
    caught = 0
    for name, mutant in mutants:
        missed = check(name, mutant)
        caught += not missed
        print(f"{name}: {'MISSED' if missed else 'caught'}", flush=True)
    print(f"{caught} of {len(mutants)} mutants caught")
    return 0 if caught == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
