"""Loosen each correctness gate in turn and check that the tests that own it fail.

Run from anywhere with ``python tests/gate_mutants.py``; pytest does not
collect this file.  Each mutant is one text edit of one file under src/,
made in a temporary copy of src/, never in the working tree, that loosens
one bound (most by a factor of 10^4 or more) or deletes one check.  The copy is
put first on PYTHONPATH and ``pytest -x -q`` runs the test files that own
the gate.  A mutant is killed when a test fails (pytest exit 1), and
survives when every test passes.  Any other outcome (a mutant that does
not import fails collection, exit 2), and an anchor that does not match
exactly once, is an error: a later edit of src cannot skip a mutant
silently.

The owning tests must pass on the unmutated tree, so run this after
tier-1.  Exits 0 when every mutant is killed, and 1 after listing the
survivors and errors.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/circspec, anchor, replacement, test files that own the gate)
MUTANTS = (
    ("residual check 1e-10 -> 1e-6", "linsolve.py",
     "RESID_TOL = 1e-10", "RESID_TOL = 1e-6", ("test_linsolve.py",)),
    ("eigenpair gate 1e-10 -> 1e-4", "spectrum.py",
     "if worst > 1e-10 * anorm:", "if worst > 1e-4 * anorm:", ("test_spectrum.py",)),
    ("Hermitian check 1e-12 -> 1e-6", "spectrum.py",
     "if asym > 1e-12 * scale:", "if asym > 1e-6 * scale:", ("test_spectrum.py",)),
    ("no condition cap", "linsolve.py",
     "if not math.isfinite(c) or c > cond_cap:", "if False:", ("test_linsolve.py",)),
    ("no refinement", "linsolve.py",
     "if any(refine):", "if False:", ("test_linsolve.py",)),
    ("no non-finite operator check", "linsolve.py",
     "if not math.isfinite(hn[i]):", "if False:", ("test_linsolve.py",)),
    ("no second CGS pass", "linsolve.py",
     "        w -= np.matvec(v.mT, again)\n        h += again\n", "", ("test_linsolve.py",)),
    ("rows capped at MAX_ITER, not their own size", "linsolve.py",
     "limits = [min(size, MAX_ITER) for size in sizes]", "limits = [MAX_ITER for size in sizes]",
     ("test_linsolve.py",)),
    ("LOW_BLOCK_MARGIN 0.5 -> 1e-8", "operators.py",
     "LOW_BLOCK_MARGIN = 0.5", "LOW_BLOCK_MARGIN = 1e-8", ("test_ode.py",)),
    ("first jump grid always accepted", "operators.py",
     "if n == cap or mm > 2.0 * np.pi * lipschitz / n:", "if True:", ("test_operators.py",)),
    ("N_ref <= max(N_list) -> <", "harness.py",
     "if self.N_ref <= max(self.N_list):", "if self.N_ref < max(self.N_list):", ("test_harness.py",)),
    ("no stack circulant budget", "harness.py",
     " and (len(last) + 1) * circulant_length(n) <= room", "", ("test_harness.py",)),
    ("no shift-collision check", "operators.py",
     "if np.any(bad):", "if False:", ("test_operators.py",)),
)


def run_mutant(path, anchor, replacement, owners) -> str:
    """'killed', 'survived', or an error message for one mutant."""
    original = (ROOT / "src" / "circspec" / path).read_text()
    if original.count(anchor) != 1:
        return f"error: anchor matches {original.count(anchor)} times in {path}"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (src / "circspec" / path).write_text(original.replace(anchor, replacement))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        tests = [str(ROOT / "tests" / f) for f in owners]
        rc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                            env=env, cwd=ROOT, capture_output=True).returncode
    # exit 2 and above: interrupted, or a collection error such as a mutant that does not import
    return {0: "survived", 1: "killed"}.get(rc, f"error: pytest exited {rc}")


def main() -> int:
    bad = []
    for name, path, anchor, replacement, owners in MUTANTS:
        outcome = run_mutant(path, anchor, replacement, owners)
        print(f"{outcome:9} {name} ({path}; {', '.join(owners)})", flush=True)
        if outcome != "killed":
            bad.append(f"{name}: {outcome}")
    if bad:
        print(f"{len(bad)} of {len(MUTANTS)} mutants not killed:", *bad, sep="\n  ")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
