"""Compare the CSVs of the acceptance configs between the working tree and a git ref.

Run from anywhere with ``python tests/csv_identity.py [REF]`` (REF defaults to
HEAD); pytest does not collect this file.  It extracts REF's src/ with
``git archive`` into a temporary directory, runs the configs of CONFIGS on
that tree and on the working tree's src/ through ``python -m circspec.cli``
at OPENBLAS_NUM_THREADS=1, the thread count at which a CSV is reproducible
byte for byte, and prints for each CSV "identical", or the largest row move
and the change of the fitted slope.  Solver CSVs are compared on their
error, spectrum CSVs on lambda, d and r.

A row's move is |new - old| / max(|old|, ERROR_FLOOR).  The bound MAX_MOVE
= 1e-8 was fixed before the tool first ran: it lies above every move that a
kept change of this tree has made (the largest, 1.5e-9, moved ode3 rows), and
far below what a change of method moves.  Exits 1 when a run fails, when the
two CSVs differ in their rows' N or count, or when a row moves more than
MAX_MOVE; 0 otherwise.

It reads the repository's history: CI checks out two commits and runs it
against HEAD~1, the parent commit.  Both trees together take about 10 s on
a 2-core host.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from circspec.harness import ERROR_FLOOR  # noqa: E402

MAX_MOVE = 1e-8


def _configs() -> dict[str, dict]:
    """The 27 acceptance configs, by name: the four shipped ones, then sweeps of ode3 and
    rhp in both modes that cross circulant lengths, the ODE low block and tiny windows, a
    strong jump to N_ref 20000, and a spectrum2 sweep that is one stack."""
    shipped = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}
    out = dict(shipped)
    for mode in ("finite_section", "collocation"):
        for experiment in ("ode3", "rhp"):
            for name, n_list, n_ref in (("sweep", list(range(32, 513, 32)), 641),
                                        ("stacks", [9, 16, 17, 24, 28, 32, 40, 48, 56, 64], 129),
                                        ("small", [8, 12, 16], 33),
                                        ("shipped", shipped[experiment]["N_list"], shipped[experiment]["N_ref"])):
                out[f"{experiment}_{name}_{mode}"] = dict(experiment=experiment, N_list=n_list, N_ref=n_ref, mode=mode)
        out[f"rhp_eps0.9_{mode}"] = dict(experiment="rhp", epsilon=0.9, N_list=[40, 80, 160], N_ref=20000, mode=mode)
        out[f"rhp_eps1.6_{mode}"] = dict(experiment="rhp", epsilon=1.6, N_list=list(range(40, 401, 40)), N_ref=2000,
                                         mode=mode)
        out[f"ode3_g20_{mode}"] = dict(experiment="ode3", g_scale=20.0, N_list=list(range(40, 401, 40)), N_ref=2001,
                                       mode=mode)
    out["spectrum2_stack"] = dict(experiment="spectrum2", N_list=[33, 41, 49, 57], N_ref=129)
    return out


CONFIGS = _configs()


def run_tree(src: Path, work: Path) -> dict[str, bytes | str]:
    """Each config's CSV bytes on the tree at src, or the error text of a run that failed."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = {}
    for name, cfg in CONFIGS.items():
        config, csv = work / f"{name}.json", work / f"{name}.csv"
        config.write_text(json.dumps(cfg))
        run = subprocess.run([sys.executable, "-m", "circspec.cli", "--config", str(config), "--output", str(csv)],
                             env=env, cwd=work, capture_output=True, text=True)
        out[name] = csv.read_bytes() if run.returncode == 0 else f"exit {run.returncode}: {run.stderr.strip()}"
    return out


def _parse(data: bytes) -> tuple[list[tuple[int, list[float]]], str]:
    """The data rows as (N, values), and the slope text."""
    rows, slope = [], ""
    for line in data.decode().splitlines()[1:]:
        if line.startswith("# slope="):
            slope = line[len("# slope="):]
        elif not line.startswith("#"):
            n, *values = line.split(",")
            rows.append((int(n), [float(v) for v in values]))
    return rows, slope


def _move(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    move = abs(new - old) / max(abs(old), ERROR_FLOOR)
    return move if math.isfinite(move) else math.inf


def compare(old: bytes | str, new: bytes | str) -> tuple[str, bool]:
    """A one-line verdict for one CSV, and whether it passes."""
    failed = [f"{side} {text}" for side, text in (("ref", old), ("tree", new)) if isinstance(text, str)]
    if failed:
        return "run failed: " + "; ".join(failed), False
    if old == new:
        return "identical", True
    (rows_old, slope_old), (rows_new, slope_new) = _parse(old), _parse(new)
    if [n for n, _ in rows_old] != [n for n, _ in rows_new]:
        return f"rows differ: N {[n for n, _ in rows_old]} -> {[n for n, _ in rows_new]}", False
    worst, at = max(((_move(a, b), n) for (n, va), (_, vb) in zip(rows_old, rows_new) for a, b in zip(va, vb)),
                    default=(0.0, None))
    return f"largest move {worst:.2e} (N={at}), slope {slope_old} -> {slope_new}", worst <= MAX_MOVE


def main(argv: list[str]) -> int:
    ref = argv[0] if argv else "HEAD"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"], capture_output=True)
    if archive.returncode != 0:
        print(f"cannot archive {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "ref", **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        old = run_tree(tmp / "ref" / "src", tmp / "ref_runs")
        new = run_tree(ROOT / "src", tmp / "tree_runs")
    verdicts = {name: compare(old[name], new[name]) for name in CONFIGS}
    for name, (verdict, _) in verdicts.items():
        print(f"{name:32} {verdict}")
    same = sum(verdict == "identical" for verdict, _ in verdicts.values())
    bad = sum(not ok for _, ok in verdicts.values())
    print(f"{same} of {len(CONFIGS)} CSVs identical to {ref}; {bad} failed or moved more than {MAX_MOVE:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
