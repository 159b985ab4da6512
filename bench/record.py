"""Record the expected outputs that the benchmark's correctness checks compare against.

    python3 bench/record.py

Runs one pass of every workload, full and smoke, and copies its report CSVs
and jump residuals into bench/expected/.  The recorded values belong to the
benchmark's definition: re-record only when the benchmark itself changes,
never to make a program change pass.
"""

from __future__ import annotations

import json
import os
import shutil

import workloads

os.environ.update(workloads.BLAS_PINNED)  # before anything imports numpy

import run  # noqa: E402


def main() -> None:
    circspec = workloads.import_circspec()
    for smoke in (False, True):
        for name in workloads.WORKLOADS:
            wl = workloads.get(name, smoke)
            runs = workloads.write_configs(wl, workloads.work_dir(smoke))
            built = workloads.set_up(runs)
            jump = built[wl.post.study][1] if wl.post else None
            points = workloads.eval_points(0, wl.post) if wl.post else []
            codes, results = run.run_pass(circspec, runs, wl.post, jump, points)
            if any(codes) or any(r[-1] for r in results):
                raise SystemExit(f"{name}: a study or post-processing step failed; nothing recorded")
            out = workloads.expected_dir(wl, smoke)
            out.mkdir(parents=True, exist_ok=True)
            for study, _, csv_path in runs:
                shutil.copyfile(csv_path, out / f"{study.name}.csv")
            if wl.post:
                residuals = {str(n): residual for n, _, _, _, _, residual, _ in results}
                (out / "residuals.json").write_text(json.dumps(residuals, indent=1) + "\n")
            print(f"recorded {out}")


if __name__ == "__main__":
    main()
