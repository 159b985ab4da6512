"""Time one set-up in this fresh process and print the seconds.

Set-up is what every CLI call pays before solving: import circspec, load the
workload's configs and build its problems.  run.py starts this several times
per run, after writing the generated configs.
"""

from __future__ import annotations

import argparse
import os
import time

import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    os.environ.update(workloads.BLAS_PINNED)
    runs = workloads.config_paths(workloads.get(args.workload, args.smoke), workloads.work_dir(args.smoke))

    start = time.perf_counter()
    workloads.import_circspec()
    workloads.set_up(runs)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
