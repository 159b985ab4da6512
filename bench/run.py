"""The circspec benchmark command.

    python3 bench/run.py --workload solve-ref --seed 1 --seconds 30 --trace 0

Runs one workload closed-loop from this process, one pass at a time, for
--seconds seconds, with BLAS pinned to one thread.  A pass runs every study
of the workload through ``circspec.cli.main_convergence`` and then, on
solve-sweep, the RHP post-processing through ``circspec.rhp``.  Every pass's
outputs are checked.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and prints the per-layer
metrics.  --smoke runs tiny-N versions of the workloads.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

import workloads

os.environ.update(workloads.BLAS_PINNED)  # before anything imports numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES = 5
# a run keeps going past --seconds until it has this many untraced passes,
# so that pass_s.tail always has ten samples beyond it
MIN_PASSES = 11
END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def environment() -> dict:
    import scipy

    def blas(show_config):
        b = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def post_one(circspec, jump, n: int, z: np.ndarray) -> tuple:
    """Solve the RHP at N, evaluate phi at z and the jump residual on a 2N grid."""
    coeffs = j_min = values = residual = None
    try:
        sol = circspec.rhp.solve_rhp(jump, circspec.BandWindow(n))
        coeffs, j_min = sol.u.coeffs, sol.u.j_min
        values = np.array([circspec.rhp.evaluate_phi(sol, p) for p in z])
        residual = circspec.rhp.jump_residual(sol, jump, 2 * n)
    except Exception as exc:  # a failed operation is counted, not fatal to the run
        return n, z, coeffs, j_min, values, residual, repr(exc)
    return n, z, coeffs, j_min, values, residual, None


def run_pass(circspec, runs, post, jump, points) -> tuple[list, list]:
    """One pass: every study through the CLI, then the post-processing; returns what to check.

    A study's entry is the CLI's exit code, or the exception it raised.
    """
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for _, cfg_path, csv_path in runs:
            try:
                codes.append(circspec.cli.main_convergence(["--config", str(cfg_path), "--output", str(csv_path)]))
            except Exception as exc:  # counted as the study's failed operations
                codes.append(repr(exc))
    results = [post_one(circspec, jump, n, z) for n, z in zip(post.ladder, points)] if post else []
    return codes, results


def check_pass(wl, smoke: bool, runs, built, codes, results) -> tuple[int, int, list]:
    expected = workloads.expected_dir(wl, smoke)
    outcomes = [checks.check_study(len(built[study.name][0].N_list) + 1, code, csv_path,
                                   expected / f"{study.name}.csv", study.slope_band)
                for (study, _, csv_path), code in zip(runs, codes)]
    if wl.post:
        outcomes.append(checks.check_post(results, expected / "residuals.json"))
    return (sum(o[0] for o in outcomes), sum(o[1] for o in outcomes),
            [m for o in outcomes for m in o[2]])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it.

    Needs at least MIN_PASSES samples.
    """
    ordered = sorted(samples)
    k = len(ordered) - MIN_PASSES
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup_probe(workload: str, smoke: bool) -> float:
    """Set-up time of one fresh process, timed from inside it."""
    cmd = [sys.executable, str(workloads.BENCH / "setup_probe.py"), "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="draws the solve-sweep evaluation points")
    parser.add_argument("--seconds", type=float, required=True, help="how long to run passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-N workloads, one set-up probe")
    args = parser.parse_args(argv)

    wl = workloads.get(args.workload, args.smoke)
    work = workloads.work_dir(args.smoke)
    try:
        circspec = workloads.import_circspec()
    except ImportError as exc:
        print(f"bench: cannot import circspec: {exc}", file=sys.stderr)
        return 2
    runs = workloads.write_configs(wl, work)
    built = workloads.set_up(runs)
    jump = built[wl.post.study][1] if wl.post else None
    points = workloads.eval_points(args.seed, wl.post) if wl.post else []
    env = environment()

    tracer = spans.Tracer()
    attempted = failed = 0
    times = {False: [], True: []}

    def one_pass(traced: bool) -> tuple[float, list]:
        nonlocal attempted, failed
        start = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("pass"):
                codes, results = run_pass(circspec, runs, wl.post, jump, points)
        else:
            codes, results = run_pass(circspec, runs, wl.post, jump, points)
        elapsed = time.perf_counter() - start
        n, bad, messages = check_pass(wl, args.smoke, runs, built, codes, results)
        attempted, failed = attempted + n, failed + bad
        for m in messages:
            print(f"check failed: {m}", file=sys.stderr)
        return elapsed, results

    _, first_results = one_pass(False)  # warm-up: caches filled, not timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    self_test_ok = not wl.post or checks.phi_self_test(first_results[0])
    if not self_test_ok:
        print("check failed: the evaluate_phi oracle accepted a perturbed value", file=sys.stderr)

    kinds = (False, True) if args.trace else (False,)
    # set-up probes are spread over the run, so that their median does not
    # rest on one spell of host speed
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    # raw times, and the same times at reference host speed (untraced runs only)
    setup, setup_ref, pass_ref = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while (time.perf_counter() < deadline or len(setup) < probes
           or len(times[False]) < MIN_PASSES or not times[kinds[-1]]):
        scale = 1.0 if args.trace else hostspeed.scale()  # host speed just before this step
        if len(setup) < probes and time.perf_counter() >= start + len(setup) * args.seconds / probes:
            setup.append(setup_probe(args.workload, args.smoke))
            setup_ref.append(setup[-1] * scale)
            continue
        traced = kinds[i % len(kinds)]
        tracer.pass_id = i
        times[traced].append(one_pass(traced)[0])
        if not traced:
            pass_ref.append(times[False][-1] * scale)
        i += 1
    leftover = spans.wrappers_left()
    if leftover:
        print(f"bench: wrappers not restored: {leftover}", file=sys.stderr)

    # CPU speed on a shared host moves between levels for seconds to minutes,
    # long enough for a whole run to fall into a slow spell; pass_s and
    # setup_s are medians of times scaled to reference host speed (see
    # hostspeed.py).  Raw times, their medians and the tail are printed.
    tail_s, pct = tail(times[False])
    print(f"workload {wl.name}{' (smoke)' if args.smoke else ''}, seed {args.seed}, "
          f"{len(times[False])} untraced and {len(times[True])} traced passes")
    print(f"env {json.dumps(env)}")
    print("untraced pass times (s): " + " ".join(f"{t:.4f}" for t in times[False]))
    print(f"untraced pass: fastest {min(times[False]):.6g} s, median {statistics.median(times[False]):.6g} s; "
          f"pass_s.tail = {tail_s:.6g} s is p{pct:.1f} of {len(times[False])} untraced passes")
    print(f"fail_share = {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    if args.trace:
        ref_sizes = {cfg.N_ref for cfg, _ in built.values()}
        metrics = spans.layer_metrics(tracer.spans, ref_sizes)
        metrics["pass_s.tail"] = tail_s
        # passes alternate, so each traced pass is paired with the untraced
        # one just before it, which met nearly the same host speed
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in zip(times[False], times[True]))
        metrics["fail_share"] = failed / attempted
        units = dict(spans.LAYER_METRICS)
        tracer.write(work / f"spans-{wl.name}.jsonl", {"workload": wl.name, "seed": args.seed, "env": env})
    else:
        print("set-up times of fresh processes (s): " + " ".join(f"{t:.4f}" for t in setup))
        print("at reference host speed, pass (s): " + " ".join(f"{t:.4f}" for t in pass_ref)
              + "; set-up (s): " + " ".join(f"{t:.4f}" for t in setup_ref))
        metrics = {"pass_s": statistics.median(pass_ref), "setup_s": statistics.median(setup_ref),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = failed == 0 and self_test_ok and not leftover
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
