"""The benchmark's workloads: the studies one pass runs, and its RHP post-processing.

A study is one convergence experiment run through the CLI entry point on a
config file: a shipped one from ``configs/`` or one this module generates.
Every input the program receives is a config file or a point set made here.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# set in os.environ before numpy is first imported; child processes inherit it
BLAS_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Study:
    name: str
    config: str | dict  # shipped config path relative to the repo root, or a generated config
    slope_band: tuple[float, float] | None = None  # acceptance band on the fitted slope


@dataclass(frozen=True)
class Post:
    """Solve the RHP of one study at each ladder N, then evaluate phi and the jump residual."""

    study: str
    ladder: tuple[int, ...]
    points_per_n: int


@dataclass(frozen=True)
class Workload:
    name: str
    studies: tuple[Study, ...]
    post: Post | None = None


def _sweep(n_list, n_ref: int) -> tuple[Study, ...]:
    return tuple(
        Study(f"{exp}-{mode}", dict(experiment=exp, N_list=list(n_list), N_ref=n_ref, mode=mode))
        for exp in ("ode3", "rhp")
        for mode in ("finite_section", "collocation")
    )


def _tiny(exp: str, n_list, n_ref: int) -> Study:
    return Study(exp, dict(experiment=exp, N_list=list(n_list), N_ref=n_ref))


SWEEP_N = tuple(range(32, 513, 32))

WORKLOADS = {
    # the ~2000-mode reference factor and its Toeplitz/SIE assembly dominate
    "solve-ref": Workload("solve-ref", (
        Study("ode3", "configs/ode3.json", (-4.3, -3.7)),
        Study("rhp", "configs/rhp.json", (-1.0, -0.5)),
    )),
    # many small and mid-size solves in both modes, plus the RHP read side;
    # 80 points per N make evaluation about a quarter of the pass
    "solve-sweep": Workload("solve-sweep", _sweep(SWEEP_N, 641),
                            Post("rhp-finite_section", SWEEP_N, 80)),
    # dense Hermitian eigensolves; no linear solve and no collocation
    "spectrum": Workload("spectrum", (
        Study("spectrum2", "configs/spectrum2.json", (-math.inf, -2.0)),
        Study("spectrum3", "configs/spectrum3.json"),  # slope undefined by design
    )),
}

# tiny-N versions of the same workloads for the smoke test; slopes are not
# asymptotic at these sizes, so only the recorded rows are checked
SMOKE = {
    "solve-ref": Workload("solve-ref", (_tiny("ode3", (8, 12, 16), 33), _tiny("rhp", (8, 12, 16), 32))),
    "solve-sweep": Workload("solve-sweep", _sweep((8, 16, 24), 41), Post("rhp-finite_section", (8, 16, 24), 4)),
    "spectrum": Workload("spectrum", (_tiny("spectrum2", (9, 17), 33), _tiny("spectrum3", (9, 17), 33))),
}


def get(name: str, smoke: bool) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]


def work_dir(smoke: bool) -> Path:
    return BENCH / ".work" / ("smoke" if smoke else "full")


def expected_dir(wl: Workload, smoke: bool) -> Path:
    return BENCH / "expected" / ("smoke" if smoke else "full") / wl.name


def config_paths(wl: Workload, work: Path) -> list[tuple[Study, Path, Path]]:
    """(study, config path, CSV path) per study; generated configs live in work."""
    return [(study,
             ROOT / study.config if isinstance(study.config, str) else work / f"{study.name}.json",
             work / f"{study.name}.csv")
            for study in wl.studies]


def write_configs(wl: Workload, work: Path) -> list[tuple[Study, Path, Path]]:
    """Write the generated configs; returns config_paths."""
    work.mkdir(parents=True, exist_ok=True)
    runs = config_paths(wl, work)
    for study, cfg_path, csv_path in runs:
        if isinstance(study.config, dict):
            cfg_path.write_text(json.dumps({**study.config, "output_path": str(csv_path)}, indent=1))
    return runs


def import_circspec():
    """Import circspec from this checkout's src, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import circspec.cli
    import circspec.rhp

    if not Path(circspec.__file__).resolve().is_relative_to(src):
        raise ImportError(f"circspec was imported from {circspec.__file__}, not from {src}")
    return circspec


def build_problem(cfg):
    """The operator or jump an experiment config describes, built through circspec.problems."""
    from circspec import problems

    if cfg.experiment == "ode3":
        return problems.third_order_ode(cfg.alpha, cfg.N_ref, g_scale=cfg.g_scale)
    if cfg.experiment == "rhp":
        return problems.rhp_jump(cfg.alpha, cfg.epsilon, cfg.N_ref)
    if cfg.experiment == "spectrum2":
        return problems.second_order_operator(cfg.alpha, cfg.N_ref, g_scale=cfg.g_scale)
    return problems.third_order_operator(cfg.alpha, cfg.N_ref, g_scale=cfg.g_scale)


def set_up(configs) -> dict:
    """Load every config and build its problem: what a CLI call pays before solving."""
    from circspec.harness import ExperimentConfig

    built = {}
    for study, cfg_path, _ in configs:
        cfg = ExperimentConfig.from_json_file(str(cfg_path))
        built[study.name] = (cfg, build_problem(cfg))
    return built


def eval_points(seed: int, post: Post) -> list:
    """Per ladder N, points_per_n seeded points: half inside the circle, half outside."""
    import numpy as np

    rng = np.random.default_rng(seed)
    inner = post.points_per_n // 2
    out = []
    for _ in post.ladder:
        r = np.concatenate([rng.uniform(0.2, 0.9, inner), rng.uniform(1.1, 3.0, post.points_per_n - inner)])
        out.append(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, post.points_per_n)))
    return out
