"""The benchmark's named workloads.

Each workload is a closed loop with one client: the benchmark issues one
``microexp`` CLI command after another from a single process, with
``run.workers=1``. Its dataset is generated by the program's own ``synth``
command from the seed passed to the benchmark; the set-up commands are timed
as ``setup_s`` and the remaining commands form one timed iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

# A grid file mixing eval-only keys with one key that changes the 3-d
# features, so that a sweep re-extracts identical inputs at most grid points.
SWEEP_GRID = {
    "eval.protocol": ("loso", "kfold"),
    "curv.radius": ("0.02", "0.025"),
}

# Reduced 8-landmark subset for the sweep (2 brow, 2 eye-corner, 2 nose and
# 2 mouth points), so that a whole sweep lasts seconds rather than minutes.
SWEEP_LANDMARKS = "0,5,19,25,12,16,31,37"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict              # flat key=value config-file entries
    setup: tuple              # CLI commands run before timing, timed as setup_s
    commands: tuple           # CLI commands of one timed iteration
    grid: dict | None = None  # sweep grid, written next to the config file
    fusion_must_win: bool = False  # best 2d+* row must beat the 2d-only row


def command_kind(command: tuple) -> str | None:
    """Feature kind of an ``extract`` command, None for other commands."""
    return command[command.index("--kind") + 1] if command[0] == "extract" else None


def command_metric(command: tuple) -> str:
    """Metric stem of one CLI command: preprocess, extract_3d_si, eval, ..."""
    kind = command_kind(command)
    return "extract_" + kind.replace("-", "_") if kind else command[0]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pipeline-3d",
            why="the paper's headline run: preprocess, all four feature kinds and "
                "LOSO eval with fusion; curvature3d does most of the work",
            config={
                "synth.signal": "3d",
                "synth.subjects": "5",
                "synth.samples": "2",
                "synth.points": "800",
            },
            setup=(("synth",),),
            commands=(
                ("preprocess",),
                ("extract", "--kind", "2d"),
                ("extract", "--kind", "3d-si"),
                ("extract", "--kind", "3d-hk"),
                ("extract", "--kind", "3d-sihk"),
                ("eval",),
            ),
            fusion_must_win=True,
        ),
        Workload(
            name="preprocess-2d",
            why="preprocess, 2-d extract and 2-d LOSO eval on tens of samples; no "
                "curvature work, so time goes to PLY I/O, ICP and LBP-TOP",
            config={
                "synth.signal": "2d",
                "synth.subjects": "5",
                "synth.samples": "4",
                "eval.features": "2d",
            },
            setup=(("synth",),),
            commands=(
                ("preprocess",),
                ("extract", "--kind", "2d"),
                ("eval",),
            ),
        ),
        Workload(
            name="sweep-kfold",
            why="a loso|kfold x curv.radius sweep over 2d,3d-si that re-extracts "
                "the same inputs at every grid point and trains many k-fold models",
            config={
                "synth.signal": "both",
                "synth.subjects": "3",
                "synth.samples": "2",
                "synth.points": "800",
                "eval.features": "2d,3d-si",
                "eval.k": "3",  # 6 samples: three stratified folds, 10 repeats
                "landmarks.subset": SWEEP_LANDMARKS,
            },
            setup=(("synth",), ("preprocess",)),
            commands=(("sweep",),),
            grid=SWEEP_GRID,
        ),
    )
}


def grid_points(grid: dict | None) -> list[dict]:
    """Cartesian product of a grid, in the sorted key order the CLI uses."""
    points = [{}]
    for key in sorted(grid or {}):
        points = [{**p, key: v} for p in points for v in grid[key]]
    return points if grid else []

