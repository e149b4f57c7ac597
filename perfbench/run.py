"""microexp benchmark: run one workload through the CLI, check its outputs,
print every metric by name and unit.

    python3 perfbench/run.py --workload pipeline-3d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, measured with no
instrumentation; ``--trace 1`` spends half the time untraced and half with
spans around every layer call, and prints the per-layer metrics. The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Scratch data lives in ``.perfbench_work/`` and is removed at exit; the run
record and the span file stay in ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, command_kind, command_metric, grid_points  # noqa: E402

# Set-up repeats: at least 3, more while they take under SETUP_BUDGET_S in all.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 6.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "best_accuracy": "ratio",
}

COMMAND_STEMS = ("preprocess", "extract_2d", "extract_3d_si", "extract_3d_hk",
                 "extract_3d_sihk", "eval", "sweep")


def _per_layer() -> dict[str, str]:
    m = {}
    for stem in COMMAND_STEMS:
        m[f"cmd.{stem}.s"] = "s"
        m[f"cmd.{stem}.self_s"] = "s"
    for fn in ("write_ply", "read_ply"):
        m.update({f"fileio.{fn}.s": "s", f"fileio.{fn}.calls": "count",
                  f"fileio.{fn}.bytes": "bytes"})
    for fn in ("read_pgm", "write_pgm", "read_landmarks", "write_landmarks",
               "read_feature_csv", "write_feature_csv"):
        m[f"fileio.{fn}.s"] = "s"
    for fn in ("denoise", "find_nose_tip", "register_sequence"):
        m[f"preprocess3d.{fn}.s"] = "s"
    m.update({"preprocess3d.icp_align.calls": "count", "preprocess3d.icp_iters": "count",
              "preprocess3d.points_per_frame": "count",
              "preprocess2d.warp_volume.s": "s", "preprocess2d.crop_face.s": "s"})
    for fn in ("lbp_top_histogram", "mean_difference_weights"):
        m.update({f"lbptop.{fn}.s": "s", f"lbptop.{fn}.calls": "count"})
    m.update({
        "lbptop.codes": "count",
        "curvature3d.sequence_feature.s": "s", "curvature3d.sequence_feature.calls": "count",
        "curvature3d.region_vertices": "count", "curvature3d.distinct_vertices": "count",
        "curvature3d.fit_redundancy": "ratio", "curvature3d.neighbors_mean": "count",
        "learn.train.s": "s", "learn.train.calls": "count", "learn.train.feature_dim": "count",
        "learn.cross_val_proba.s": "s", "learn.fuse.s": "s", "learn.metrics.s": "s",
        "learn.fuse.calls": "count",
        "cli.read_sample_tree.s": "s", "cli.read_sample_tree.calls": "count",
        "cli.extract_sample_feature.s": "s", "cli.extract_sample_feature.calls": "count",
        "cli.sweep.distinct_features": "count", "cli.sweep.useful_extract_ratio": "ratio",
        "synth.make_dataset.s": "s",
    })
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = "s"
    m.update({"trace.wall_s": "s", "trace.overhead_frac": "ratio", "trace.spans": "count"})
    return m


PER_LAYER = _per_layer()


def environment(run: "Run", seed: int) -> dict:
    from microexp.cli import RunConfig

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    index = checks.read_index(run.data / "index.csv")
    first = checks.sample_dir(run.data, index[0]) / "clouds" / "cloud_0000.ply"
    config = RunConfig.from_file(run.cfg_path)
    settings = {k: v for k, v in config.to_dict().items() if k not in ("data.root", "run.out")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": run.workload.name,
        "seed": seed,
        "synth_spec": dataclasses.asdict(config.synth),
        "config_fingerprint": hashlib.sha1(json.dumps(settings, sort_keys=True).encode())
                                     .hexdigest()[:12],
        "samples": len(index),
        "points_per_frame": len(checks.read_ply(first)),
        "grid_points": len(grid_points(run.workload.grid)),
    }


class Run:
    """One benchmark invocation: a work directory, its config and the CLI."""

    def __init__(self, workload, seed: int, work: Path, cli_main):
        self.workload = workload
        self.data = work / "data"
        self.out = work / "out"
        self.cli_main = cli_main
        self.cfg = {**checks.BASE_CONFIG, "data.root": str(self.data), "run.out": str(self.out),
                    "run.seed": str(seed), "run.workers": "1", **workload.config}
        self.cfg_path = work / "run.cfg"
        self.cfg_path.write_text("".join(f"{k}={v}\n" for k, v in self.cfg.items()),
                                 encoding="utf-8")
        self.grid_path = work / "grid.txt"
        if workload.grid:
            self.grid_path.write_text("".join(f"{k}={'|'.join(v)}\n"
                                              for k, v in workload.grid.items()),
                                      encoding="utf-8")
        self.report = checks.Report()
        self.digests: set[str] = set()
        self.accuracy: float | None = None
        self.peak_rss_mb: float | None = None

    def command(self, command: tuple, tracer=None, prefix="cmd") -> float:
        argv = [*command, "--config", str(self.cfg_path)]
        if command[0] == "sweep":
            argv += ["--grid", str(self.grid_path)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli_main(argv)
            else:
                with tracer.span(f"{prefix}.{command_metric(command)}"):
                    rc = self.cli_main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - t0
        self.report.op(rc == 0, f"{' '.join(command)} exited with {rc}")
        return elapsed

    def setup(self, tracer=None) -> float:
        shutil.rmtree(self.data, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = time.perf_counter()
        if tracer is None:
            for c in self.workload.setup:
                self.command(c)
        else:
            with tracer.span("setup"):
                for c in self.workload.setup:
                    self.command(c, tracer, prefix="setup")
        return time.perf_counter() - t0

    def iteration(self, tracer=None) -> dict[str, float]:
        """One timed pass over the workload's commands; returns per-command seconds."""
        keep = "preprocessed" if ("preprocess",) in self.workload.setup else None
        if self.out.exists():
            for child in self.out.iterdir():
                if child.name != keep:
                    shutil.rmtree(child) if child.is_dir() else child.unlink()
        times = {command_metric(c): self.command(c, tracer) for c in self.workload.commands}
        times["wall"] = sum(times.values())
        if self.peak_rss_mb is None:
            # Peak of set-up plus one iteration: later iterations only add
            # allocator growth, which would tie the figure to their number.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.verify()
        return times

    def verify(self) -> None:
        """Check one iteration's outputs and record its digest."""
        r, out = self.report, self.out
        cfg = self.cfg
        if not r.check((out / "preprocessed" / "manifest.json").is_file(), "no manifest"):
            return
        checks.check_manifest(r, out)
        records = checks.read_index(out / "preprocessed" / "index.csv")
        kinds = [command_kind(c) for c in self.workload.commands if command_kind(c)]
        checks.check_features(r, out, kinds, cfg, records)
        features = cfg["eval.features"].split(",")
        rows = []
        if ("eval",) in self.workload.commands and r.check((out / "results.csv").is_file(),
                                                           "no results.csv"):
            rows = checks.read_results(out / "results.csv")
            checks.check_results(r, rows, features, "results.csv")
        if self.workload.grid and r.check((out / "sweep.csv").is_file(), "no sweep.csv"):
            rows = checks.read_results(out / "sweep.csv")
            for point in grid_points(self.workload.grid):
                at = [row for row in rows if all(row[k] == v for k, v in point.items())]
                checks.check_results(r, at, features, f"sweep.csv {point}")
        if rows and r.check(all(row["features"] != "error" for row in rows), "error rows"):
            self.accuracy = checks.best_accuracy(rows)
            only_2d = max(float(row["accuracy"]) for row in rows if row["features"] == "2d")
            if self.workload.fusion_must_win:
                r.check(self.accuracy > only_2d,
                        f"fused accuracy {self.accuracy} does not beat 2d-only {only_2d}")
        self.digests.add(checks.digest(out))
        r.check(len(self.digests) == 1, "outputs differ between iterations of one run")


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: a gauge of how fast the
    machine ran, recorded beside the results and never used in a metric."""
    def once():
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(1_000_000))
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(5))


def timed_loop(budget: float, step) -> list:
    """Call ``step`` until another call would overrun ``budget`` seconds (at least once)."""
    results, start = [], time.perf_counter()
    while True:
        results.append(step())
        typical = statistics.median(r["wall"] for r in results)
        if time.perf_counter() - start + typical > budget:
            return results


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    setups = []
    while len(setups) < SETUP_REPEATS[0] or (sum(setups) < SETUP_BUDGET_S
                                             and len(setups) < SETUP_REPEATS[1]):
        setups.append(run.setup())
    iters = timed_loop(seconds, run.iteration)
    print("setups " + " ".join(f"{t:.4f}" for t in setups))
    print("iterations " + " ".join(f"{i['wall']:.4f}" for i in iters))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(i["wall"] for i in iters),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_frac": 1.0 - run.report.failed / max(run.report.attempted, 1),
        "best_accuracy": run.accuracy or 0.0,
    }


def per_layer(run: Run, seconds: float, spans_out: list) -> dict[str, float]:
    tracer = tracing.Tracer()
    with tracer.install():
        run.setup(tracer)
    setup_summary = tracing.summarize(tracer.spans)

    untraced = timed_loop(seconds / 2, run.iteration)
    summaries, traced_walls = [], []

    def traced_step():
        first = len(tracer.spans)
        with tracer.install():
            times = run.iteration(tracer)
        spans = tracer.spans[first:]
        for problem in tracing.check_nesting(spans):
            run.report.check(False, problem)
        s = tracing.summarize(spans)
        s.update(checks.computed_counters(run.workload, run.cfg, run.data, run.out))
        s["trace.spans"] = len(spans)
        s["preprocess3d.icp_iters"] = s.get("preprocess3d.icp_align.n_iter", 0)
        calls = s.get("learn.train.calls", 0)
        s["learn.train.feature_dim"] = s.get("learn.train.feature_dim", 0) / calls if calls else 0
        extracts = s.get("cli.extract_sample_feature.calls", 0)
        s["cli.sweep.useful_extract_ratio"] = (s["cli.sweep.distinct_features"] / extracts
                                               if run.workload.grid and extracts else 0.0)
        summaries.append(s)
        traced_walls.append(times["wall"])
        return times

    timed_loop(seconds / 2, traced_step)
    spans_out.extend(tracer.spans)

    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [s.get(name, 0) for s in summaries]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:  # work counts must repeat exactly
            run.report.check(len(set(values)) == 1, f"{name} differs between iterations: {values}")
            metrics[name] = values[0]
    metrics["synth.make_dataset.s"] = setup_summary.get("synth.make_dataset.s", 0.0)
    metrics["synth.self_s"] = setup_summary["synth.self_s"]
    for stem in COMMAND_STEMS:
        metrics[f"cmd.{stem}.s"] = statistics.median(i.get(stem, 0.0) for i in untraced)
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                      / statistics.median(i["wall"] for i in untraced) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "microexp" / "cli.py").is_file():
        print(f"error: no microexp source under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from microexp.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    work = base / f"{workload.name}-{os.getpid()}"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    spans: list = []
    t0 = time.perf_counter()
    reference = [reference_s()]
    try:
        run = Run(workload, args.seed, work, cli_main)
        if args.trace:
            metrics = per_layer(run, args.seconds, spans)
            units = PER_LAYER
        else:
            metrics = end_to_end(run, args.seconds)
            units = END_TO_END
        reference.append(reference_s())
        env = {**environment(run, args.seed), "reference_s": reference}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = run.report
    correct = not report.problems and report.attempted > 0
    digest = next(iter(run.digests)) if len(run.digests) == 1 else "mismatch"
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "digest": digest, "problems": report.problems, "metrics": metrics}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if args.trace:
        (results_dir / f"{stem}-spans.json").write_text(
            json.dumps(tracing.to_json(spans, t0)), encoding="utf-8")

    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {digest}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
