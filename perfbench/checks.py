"""Output checks, work counters and the output digest.

Everything here reads the files the CLI wrote with the benchmark's own
parsers and recomputes what it needs (motion weights, landmark regions,
neighbour counts) with its own code, so a check does not trust the layer it
checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from workloads import command_kind, grid_points

# Values of every key the checks and counters depend on. The benchmark writes
# them into each run's config file, so these are the values the program uses;
# today they equal the program's own defaults.
BASE_CONFIG = {
    "lbp.radii": "1,1,4",
    "lbp.neighbors": "8,8,8",
    "lbp.blocks": "5,5",
    "lbp.overlap": "0",
    "curv.radius": "0.02",
    "curv.zero_eps": "0.5",
    "curv.region_radius": "0.02",
    "curv.frames": "onset-apex",
    "weights.radius_px": "4",
    "fusion.sweep": "true",
    "eval.protocol": "loso",
    "eval.k": "10",
    "eval.repeats": "10",
    "eval.features": "2d,3d-si,3d-hk,3d-sihk",
    "landmarks.subset": "0,1,2,3,4,5,6,7,8,9,19,22,25,28,10,12,13,14,16,18,"
                        "31,33,35,37,39,41,43,44,45,46,47,48",
}

# Config keys each feature kind depends on; two extractions with equal values
# of these keys on the same sample give the same feature.
FEATURE_KEYS = {
    "2d": ("lbp.radii", "lbp.neighbors", "lbp.blocks", "lbp.overlap"),
    "3d": ("curv.radius", "curv.zero_eps", "curv.region_radius", "curv.frames",
           "weights.radius_px", "landmarks.subset"),
}

# curvature3d.sequence_feature calls per sample for each feature kind.
SEQUENCE_CALLS = {"2d": 0, "3d-si": 1, "3d-hk": 1, "3d-sihk": 2}


def ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


# --- readers --------------------------------------------------------------

def read_index(path) -> list[dict]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        for key in ("onset", "apex", "offset"):
            r[key] = int(r[key])
    return rows


def read_ply(path) -> np.ndarray:
    with Path(path).open(encoding="ascii") as fh:
        header = 0
        for line in fh:
            header += 1
            if line.strip() == "end_header":
                break
    points = np.loadtxt(path, skiprows=header, dtype=np.float32, ndmin=2)
    return points.astype(np.float64)


def pgm_shape(path) -> tuple[int, int]:
    """(height, width) from a binary PGM header without comment lines."""
    _magic, w, h, _maxval = Path(path).read_bytes()[:64].split(maxsplit=4)[:4]
    return int(h), int(w)


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    h, w = pgm_shape(path)
    return np.frombuffer(data[len(data) - h * w:], dtype=np.uint8).reshape(h, w)


def read_landmarks(path) -> np.ndarray:
    """Landmarks CSV (frame,idx,coords...) as an array [frame, idx, coord]."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_frames = int(table[:, 0].max()) + 1
    n_marks = int(table[:, 1].max()) + 1
    out = np.empty((n_frames, n_marks, table.shape[1] - 2))
    out[table[:, 0].astype(int), table[:, 1].astype(int)] = table[:, 2:]
    return out


def read_feature(path) -> tuple[str, list[str]]:
    tag, _fingerprint, *values = Path(path).read_text(encoding="utf-8").strip().split(",")
    return tag, values


def sample_dir(root: Path, rec: dict) -> Path:
    return root / rec["subject"] / rec["sample"]


# --- expected outputs -----------------------------------------------------

def curvature_frames(cfg: dict, rec: dict) -> list[int]:
    if cfg["curv.frames"] == "onset-apex":
        return [rec["onset"], rec["apex"]]
    return list(range(rec["onset"], rec["offset"] + 1))


def feature_length(kind: str, cfg: dict, rec: dict) -> int:
    if kind == "2d":
        bx, by = ints(cfg["lbp.blocks"])
        return bx * by * sum(2 ** p for p in ints(cfg["lbp.neighbors"]))
    per_kind = 9 * len(ints(cfg["landmarks.subset"])) * len(curvature_frames(cfg, rec))
    return 2 * per_kind if kind == "3d-sihk" else per_kind


def motion_weights(sample: Path, rec: dict, cfg: dict) -> np.ndarray:
    """Per-landmark mean frame-difference weights, normalised to mean 1."""
    frames = sorted((sample / "frames").glob("frame_*.pgm"))[rec["onset"]:]
    video = np.stack([read_pgm(p) for p in frames]).astype(np.float64)
    diff = np.abs(video[1:] - video[0]).mean(axis=0)
    marks = read_landmarks(sample / "landmarks2d.csv")[rec["onset"]][list(ints(cfg["landmarks.subset"]))]
    radius = int(cfg["weights.radius_px"])
    yy, xx = np.mgrid[0:diff.shape[0], 0:diff.shape[1]]
    weights = np.array([diff[(xx - x) ** 2 + (yy - y) ** 2 <= radius ** 2].mean()
                        for x, y in marks])
    return weights / weights.mean() if weights.mean() > 0 else np.ones_like(weights)


class Report:
    """Operations attempted and failed, plus every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


def check_manifest(report: Report, out: Path) -> None:
    manifest = json.loads((out / "preprocessed" / "manifest.json").read_text(encoding="utf-8"))
    for key, status in sorted(manifest["samples"].items()):
        report.op(status == "ok", f"preprocess {key}: {status}")


def check_features(report: Report, out: Path, kinds, cfg: dict, records) -> None:
    """One finite feature of the expected length per (kind, sample); 3-d
    landmark blocks sum to the landmark weights; 3d-sihk is si then hk."""
    pre = out / "preprocessed"
    values = {}
    for kind in kinds:
        files = sorted((out / "features" / kind).glob("*/*.csv"))
        report.check(len(files) == len(records),
                     f"{kind}: {len(files)} feature files for {len(records)} samples")
        for rec in records:
            path = out / "features" / kind / rec["subject"] / f"{rec['sample']}.csv"
            name = f"{kind} {rec['subject']}/{rec['sample']}"
            if not report.op(path.is_file(), f"{name}: feature file missing"):
                continue
            _, raw = read_feature(path)
            vec = np.array([float(v) for v in raw])
            expected = feature_length(kind, cfg, rec)
            ok = report.op(len(vec) == expected and bool(np.all(np.isfinite(vec))),
                           f"{name}: length {len(vec)} (expected {expected}) or non-finite")
            values[kind, rec["sample"]] = raw
            if ok and kind != "2d":
                weights = motion_weights(sample_dir(pre, rec), rec, cfg)
                n_frames = len(curvature_frames(cfg, rec))
                for part in np.split(vec, 2 if kind == "3d-sihk" else 1):
                    sums = part.reshape(len(weights), n_frames, 9).sum(axis=2)
                    report.check(np.allclose(sums, weights[:, None], rtol=1e-9, atol=1e-12),
                                 f"{name}: landmark blocks do not sum to the motion weights")
    if {"3d-si", "3d-hk", "3d-sihk"} <= set(kinds):
        for rec in records:
            s = rec["sample"]
            if ("3d-sihk", s) in values:
                report.check(values["3d-sihk", s] == values.get(("3d-si", s), []) +
                             values.get(("3d-hk", s), []),
                             f"3d-sihk {s}: not 3d-si followed by 3d-hk")


def read_results(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expected_rows(kinds) -> list[str]:
    rows = list(kinds)
    if "2d" in kinds:
        rows += [f"2d+{k}" for k in kinds if k != "2d"]
    return rows


def check_results(report: Report, rows: list[dict], kinds, what: str) -> None:
    report.check(sorted(r["features"] for r in rows) == sorted(expected_rows(kinds)),
                 f"{what}: rows {[r['features'] for r in rows]}")
    for r in rows:
        acc = float(r["accuracy"])
        report.op(math.isfinite(acc) and 0.0 <= acc <= 1.0, f"{what}: row {r}")


def best_accuracy(rows: list[dict]) -> float:
    """The best fused (2d+*) row, or the best row when nothing is fused."""
    fused = [float(r["accuracy"]) for r in rows if r["features"].startswith("2d+")]
    return max(fused or [float(r["accuracy"]) for r in rows])


def digest(out: Path) -> str:
    """sha256 over every feature file and every results file of a run."""
    h = hashlib.sha256()
    paths = sorted(out.glob("features/*/*/*.csv"))
    paths += [out / n for n in ("results.csv", "eval_details.json", "sweep.csv")
              if (out / n).exists()]
    for p in paths:
        h.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


# --- computed work counters -----------------------------------------------

def extraction_plan(workload, cfg: dict) -> list[tuple[str, dict, bool]]:
    """(kind, config, in a sweep) for every extraction of all samples that one
    timed iteration performs."""
    plan = []
    for command in workload.commands:
        if command_kind(command):
            plan.append((command_kind(command), cfg, False))
        elif command[0] == "sweep":
            for point in grid_points(workload.grid):
                point_cfg = {**cfg, **point}
                plan += [(k, point_cfg, True) for k in point_cfg["eval.features"].split(",")]
    return plan


def computed_counters(workload, cfg: dict, data: Path, out: Path) -> dict[str, float]:
    """Work one iteration demands, counted from the generated and preprocessed
    inputs: LBP codes, curvature fits, neighbours, distinct sweep features."""
    pre = out / "preprocessed"
    records = read_index(pre / "index.csv")
    plan = extraction_plan(workload, cfg)

    raw_points = [len(read_ply(p)) for rec in read_index(data / "index.csv")
                  for p in sorted((sample_dir(data, rec) / "clouds").glob("cloud_*.ply"))]

    codes = 0
    for kind, kcfg, _ in plan:
        if kind != "2d":
            continue
        rx, ry, rt = ints(kcfg["lbp.radii"])
        for rec in records:
            frames = sorted((sample_dir(pre, rec) / "frames").glob("frame_*.pgm"))
            h, w = pgm_shape(frames[0])
            centres = (len(frames) - 2 * rt) * (h - 2 * ry) * (w - 2 * rx)
            codes += centres * sum(ints(kcfg["lbp.neighbors"]))

    fits = neighbours = 0
    distinct = set()
    clouds: dict = {}
    for kind, kcfg, _ in plan:
        calls = SEQUENCE_CALLS[kind]
        if not calls:
            continue
        region_r = float(kcfg["curv.region_radius"])
        neigh_r = float(kcfg["curv.radius"])
        for rec in records:
            sample = sample_dir(pre, rec)
            marks = read_landmarks(sample / "landmarks3d.csv")
            for t in curvature_frames(kcfg, rec):
                if (rec["sample"], t) not in clouds:
                    pts = read_ply(sample / "clouds" / f"cloud_{t:04d}.ply")
                    clouds[rec["sample"], t] = (pts, cKDTree(pts))
                pts, tree = clouds[rec["sample"], t]
                for lm in ints(kcfg["landmarks.subset"]):
                    region = tree.query_ball_point(marks[t, lm], r=region_r)
                    counts = tree.query_ball_point(pts[region], r=neigh_r, return_length=True)
                    fits += calls * len(region)
                    neighbours += calls * int(np.sum(counts))
                    distinct.update((rec["sample"], t, v, neigh_r) for v in region)

    sweep_features = {(kind, rec["sample"],
                       tuple(kcfg[k] for k in FEATURE_KEYS["2d" if kind == "2d" else "3d"]))
                      for kind, kcfg, in_sweep in plan if in_sweep for rec in records}
    return {
        "preprocess3d.points_per_frame": float(np.mean(raw_points)),
        "lbptop.codes": codes,
        "curvature3d.region_vertices": fits,
        "curvature3d.distinct_vertices": len(distinct),
        "curvature3d.fit_redundancy": fits / len(distinct) if distinct else 0.0,
        "curvature3d.neighbors_mean": neighbours / fits if fits else 0.0,
        "cli.sweep.distinct_features": len(sweep_features),
    }
