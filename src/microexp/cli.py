"""Batch front-end: synthesize, preprocess, extract, evaluate, sweep.

Dataset tree layout::

    <root>/index.csv
    <root>/<subject>/<sample>/frames/frame_0000.pgm ...
    <root>/<subject>/<sample>/clouds/cloud_0000.ply ...
    <root>/<subject>/<sample>/landmarks2d.csv
    <root>/<subject>/<sample>/landmarks3d.csv

Exit codes: 0 ok, 1 usage error, 2 data error (any OSError is one), 3 partial
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import curvature3d, dataset, fileio, learn, preprocess2d, preprocess3d
from .curvature3d import CurvatureConfig, DEFAULT_LANDMARK_SUBSET
from .dataset import IndexFormatError, SampleData, SampleRecord
from .lbptop import LbpTopConfig, lbp_top_histogram, mean_difference_weights
from .synth import SynthSpec, make_dataset

RESULTS_HEADER = ["radius", "features", "protocol", "accuracy", "f1"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

FEATURE_KINDS = ("2d", "3d-si", "3d-hk", "3d-sihk")


class UsageError(ValueError):
    pass


class DataError(ValueError):
    pass


class SampleFileError(DataError):
    """A sample file that cannot be read or written: a fault of the tree or
    the disk, not of the config its feature is extracted under."""


def _ints(n: int) -> Callable[[str], tuple[int, ...]]:
    """Parser of exactly n comma-separated integers."""
    def parse(text: str) -> tuple[int, ...]:
        parts = tuple(int(p) for p in str(text).split(","))
        if len(parts) != n:
            raise ValueError(f"expected {n} comma-separated integers, got {text!r}")
        return parts
    return parse


def _parse_bool(text: str) -> bool:
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_subset(text: str) -> tuple[int, ...]:
    """Comma-separated landmark indices; empty means the default subset."""
    return tuple(int(v) for v in text.split(",") if v.strip()) or DEFAULT_LANDMARK_SUBSET


def _parse_weight(text: str) -> float | None:
    """A fusion weight; empty means none (the sweep, or no fusion)."""
    return float(text) if text.strip() else None


def _join(values) -> str:
    return ",".join(map(str, values))


def _field_value(cfg, name: str):
    part, _, attr = name.rpartition(".")
    return getattr(getattr(cfg, part) if part else cfg, attr)


class ConfigKey(NamedTuple):
    """How one config-file key maps onto a ``RunConfig`` field."""

    field: str  # RunConfig field, or "lbp.", "curvature." or "synth." + a field of that part
    stage: str  # the one of STAGES whose outputs the key changes; "run" if none
    parse: Callable[[str], object] = str
    format: Callable[[object], str] = str


# Pipeline stages, in order. A key of the "run" stage changes no output file.
STAGES = ("synth", "preprocess", "extract-2d", "extract-3d", "eval", "run")

# Every key of the flat config file, in the order to_dict writes them.
CONFIG_KEYS: dict[str, ConfigKey] = {
    "data.root": ConfigKey("dataset_root", "run"),
    "data.label_mode": ConfigKey("label_mode", "eval"),
    "lbp.radii": ConfigKey("lbp.radii", "extract-2d", _ints(3), _join),
    "lbp.neighbors": ConfigKey("lbp.neighbors", "extract-2d", _ints(3), _join),
    "lbp.blocks": ConfigKey("lbp.blocks", "extract-2d", _ints(2), _join),
    "lbp.overlap": ConfigKey("lbp.overlap", "extract-2d", int),
    "curv.radius": ConfigKey("curvature.neighborhood_radius", "extract-3d", float, repr),
    "curv.zero_eps": ConfigKey("curvature.zero_eps", "extract-3d", float, repr),
    "curv.region_radius": ConfigKey("curvature.landmark_region_radius", "extract-3d",
                                    float, repr),
    "curv.frames": ConfigKey("curvature_frames", "extract-3d"),
    "weights.radius_px": ConfigKey("weight_radius_px", "extract-3d", int),
    "fusion.sweep": ConfigKey("fusion_sweep", "eval", _parse_bool,
                              lambda b: "true" if b else "false"),
    "eval.protocol": ConfigKey("protocol", "eval"),
    "eval.k": ConfigKey("kfold_k", "eval", int),
    "eval.repeats": ConfigKey("kfold_repeats", "eval", int),
    "eval.features": ConfigKey("eval_features", "eval", _parse_names, _join),
    "run.seed": ConfigKey("seed", "eval", int),  # also the synth seed
    "run.out": ConfigKey("out_dir", "run"),
    "run.workers": ConfigKey("workers", "run", int),  # range-checked; no effect
    "clean.k": ConfigKey("denoise_k", "preprocess", int),
    "clean.sigma": ConfigKey("denoise_sigma", "preprocess", float, repr),
    "clean.crop_radius": ConfigKey("crop_radius", "preprocess", float, repr),
    "clean.tip_at": ConfigKey("tip_at", "preprocess"),
    "landmarks.subset": ConfigKey("landmark_subset", "extract-3d", _parse_subset, _join),
    "synth.subjects": ConfigKey("synth.n_subjects", "synth", int),
    "synth.samples": ConfigKey("synth.samples_per_subject", "synth", int),
    "synth.classes": ConfigKey("synth.n_classes", "synth", int),
    "synth.signal": ConfigKey("synth.signal", "synth"),
    "synth.noise_2d": ConfigKey("synth.noise_2d", "synth", float, repr),
    "synth.noise_3d": ConfigKey("synth.noise_3d", "synth", float, repr),
    "synth.points": ConfigKey("synth.n_points", "synth", int),
    "synth.frames": ConfigKey("synth.n_frames", "synth", int),
    "fusion.a": ConfigKey("fusion_a", "eval", _parse_weight,
                          lambda a: "" if a is None else repr(a)),
}


@dataclass(frozen=True)
class RunConfig:
    """Full pipeline configuration; round-trips losslessly through the flat
    key=value config file format (keys: ``CONFIG_KEYS``)."""

    dataset_root: str = "data"
    label_mode: str = "objective"           # objective | nonobjective
    lbp: LbpTopConfig = field(default_factory=LbpTopConfig)
    curvature: CurvatureConfig = field(default_factory=CurvatureConfig)
    curvature_frames: str = "onset-apex"    # onset-apex | all
    weight_radius_px: int = 4
    fusion_a: float | None = None
    fusion_sweep: bool = True
    protocol: str = "loso"                  # loso | kfold
    kfold_k: int = 10
    kfold_repeats: int = 10
    eval_features: tuple[str, ...] = ("2d", "3d-si", "3d-hk", "3d-sihk")
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1                        # no effect: samples run serially, in index order
    denoise_k: int = 8
    denoise_sigma: float = 2.0
    crop_radius: float = 0.1
    tip_at: str = "min"                     # min | max
    landmark_subset: tuple[int, ...] = DEFAULT_LANDMARK_SUBSET
    synth: SynthSpec = field(default_factory=SynthSpec)

    def __post_init__(self):
        if self.label_mode not in ("objective", "nonobjective"):
            raise ValueError(f"label_mode must be objective|nonobjective, got {self.label_mode!r}")
        if self.protocol not in ("loso", "kfold"):
            raise ValueError(f"protocol must be loso|kfold, got {self.protocol!r}")
        if self.curvature_frames not in ("onset-apex", "all"):
            raise ValueError("curvature_frames must be onset-apex|all")
        if self.fusion_sweep and self.fusion_a is not None:
            raise ValueError(f"fusion.a={self.fusion_a!r} is read only under fusion.sweep=false; "
                             "the sweep chooses the weight itself")
        if self.tip_at not in ("min", "max"):
            raise ValueError(f"tip_at must be min|max, got {self.tip_at!r}")
        for name, least in (("weight_radius_px", 1), ("kfold_k", 2), ("kfold_repeats", 1),
                            ("workers", 1), ("denoise_k", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("denoise_sigma", "crop_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for idx in self.landmark_subset:  # the 49-point markup
            if not 0 <= idx <= 48:
                raise ValueError(f"landmarks.subset: landmark index {idx} outside 0..48")
        if not self.eval_features:
            raise ValueError("eval_features names no feature kind")
        for i, kind in enumerate(self.eval_features):
            if kind not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {kind!r}")
            if kind in self.eval_features[:i]:
                raise ValueError(f"eval_features names {kind!r} twice")
        if self.fusion_a is not None and not {"2d"} < set(self.eval_features):
            raise ValueError(f"fusion.a={self.fusion_a!r} is read only when eval.features "
                             "names 2d and a 3-d kind; it fuses the two")
        # run.seed is the only synth seed.
        object.__setattr__(self, "synth", replace(self.synth, seed=self.seed))

    def to_dict(self) -> dict[str, str]:
        return {key: spec.format(_field_value(self, spec.field))
                for key, spec in CONFIG_KEYS.items()}

    @classmethod
    def from_dict(cls, d: dict[str, str]) -> "RunConfig":
        """Config from flat key=value entries; missing keys keep the defaults.

        Raises ValueError naming every unknown key, or the key of a bad value.
        """
        unknown = sorted(set(d) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        fields: dict[str, dict] = {"": {}}  # part ("" for RunConfig itself) -> name -> value
        for key, text in d.items():
            part, _, name = CONFIG_KEYS[key].field.rpartition(".")
            try:
                fields.setdefault(part, {})[name] = CONFIG_KEYS[key].parse(text)
            except ValueError as exc:
                raise ValueError(f"{key}={text!r}: {exc}") from None
        top = fields.pop("")
        base = cls()
        return replace(base, **top, **{part: replace(getattr(base, part), **kw)
                                       for part, kw in fields.items()})

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(fileio.load_config(path))

    def to_file(self, path) -> None:
        fileio.save_config(path, self.to_dict())


def stage_fingerprint(cfg: RunConfig, stage: str, base: str = "") -> str:
    """12 hex characters of sha1 over ``base`` and the formatted value of
    every key of ``stage``."""
    values = [f"{key}={spec.format(_field_value(cfg, spec.field))}"
              for key, spec in CONFIG_KEYS.items() if spec.stage == stage]
    return hashlib.sha1(";".join([base, *values]).encode()).hexdigest()[:12]


def feature_fingerprint(cfg: RunConfig, kind: str, preprocess_fp: str | None = None) -> str:
    """Fingerprint of ``kind``'s features extracted under ``cfg`` from a
    preprocessed tree whose manifest fingerprint is ``preprocess_fp`` (by
    default, the one ``cfg`` itself preprocesses to)."""
    if preprocess_fp is None:
        preprocess_fp = stage_fingerprint(cfg, "preprocess")
    return stage_fingerprint(cfg, "extract-2d" if kind == "2d" else "extract-3d", preprocess_fp)


# --- dataset tree I/O -------------------------------------------------------

def sample_dir(root, record: SampleRecord) -> Path:
    return Path(root) / record.subject_id / record.sample_id


def write_sample_tree(root, record: SampleRecord, sample: SampleData) -> None:
    d = sample_dir(root, record)
    d.mkdir(parents=True, exist_ok=True)
    fileio.write_volume(d / "frames", sample.video)
    fileio.write_cloud_sequence(d / "clouds", sample.clouds)
    if sample.landmarks2d is not None:
        fileio.write_landmarks(d / "landmarks2d.csv", sample.landmarks2d, dims=2)
    if sample.landmarks3d is not None:
        fileio.write_landmarks(d / "landmarks3d.csv", sample.landmarks3d, dims=3)


def cloud_frames(kind: str, cfg: RunConfig, record: SampleRecord) -> frozenset[int]:
    """The frames whose clouds ``kind``'s feature of ``record`` uses under
    ``cfg``: none for 2d, the curvature frames for a 3-d kind."""
    if kind == "2d":
        return frozenset()
    return frozenset(curvature3d.curvature_frame_ids(record, cfg.curvature_frames))


def read_sample_tree(root, record: SampleRecord, clouds=None) -> SampleData:
    """One sample's media.

    ``clouds`` names the frames whose clouds are read, along with both
    landmark files; every other frame's cloud is None, and so is a named
    frame past the video's last. ``None`` (the default) reads the cloud of
    every video frame, and an empty set reads the video frames alone (no
    clouds or landmarks). A frame's cloud is ``fileio.cloud_path`` of its
    index; other files in the clouds directory are never read.

    A video that ends before the record's offset frame is a DataError naming
    the frames directory, and so is a landmark file that covers another
    number of frames than the video, or holds a frame without 49 landmarks,
    naming that file (and the frame).
    """
    d = sample_dir(root, record)
    if not d.is_dir():
        raise DataError(f"sample directory missing: {d}")
    video = fileio.read_volume(d / "frames")
    if video.n_frames <= record.offset:
        raise DataError(f"{d / 'frames'}: {video.n_frames} frames, but the index puts the "
                        f"offset at frame {record.offset}")
    if clouds is not None and not clouds:
        return SampleData(video=video, clouds=None, landmarks2d=None, landmarks3d=None)
    lm2_path = d / "landmarks2d.csv"
    lm3_path = d / "landmarks3d.csv"
    if not lm2_path.exists():
        raise DataError(f"missing landmark file: {lm2_path}")
    if not lm3_path.exists():
        raise DataError(f"missing landmark file: {lm3_path}")
    if clouds is None:
        clouds = range(video.n_frames)
    read = [None] * video.n_frames
    for t in sorted(t for t in clouds if t < video.n_frames):
        path = fileio.cloud_path(d / "clouds", t)
        if not path.exists():
            raise DataError(f"missing cloud file: {path}")
        read[t] = fileio.read_ply(path)
    marks = {}
    for name, path, dims in (("landmarks2d", lm2_path, 2), ("landmarks3d", lm3_path, 3)):
        marks[name] = tuple(fileio.read_landmarks(path, dims=dims))
        if len(marks[name]) != video.n_frames:
            raise DataError(f"{path}: landmarks of {len(marks[name])} frames, but the video "
                            f"has {video.n_frames}")
        for t, frame in enumerate(marks[name]):
            if len(frame) != 49:
                raise DataError(f"{path}: frame {t} has {len(frame)} landmarks, not 49")
    return SampleData(video=video, clouds=tuple(read), **marks)


# --- preprocess -------------------------------------------------------------

def preprocess_sample(sample: SampleData, cfg: RunConfig) -> tuple[SampleData, dict]:
    """Align + crop the video and denoise + crop + register the clouds."""
    lm0 = sample.landmarks2d[0]
    h, w = sample.video.height, sample.video.width
    canonical_left = (preprocess2d.CANONICAL_LEFT_EYE[0] * w,
                      preprocess2d.CANONICAL_LEFT_EYE[1] * h)
    canonical_right = (preprocess2d.CANONICAL_RIGHT_EYE[0] * w,
                       preprocess2d.CANONICAL_RIGHT_EYE[1] * h)
    transform = preprocess2d.estimate_alignment(
        lm0[preprocess2d.INNER_EYE_LEFT], lm0[preprocess2d.INNER_EYE_RIGHT],
        canonical_left, canonical_right)

    warped = preprocess2d.warp_volume(sample.video, transform)
    warped_marks = [transform.apply(m) for m in sample.landmarks2d]
    eyes0 = (warped_marks[0][preprocess2d.INNER_EYE_LEFT],
             warped_marks[0][preprocess2d.INNER_EYE_RIGHT])
    spine0 = warped_marks[0][preprocess2d.NASAL_SPINE]
    crop = preprocess2d.crop_face(warped, eyes0, spine0)
    top, left, _, _ = crop.rect
    shifted_marks = [m - np.array([left, top]) for m in warped_marks]

    cleaned = [preprocess3d.denoise(c, k=cfg.denoise_k, sigma_mult=cfg.denoise_sigma)
               for c in sample.clouds]
    tip = preprocess3d.find_nose_tip(cleaned[0], tip_at=cfg.tip_at)
    cropped = [preprocess3d.spherical_crop(c, tip, cfg.crop_radius) for c in cleaned]
    registered = preprocess3d.register_sequence(cropped, sample.landmarks3d)

    info = {
        "crop_rect": list(crop.rect),
        "crop_clamped": crop.clamped,
        "nose_tip": [float(v) for v in tip],
        "icp_residuals": [float(r) for r in registered.residuals],
        "icp_converged": list(registered.converged),
    }
    out = SampleData(
        video=crop.volume,
        clouds=registered.clouds,
        landmarks2d=tuple(shifted_marks),
        landmarks3d=registered.landmarks,
    )
    return out, info


def cmd_preprocess(cfg: RunConfig) -> int:
    root = Path(cfg.dataset_root)
    out_root = Path(cfg.out_dir) / "preprocessed"
    records = dataset.load_index(root / "index.csv")

    # Each sample is written as soon as it is processed, and the index and
    # manifest last: a run that stops halfway leaves a tree without them,
    # which extract refuses, not an old manifest over a mix of samples.
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "index.csv").unlink(missing_ok=True)
    (out_root / "manifest.json").unlink(missing_ok=True)
    statuses: dict[str, str] = {}
    details: dict[str, dict] = {}
    kept_records = []
    for record in records:
        key = f"{record.subject_id}/{record.sample_id}"
        try:
            sample = read_sample_tree(root, record)
            processed, info = preprocess_sample(sample, cfg)
        except (ValueError, OSError) as exc:
            statuses[key] = f"skipped: {exc}"
            continue
        write_sample_tree(out_root, record, processed)
        del sample, processed  # not alive while the next sample is read
        statuses[key] = "ok"
        details[key] = info
        kept_records.append(record)

    dataset.save_index(kept_records, out_root / "index.csv")
    manifest = {
        "config": cfg.to_dict(),
        "fingerprint": stage_fingerprint(cfg, "preprocess"),
        "samples": statuses,
        "details": details,
    }
    try:
        fileio.write_atomic(out_root / "manifest.json",
                            json.dumps(manifest, indent=2, sort_keys=True))
    except BaseException:
        (out_root / "index.csv").unlink(missing_ok=True)  # no index without its manifest
        raise
    n_failed = sum(1 for s in statuses.values() if s != "ok")
    if records and n_failed / len(records) > 0.1:
        return EXIT_PARTIAL
    return EXIT_OK


# --- extract ----------------------------------------------------------------

def extract_sample_feature(sample: SampleData, record: SampleRecord,
                           kind: str, cfg: RunConfig):
    """One sample's feature of the requested kind, from preprocessed data.

    ``sample`` needs only what the kind uses (see ``cloud_frames``): the 2d
    kind reads the video frames alone; a 3-d kind also reads both landmark
    sets and the clouds of its curvature frames (onset and apex, or onset to
    offset under ``curv.frames=all``), and the other clouds may be None. The
    3-d kinds keep each frame's curvature fit in ``<run.out>/cache/curvature/``,
    where every 3-d kind and sweep point with the same fit inputs reuses it.
    Curvature normals point toward the sensor: -z under ``clean.tip_at=min``
    (the nose tip is the smallest z), +z under ``max``.
    """
    if kind == "2d":
        return lbp_top_histogram(sample.video, cfg.lbp)
    window = preprocess2d.FrameVolume(sample.video.data[record.onset:])
    marks = sample.landmarks2d[record.onset][list(cfg.landmark_subset)]
    weights = mean_difference_weights(window, marks, cfg.weight_radius_px)
    if kind in ("3d-si", "3d-hk", "3d-sihk"):
        return curvature3d.sequence_feature(
            sample, record, weights, kind.removeprefix("3d-"), cfg.curvature,
            frames=cfg.curvature_frames, subset=cfg.landmark_subset,
            toward=(0.0, 0.0, -1.0 if cfg.tip_at == "min" else 1.0),
            store=Path(cfg.out_dir) / "cache" / "curvature")
    raise UsageError(f"unknown feature kind {kind!r}")


def load_preprocessed(cfg: RunConfig) -> tuple[Path, list[SampleRecord]]:
    """The preprocessed tree's root and its records. A tree whose manifest
    fingerprint is not the one ``cfg``'s ``preprocess`` keys give is a data
    error: features extracted from it would match no config. The message
    names the preprocess keys that differ and the keys that are gone."""
    pre_root = Path(cfg.out_dir) / "preprocessed"
    path = pre_root / "manifest.json"
    if not path.exists():
        raise DataError(f"missing {path}: run preprocess first")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        fingerprint = manifest["fingerprint"]
    except (ValueError, KeyError, TypeError):
        raise DataError(f"{path} records no fingerprint: run preprocess again") from None
    want = stage_fingerprint(cfg, "preprocess")
    if fingerprint != want:
        ours = cfg.to_dict()
        theirs = manifest.get("config")
        theirs = theirs if isinstance(theirs, dict) else {}
        changed = [f"{key}={theirs[key]}, not {ours[key]}"
                   for key, spec in CONFIG_KEYS.items()
                   if spec.stage == "preprocess" and key in theirs and theirs[key] != ours[key]]
        changed += [f"{key}={value} (no longer a key)" for key, value in theirs.items()
                    if key not in CONFIG_KEYS]
        raise DataError(f"{pre_root} was preprocessed under other preprocess keys than the "
                        f"config ({'; '.join(changed) or f'fingerprint {fingerprint}, not {want}'})"
                        "; run preprocess again with this config")
    index = pre_root / "index.csv"
    if not index.exists():
        raise DataError(f"missing {index}: run preprocess again")
    return pre_root, dataset.load_index(index)


def extract_samples(pre_root, records, kind: str, cfg: RunConfig):
    """``(record, feature)`` of each record in turn, its sample read with the
    files ``kind`` uses. A failure names ``extract <kind> <subject>/<sample>``:
    a SampleFileError for an OSError or an unreadable sample, else a DataError.
    A 3-d kind under curv.frames=all needs one onset-to-offset span, or its
    features would differ in length: a DataError before any sample is read."""
    if kind != "2d" and cfg.curvature_frames == "all":
        spans = {r.offset - r.onset: f"{r.subject_id}/{r.sample_id} (frames "
                                     f"{r.onset}..{r.offset})" for r in records}
        if len(spans) > 1:
            raise DataError(f"extract {kind}: {Path(pre_root) / 'index.csv'}: curv.frames=all "
                            "needs one onset-to-offset span in every sample, not "
                            f"{' and '.join(list(spans.values())[:2])}; use curv.frames=onset-apex")
    for record in records:
        where = f"extract {kind} {record.subject_id}/{record.sample_id}"
        try:
            sample = read_sample_tree(pre_root, record, cloud_frames(kind, cfg, record))
        except (ValueError, OSError) as exc:
            raise SampleFileError(f"{where}: {exc}") from exc
        try:
            feature = extract_sample_feature(sample, record, kind, cfg)
        except OSError as exc:
            raise SampleFileError(f"{where}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        yield record, feature


def cmd_extract(cfg: RunConfig, kind: str) -> int:
    if kind not in FEATURE_KINDS:
        raise UsageError(f"unknown feature kind {kind!r}; use one of {FEATURE_KINDS}")
    pre_root, records = load_preprocessed(cfg)
    fingerprint = feature_fingerprint(cfg, kind)
    out_dir = Path(cfg.out_dir) / "features" / kind
    # The kind's old files go first, and the files of a run that fails go
    # with it, so a failed run leaves none for eval.
    if out_dir.exists():
        shutil.rmtree(out_dir)
    try:
        for record, feature in extract_samples(pre_root, records, kind, cfg):
            d = out_dir / record.subject_id
            d.mkdir(parents=True, exist_ok=True)
            fileio.write_feature_csv(d / f"{record.sample_id}.csv",
                                     replace(feature, fingerprint=fingerprint))
    except BaseException:
        shutil.rmtree(out_dir, ignore_errors=True)
        raise
    return EXIT_OK


def _row_matrix(n: int, rows) -> np.ndarray:
    """The ``(n, d)`` float64 matrix of ``rows``, n ``(values, source)``
    pairs, filled one row at a time; ``d`` is the first row's length, and a
    row of another length is a DataError naming its source."""
    matrix = None
    for i, (values, source) in enumerate(rows):
        if matrix is None:
            matrix, first = np.empty((n, len(values))), source
        elif len(values) != matrix.shape[1]:
            raise DataError(f"{source}: {len(values)} feature values, but {first} has "
                            f"{matrix.shape[1]}")
        matrix[i] = values
    return np.empty((0, 0)) if matrix is None else matrix


def load_features(cfg: RunConfig, kind: str, records) -> np.ndarray:
    """The ``(n, d)`` matrix of the kind's feature files, one row per record
    in record order. A missing or damaged file, one whose tag or fingerprint
    differs from what ``cfg`` preprocesses and extracts, and one whose length
    is not the first file's are data errors."""
    want = ("2d-lbptop" if kind == "2d" else kind, feature_fingerprint(cfg, kind))

    def rows():
        for record in records:
            path = (Path(cfg.out_dir) / "features" / kind / record.subject_id
                    / f"{record.sample_id}.csv")
            if not path.exists():
                raise DataError(f"missing {kind} feature file {path}: run extract first")
            try:
                feature = fileio.read_feature_csv(path)
            except ValueError as exc:  # its message starts with the path
                raise DataError(f"damaged feature file {exc}: run extract again") from exc
            if (feature.tag, feature.fingerprint) != want:
                raise DataError(f"{path}: feature {feature.tag},{feature.fingerprint} does not "
                                f"match the config ({','.join(want)}); run extract again")
            yield feature.values, path

    return _row_matrix(len(records), rows())


# --- eval -------------------------------------------------------------------

def _labels_of(records, label_mode: str):
    if label_mode == "objective":
        return [r.objective_label.value for r in records]
    return [r.nonobjective_label.value for r in records]


def evaluate_features(cfg: RunConfig, records, features_by_kind, cv_cache: dict | None = None):
    """Per-kind and fused evaluation rows under the configured protocol.

    Returns (rows, details) where each row is a dict with keys radius,
    features, protocol, accuracy, f1.

    ``cv_cache``, a dict kept across calls (a fresh one by default), holds
    one ``learn.cross_val_runs`` dict of fitted folds per kind,
    ``feature_fingerprint(cfg, kind)`` and labels. A fold's out-of-fold block
    depends only on those and the fold's train and test indices, so a fold
    found there is not trained again, whatever protocol, seed or repeat
    count made it; the features of each kind must be those its fingerprint
    names.
    """
    cv_cache = {} if cv_cache is None else cv_cache
    labels = _labels_of(records, cfg.label_mode)
    if cfg.protocol == "loso":
        fold_runs = [learn.loso_split([r.subject_id for r in records])]
    else:
        fold_runs = learn.kfold_splits(labels, cfg.kfold_k, cfg.kfold_repeats, cfg.seed)

    def cross_validate(kind):
        fitted = cv_cache.setdefault((kind, feature_fingerprint(cfg, kind), tuple(labels)), {})
        return learn.cross_val_runs(features_by_kind[kind], labels, fold_runs, fitted=fitted)

    radius_str = repr(cfg.curvature.neighborhood_radius)
    proba_runs: dict[str, list] = {}
    rows = []
    details: dict = {"per_kind": {}, "label_mode": cfg.label_mode}

    def add_row(radius, features, result):
        rows.append({"radius": radius, "features": features, "protocol": cfg.protocol,
                     "accuracy": result.accuracy, "f1": result.f1})

    for kind in cfg.eval_features:
        proba_runs[kind], result = cross_validate(kind)
        add_row("-" if kind == "2d" else radius_str, kind, result)
        details["per_kind"][kind] = {"per_fold": result.per_fold, "accuracy": result.accuracy}

    fusion_grid = ((cfg.fusion_a,) if cfg.fusion_a is not None
                   else learn.FUSION_WEIGHTS if cfg.fusion_sweep else None)

    if fusion_grid and "2d" in cfg.eval_features:
        for kind in cfg.eval_features:
            if kind == "2d":
                continue
            best_a, result = learn.select_fusion_weight(proba_runs["2d"], proba_runs[kind],
                                                        labels, fusion_grid)
            add_row(radius_str, f"2d+{kind}", result)
            details.setdefault("fusion", {})[f"2d+{kind}"] = {"best_a": best_a,
                                                              "accuracy": result.accuracy}
    return rows, details


def _row_fields(row: dict) -> list[str]:
    return [row["radius"], row["features"], row["protocol"],
            f"{row['accuracy']:.4f}", f"{row['f1']:.4f}"]


def _csv_writer(fh):
    """Comma-separated rows ending in a newline; a field holding a comma is quoted."""
    return csv.writer(fh, lineterminator="\n")


def cmd_eval(cfg: RunConfig) -> int:
    _, records = load_preprocessed(cfg)
    # The old results go once the tree is accepted, so a run that fails
    # afterwards leaves none; each file is written whole or not at all.
    out = Path(cfg.out_dir)
    for name in ("results.csv", "eval_details.json"):
        (out / name).unlink(missing_ok=True)
    features_by_kind = {kind: load_features(cfg, kind, records)
                        for kind in cfg.eval_features}
    try:
        rows, details = evaluate_features(cfg, records, features_by_kind)
    except ValueError as exc:
        raise DataError(f"cannot evaluate {cfg.protocol}: {exc}") from exc

    details["fingerprints"] = {kind: feature_fingerprint(cfg, kind) for kind in cfg.eval_features}
    table = io.StringIO()
    _csv_writer(table).writerows([RESULTS_HEADER, *map(_row_fields, rows)])
    fileio.write_atomic(out / "results.csv", table.getvalue())
    fileio.write_atomic(out / "eval_details.json",
                        json.dumps(details, indent=2, sort_keys=True))
    return EXIT_OK


# --- sweep --------------------------------------------------------------------

def parse_grid(text: str) -> list[dict[str, str]]:
    """Grid file: ``key = v1 | v2 | ...`` lines; returns the cartesian product
    as a list of config-override dicts (sorted key order). A key with no
    values is a ValueError: it would empty the product."""
    axes = {key: [v.strip() for v in values.split("|") if v.strip()]
            for key, values in fileio.parse_config_text(text).items()}
    keys = sorted(axes)
    for key in keys:
        if not axes[key]:
            raise ValueError(f"{key} has no values")
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(axes[k] for k in keys))]
    return points if axes else []


def _resume_sweep(csv_path: Path, grid_keys: list[str]) -> tuple[str, set[tuple[str, ...]]]:
    """The text of ``csv_path``, its lines as they are, and the grid values of
    the points whose rows it holds; the file is written with its header alone
    when absent. ``cmd_sweep`` writes the file whole after each point, so one
    that does not end in a newline (an empty one too) was cut by an older
    version: a data error, and the file is left as it is."""
    header = grid_keys + RESULTS_HEADER
    if not csv_path.exists():
        table = io.StringIO()
        _csv_writer(table).writerow(header)
        fileio.write_atomic(csv_path, table.getvalue())
    try:
        text = csv_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{csv_path}: {exc}") from None
    if not text.endswith("\n"):
        raise DataError(f"{csv_path} does not end in a newline: an older sweep was cut "
                        "while writing it; delete it or use another run.out")
    lines = text.splitlines()
    rows = list(csv.reader(lines))
    if rows[0] != header:
        raise DataError(f"{csv_path} has header {lines[0]!r}, but this grid writes "
                        f"{','.join(header)!r}; use another run.out")
    return text, {tuple(row[:len(grid_keys)]) for row in rows[1:]}


def cmd_sweep(cfg: RunConfig, grid_path) -> int:
    grid_path = Path(grid_path)
    if not grid_path.exists():
        raise DataError(f"grid file not found: {grid_path}")
    try:
        points = parse_grid(grid_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"grid file {grid_path}: {exc}") from exc
    grid_keys = sorted(points[0]) if points else []
    for key in grid_keys:
        stage = CONFIG_KEYS[key].stage if key in CONFIG_KEYS else None
        if stage in ("synth", "preprocess", "run"):
            raise DataError(f"grid file {grid_path}: {key} is a {stage} key; "
                            "a sweep reuses the preprocessed tree")

    pre_root, records = load_preprocessed(cfg)
    csv_path = Path(cfg.out_dir) / "sweep.csv"
    text, done = _resume_sweep(csv_path, grid_keys)

    # Each distinct feature is extracted once: (kind, fingerprint) -> (n, d)
    # matrix; each distinct fold of a kind is fitted once, across protocols,
    # seeds and repeat counts (see evaluate_features).
    extracted: dict[tuple[str, str], np.ndarray] = {}
    cv_cache: dict = {}
    n_failed = 0
    # Written whole after each point: a killed sweep leaves finished points' rows.
    table = io.StringIO()
    table.write(text)
    writer = _csv_writer(table)
    for point in points:
        values = [point[k] for k in grid_keys]
        if tuple(values) in done:
            continue
        point_cfg = cfg  # the error row's protocol while the point's config is unparsed
        try:
            point_cfg = RunConfig.from_dict({**cfg.to_dict(), **point})
            features_by_kind = {}
            for kind in point_cfg.eval_features:
                key = (kind, feature_fingerprint(point_cfg, kind))
                if key not in extracted:
                    extracted[key] = _row_matrix(len(records), (
                        (feature.values, f"{kind} feature of {r.subject_id}/{r.sample_id}")
                        for r, feature in extract_samples(pre_root, records, kind,
                                                          point_cfg)))
                features_by_kind[kind] = extracted[key]
            rows = [_row_fields(row) for row in evaluate_features(
                point_cfg, records, features_by_kind, cv_cache=cv_cache)[0]]
        except SampleFileError:
            raise  # no row: a rerun starts again at this point
        except (ValueError, KeyError) as exc:
            n_failed += 1
            where = " ".join(f"{k}={point[k]}" for k in grid_keys)
            print(f"sweep point {where} failed: {exc}", file=sys.stderr)
            rows = [["-", "error", point_cfg.protocol, "nan", "nan"]]
        writer.writerows(values + row for row in rows)
        fileio.write_atomic(csv_path, table.getvalue())

    return EXIT_PARTIAL if n_failed else EXIT_OK


# --- synth / reliability --------------------------------------------------------

def cmd_synth(cfg: RunConfig) -> int:
    # One subject is generated and written at a time, and the index last: a
    # run that stops halfway leaves no index, which preprocess refuses, not
    # an index naming samples that were never written.
    root = Path(cfg.dataset_root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "index.csv").unlink(missing_ok=True)
    records = []
    for s in range(cfg.synth.n_subjects):
        subject_records, samples = make_dataset(cfg.synth, subject=s)
        for record, sample in zip(subject_records, samples):
            write_sample_tree(root, record, sample)
        del samples, sample  # not alive while the next subject is generated
        records += subject_records
    dataset.save_index(records, root / "index.csv")
    return EXIT_OK


def _reliability(aus1: str, aus2: str, where: str = "") -> float:
    try:
        return dataset.coder_reliability(dataset.parse_aus(aus1), dataset.parse_aus(aus2))
    except ValueError as exc:
        raise DataError(f"{where}{exc}") from exc


def cmd_reliability(coder1: str | None, coder2: str | None, pairs_path) -> int:
    if pairs_path is not None:
        try:
            lines = Path(pairs_path).read_bytes().decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{pairs_path}: {exc}") from None
        values = []
        for line_no, line in enumerate(lines, start=1):
            if not line.strip() or (line_no == 1 and line.startswith("sample")):
                continue
            where = f"{pairs_path}:{line_no}: "
            fields = [p.strip() for p in line.split(",", 2)]
            if len(fields) != 3:
                raise DataError(f"{where}expected 3 fields sample,coder1_aus,coder2_aus, "
                                f"got {line!r}")
            r = _reliability(fields[1], fields[2], where)
            values.append(r)
            print(f"{fields[0]}: {r:.4f}")
        if values:
            print(f"mean: {float(np.mean(values)):.4f}")
        return EXIT_OK
    if coder1 is None or coder2 is None:
        raise UsageError("reliability needs --coder1 and --coder2, or --pairs FILE")
    print(f"{_reliability(coder1, coder2):.4f}")
    return EXIT_OK


# --- entry point -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="microexp",
                     description="2D+3D micro-expression baseline pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, dest="run.seed", help="override run.seed")
        p.add_argument("--out", dest="run.out", help="override run.out output directory")
        p.add_argument("--root", dest="data.root", help="override data.root dataset root")

    for name in ("preprocess", "eval", "synth"):
        add_common(sub.add_parser(name))
    p_extract = sub.add_parser("extract")
    add_common(p_extract)
    p_extract.add_argument("--kind", required=True, choices=FEATURE_KINDS)
    p_sweep = sub.add_parser("sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--grid", required=True, help="grid file key=v1|v2 per line")
    p_rel = sub.add_parser("reliability")
    p_rel.add_argument("--coder1", help="AU set like 1+2")
    p_rel.add_argument("--coder2", help="AU set like 1+2+4")
    p_rel.add_argument("--pairs", help="CSV sample,coder1_aus,coder2_aus")
    return parser


def _load_cfg(args) -> RunConfig:
    """The --config file with the flag overrides (argparse dests are config keys)."""
    try:
        d = fileio.load_config(args.config) if args.config else {}
        d.update({key: str(value) for key, value in vars(args).items()
                  if key in CONFIG_KEYS and value is not None})
        return RunConfig.from_dict(d)
    except ValueError as exc:
        raise DataError(f"config: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "reliability":
            return cmd_reliability(args.coder1, args.coder2, args.pairs)
        cfg = _load_cfg(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "extract":
            return cmd_extract(cfg, args.kind)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.grid)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, IndexFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
