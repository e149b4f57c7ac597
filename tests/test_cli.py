import csv
import errno
import json
import os
import re
import shutil
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from microexp import cli, dataset, fileio, learn
from microexp.cli import (CONFIG_KEYS, EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE,
                          RunConfig, _build_parser, _load_cfg, cmd_eval, cmd_extract,
                          cmd_preprocess, cmd_synth, cmd_sweep, evaluate_features,
                          extract_sample_feature, feature_fingerprint, main, parse_grid,
                          preprocess_sample, read_sample_tree, stage_fingerprint)
from microexp.curvature3d import CurvatureConfig
from microexp.lbptop import LbpTopConfig
from microexp.synth import SynthSpec, make_dataset


def _pipeline_cfg(base_dir: Path, **overrides) -> RunConfig:
    defaults = dict(
        dataset_root=str(base_dir / "data"),
        out_dir=str(base_dir / "out"),
        lbp=LbpTopConfig(radii=(1, 1, 2), blocks=(2, 2)),
        synth=SynthSpec(n_subjects=3, samples_per_subject=4, n_classes=2,
                        signal="both", n_points=900, seed=3),
        eval_features=("2d", "3d-si"),
        protocol="loso",
        seed=3,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


# A value other than the default for every key but landmarks.subset.
NON_DEFAULT_VALUES = {
    "data.root": "d1",
    "data.label_mode": "nonobjective",
    "lbp.radii": "2,2,3",
    "lbp.neighbors": "4,8,16",
    "lbp.blocks": "3,4",
    "lbp.overlap": "2",
    "curv.radius": "0.025",
    "curv.zero_eps": "0.25",
    "curv.region_radius": "0.015",
    "curv.frames": "all",
    "weights.radius_px": "3",
    "fusion.sweep": "false",
    "fusion.a": "0.3",
    "eval.protocol": "kfold",
    "eval.k": "5",
    "eval.repeats": "2",
    "eval.features": "2d,3d-hk",
    "run.seed": "11",
    "run.out": "o1",
    "run.workers": "2",
    "clean.k": "6",
    "clean.sigma": "1.5",
    "clean.crop_radius": "0.08",
    "clean.tip_at": "max",
    "synth.subjects": "3",
    "synth.samples": "2",
    "synth.classes": "3",
    "synth.signal": "both",
    "synth.noise_2d": "1.5",
    "synth.noise_3d": "0.0005",
    "synth.points": "900",
    "synth.frames": "7",
}


def _count_extract_calls(monkeypatch) -> list:
    """Record the (kind, sample) of every later cli.extract_sample_feature call."""
    calls = []
    real = cli.extract_sample_feature

    def counted(sample, record, kind, cfg):
        calls.append((kind, record.sample_id))
        return real(sample, record, kind, cfg)

    monkeypatch.setattr(cli, "extract_sample_feature", counted)
    return calls


def _record_ply_reads(monkeypatch) -> list:
    """Record the path of every later fileio.read_ply call."""
    paths = []
    real = fileio.read_ply

    def recorded(path):
        paths.append(Path(path))
        return real(path)

    monkeypatch.setattr(fileio, "read_ply", recorded)
    return paths


def _disk_full(path, path2=None) -> OSError:
    """The OSError of a write that finds no space, naming ``path`` (and ``path2``)."""
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path), None,
                   None if path2 is None else str(path2))


_2D_ONLY = {"eval.features": "2d", "fusion.sweep": "false"}


def _copy_run(pipeline, tmp_path, parts=("preprocessed",), keys=None) -> tuple[Path, Path]:
    """``tmp_path/out`` holding a copy of ``parts`` of the pipeline's run.out,
    and ``tmp_path/run.cfg``, the pipeline's config for it with ``keys`` set."""
    out = tmp_path / "out"
    for part in parts:
        shutil.copytree(Path(pipeline.out_dir) / part, out / part)
    cfg_path = tmp_path / "run.cfg"
    fileio.save_config(cfg_path, {**replace(pipeline, out_dir=str(out)).to_dict(), **(keys or {})})
    return out, cfg_path


def _clouds_dir(root, record) -> Path:
    return Path(root) / record.subject_id / record.sample_id / "clouds"


def _onset_apex(record):
    return sorted({record.onset, record.apex})


def _onset_to_offset(record):
    return list(range(record.onset, record.offset + 1))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth + preprocess + extract, shared by the read-only CLI tests."""
    base = tmp_path_factory.mktemp("pipeline")
    cfg = _pipeline_cfg(base)
    assert cmd_synth(cfg) == EXIT_OK
    assert cmd_preprocess(cfg) == EXIT_OK
    assert cmd_extract(cfg, "2d") == EXIT_OK
    assert cmd_extract(cfg, "3d-si") == EXIT_OK
    return cfg


@pytest.fixture(scope="module")
def noisy_3d_pipeline(tmp_path_factory):
    """3-d class signal under 3 mm cloud noise: no row scores 1.0 and the
    fused row differs from both single-stream rows."""
    base = tmp_path_factory.mktemp("noisy_3d")
    cfg = _pipeline_cfg(base, seed=4, synth=SynthSpec(
        n_subjects=3, samples_per_subject=4, n_classes=2, signal="3d",
        noise_3d=0.003, n_points=900, seed=4))
    assert cmd_synth(cfg) == EXIT_OK
    assert cmd_preprocess(cfg) == EXIT_OK
    assert cmd_extract(cfg, "2d") == EXIT_OK
    assert cmd_extract(cfg, "3d-si") == EXIT_OK
    return cfg


@pytest.fixture(scope="module")
def one_subject(tmp_path_factory):
    """A preprocessed dataset with a single subject (4 samples, 2d features)."""
    base = tmp_path_factory.mktemp("one_subject")
    cfg = _pipeline_cfg(base, eval_features=("2d",), fusion_sweep=False, synth=SynthSpec(
        n_subjects=1, samples_per_subject=4, n_classes=2, signal="both",
        n_points=700, seed=3))
    assert cmd_synth(cfg) == EXIT_OK
    assert cmd_preprocess(cfg) == EXIT_OK
    assert cmd_extract(cfg, "2d") == EXIT_OK
    return cfg


class TestRunConfig:
    def test_file_round_trip_lossless(self, tmp_path):
        cfg = _pipeline_cfg(tmp_path, fusion_a=0.3, fusion_sweep=False,
                            protocol="kfold", kfold_k=5)
        path = tmp_path / "run.cfg"
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    def test_run_seed_is_the_synth_seed(self):
        cfg = RunConfig(seed=3, synth=SynthSpec(seed=5))
        assert cfg.synth == SynthSpec(seed=3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert replace(cfg, seed=9).synth.seed == 9

    def test_dict_round_trip_default(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_dict({"landmarks.subset": ""}) == cfg  # empty: default subset
        assert RunConfig.from_dict({"fusion.a": ""}) == cfg  # empty: no fixed fusion weight

    def test_default_config_text_pinned(self):
        # the "config" block of every preprocess manifest.json: every key,
        # an unset fusion.a written empty
        assert RunConfig().to_dict() == {
            "data.root": "data",
            "data.label_mode": "objective",
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
            "run.seed": "0",
            "run.out": "out",
            "run.workers": "1",
            "clean.k": "8",
            "clean.sigma": "2.0",
            "clean.crop_radius": "0.1",
            "clean.tip_at": "min",
            "landmarks.subset": "0,1,2,3,4,5,6,7,8,9,19,22,25,28,10,12,13,14,16,18,"
                                "31,33,35,37,39,41,43,44,45,46,47,48",
            "synth.subjects": "5",
            "synth.samples": "6",
            "synth.classes": "2",
            "synth.signal": "3d",
            "synth.noise_2d": "2.0",
            "synth.noise_3d": "0.0002",
            "synth.points": "1400",
            "synth.frames": "9",
            "fusion.a": "",
        }

    def test_every_key_round_trips(self):
        d = {**NON_DEFAULT_VALUES, "landmarks.subset": "3,1,4"}
        cfg = RunConfig(
            dataset_root="d1", label_mode="nonobjective",
            lbp=LbpTopConfig(radii=(2, 2, 3), neighbors=(4, 8, 16), blocks=(3, 4), overlap=2),
            curvature=CurvatureConfig(neighborhood_radius=0.025, zero_eps=0.25,
                                      landmark_region_radius=0.015),
            curvature_frames="all", weight_radius_px=3, fusion_a=0.3, fusion_sweep=False,
            protocol="kfold", kfold_k=5, kfold_repeats=2, eval_features=("2d", "3d-hk"),
            seed=11, out_dir="o1", workers=2, denoise_k=6, denoise_sigma=1.5,
            crop_radius=0.08, tip_at="max", landmark_subset=(3, 1, 4),
            synth=SynthSpec(n_subjects=3, samples_per_subject=2, n_classes=3, signal="both",
                            noise_2d=1.5, noise_3d=0.0005, n_points=900, n_frames=7, seed=11))
        default = RunConfig().to_dict()
        assert set(d) == set(CONFIG_KEYS)
        assert all(d[key] != default[key] for key in d)
        assert RunConfig.from_dict(d) == cfg
        assert fileio.format_config(cfg.to_dict()) == fileio.format_config(d)

    @pytest.mark.parametrize("key", [*NON_DEFAULT_VALUES, "landmarks.subset"])
    def test_fingerprints_follow_stages(self, key):
        value = {**NON_DEFAULT_VALUES, "landmarks.subset": "3,1,4"}[key]
        base = RunConfig()
        changed = RunConfig.from_dict({key: value, **({"fusion.sweep": "false"}
                                                      if key == "fusion.a" else {})})
        stage = CONFIG_KEYS[key].stage
        assert stage in cli.STAGES
        assert (stage_fingerprint(changed, "preprocess") !=
                stage_fingerprint(base, "preprocess")) == (stage == "preprocess")
        for kind, extract_stage in (("2d", "extract-2d"), ("3d-si", "extract-3d")):
            assert (feature_fingerprint(changed, kind, "0123456789ab") !=
                    feature_fingerprint(base, kind, "0123456789ab")) == (stage == extract_stage)

    def test_feature_fingerprint_hashes_manifest_fingerprint(self):
        cfg = RunConfig.from_dict({"landmarks.subset": "3,1,4"})
        assert re.fullmatch(r"[0-9a-f]{12}", feature_fingerprint(cfg, "3d-si"))
        for kind in ("2d", "3d-si"):
            assert feature_fingerprint(cfg, kind, "a") != feature_fingerprint(cfg, kind, "b")

    def test_unknown_keys_all_named(self):
        with pytest.raises(ValueError, match="unknown config keys: eval.protcol, synth.n_points"):
            RunConfig.from_dict({"synth.n_points": "800", "eval.k": "3", "eval.protcol": "loso"})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(label_mode="banana")
        with pytest.raises(ValueError):
            RunConfig(tip_at="mni")
        with pytest.raises(ValueError):
            RunConfig(protocol="bootstrap")
        with pytest.raises(ValueError):
            RunConfig(eval_features=("5d",))


class TestGrid:
    def test_cartesian_product_count(self):
        text = ("lbp.blocks=5,5|6,6|5,8|6,7|6,8|8,9\n"
                "lbp.overlap=0|5|10|15|20|25|30\n")
        points = parse_grid(text)
        assert len(points) == 42
        assert {p["lbp.overlap"] for p in points} == {"0", "5", "10", "15", "20", "25", "30"}

    def test_empty_grid(self):
        assert parse_grid("# nothing\n") == []

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("no equals here\n")


class TestSynthAndPreprocess:
    def test_sample_count_conserved(self, pipeline):
        manifest = json.loads(
            (Path(pipeline.out_dir) / "preprocessed" / "manifest.json").read_text())
        statuses = manifest["samples"]
        assert len(statuses) == 12
        assert all(s == "ok" for s in statuses.values())

    def test_preprocess_outputs_divisible_by_six(self, pipeline):
        pre = Path(pipeline.out_dir) / "preprocessed"
        vol = fileio.read_volume(next(pre.glob("*/*/frames")))
        assert vol.height % 6 == 0 and vol.width % 6 == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=5))
        cmd_synth(cfg)
        assert cmd_preprocess(cfg) == EXIT_OK
        pre = Path(cfg.out_dir) / "preprocessed"
        first = {p.relative_to(pre): p.read_bytes() for p in pre.rglob("*") if p.is_file()}
        assert cmd_preprocess(cfg) == EXIT_OK
        second = {p.relative_to(pre): p.read_bytes() for p in pre.rglob("*") if p.is_file()}
        assert first == second

    def test_workers_do_not_change_outputs(self, tmp_path):
        cfg1 = _pipeline_cfg(tmp_path / "w1", synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=8))
        cfg2 = _pipeline_cfg(tmp_path / "w2", workers=3, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=8))
        # Each 3-d kind runs on a cold curvature store in one out dir and on a
        # warm one in the other.
        for cfg, kinds in ((cfg1, ("2d", "3d-sihk", "3d-si")),
                           (cfg2, ("2d", "3d-si", "3d-sihk"))):
            cmd_synth(cfg)
            assert cmd_preprocess(cfg) == EXIT_OK
            for kind in kinds:
                assert cmd_extract(cfg, kind) == EXIT_OK
        rels = [p.relative_to(cfg1.out_dir)
                for p in Path(cfg1.out_dir).rglob("*.csv") if p.is_file()]
        assert {rel.parts[1] for rel in rels if rel.parts[0] == "features"} == \
            {"2d", "3d-si", "3d-sihk"}
        for rel in rels:
            assert (Path(cfg1.out_dir) / rel).read_bytes() == \
                (Path(cfg2.out_dir) / rel).read_bytes()
        stores = [sorted(p.name for p in (Path(cfg.out_dir) / "cache" / "curvature").iterdir())
                  for cfg in (cfg1, cfg2)]
        assert stores[0] == stores[1] and len(stores[0]) == 2 * 4  # onset, apex per sample

    def test_samples_run_serially_in_index_order(self, tmp_path, monkeypatch):
        cfg = _pipeline_cfg(tmp_path, workers=3, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=8))
        cmd_synth(cfg)
        order = [f"{r.subject_id}/{r.sample_id}"
                 for r in dataset.load_index(Path(cfg.dataset_root) / "index.csv")]
        read, calls = {}, []

        def read_recorder(root, record, *args, **kwargs):
            sample = read_sample_tree(root, record, *args, **kwargs)
            read[id(sample)] = f"{record.subject_id}/{record.sample_id}"
            return sample

        def preprocess_recorder(sample, run_cfg):
            calls.append((threading.get_ident(), read[id(sample)]))
            return preprocess_sample(sample, run_cfg)

        def extract_recorder(sample, record, kind, run_cfg):
            calls.append((threading.get_ident(), f"{record.subject_id}/{record.sample_id}"))
            return extract_sample_feature(sample, record, kind, run_cfg)

        monkeypatch.setattr(cli, "read_sample_tree", read_recorder)
        monkeypatch.setattr(cli, "preprocess_sample", preprocess_recorder)
        monkeypatch.setattr(cli, "extract_sample_feature", extract_recorder)
        here = threading.get_ident()
        assert cmd_preprocess(cfg) == EXIT_OK
        assert calls == [(here, key) for key in order]
        calls.clear()
        assert cmd_extract(cfg, "2d") == EXIT_OK
        assert calls == [(here, key) for key in order]

    def test_missing_landmarks_skipped_and_exit_code(self, tmp_path):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=3, n_points=700, signal="both", seed=6))
        cmd_synth(cfg)
        # break 2 of 6 samples (> 10%): drop their landmark files
        root = Path(cfg.dataset_root)
        (root / "01" / "1_1" / "landmarks2d.csv").unlink()
        (root / "02" / "2_2" / "landmarks3d.csv").unlink()
        assert cmd_preprocess(cfg) == EXIT_PARTIAL
        manifest = json.loads(
            (Path(cfg.out_dir) / "preprocessed" / "manifest.json").read_text())
        assert manifest["samples"]["01/1_1"].startswith("skipped")
        assert manifest["samples"]["02/2_2"].startswith("skipped")
        kept = [k for k, v in manifest["samples"].items() if v == "ok"]
        assert len(kept) == 4

    def test_short_landmark_rows_named_in_manifest(self, tmp_path):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=6))
        cfg_path = tmp_path / "run.cfg"
        cfg.to_file(cfg_path)
        assert main(["synth", "--config", str(cfg_path)]) == EXIT_OK
        # cut every row of one sample's 3-d landmarks to frame,idx,x,y
        lm3 = Path(cfg.dataset_root) / "02" / "2_1" / "landmarks3d.csv"
        header, *rows = lm3.read_text().splitlines()
        lm3.write_text("\n".join([header] + [",".join(r.split(",")[:4]) for r in rows]) + "\n")
        assert main(["preprocess", "--config", str(cfg_path)]) == EXIT_PARTIAL
        manifest = json.loads(
            (Path(cfg.out_dir) / "preprocessed" / "manifest.json").read_text())
        status = manifest["samples"]["02/2_1"]
        assert status.startswith(f"skipped: {lm3}:2: expected 5 fields")
        assert sum(s == "ok" for s in manifest["samples"].values()) == 3

    def test_clouds_read_by_frame_index(self, tmp_path):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=6))
        cfg_path = tmp_path / "run.cfg"
        cfg.to_file(cfg_path)
        assert main(["synth", "--config", str(cfg_path)]) == EXIT_OK
        root = Path(cfg.dataset_root)
        missing = root / "01" / "1_1" / "clouds" / "cloud_0003.ply"
        missing.unlink()
        stray = root / "01" / "1_2" / "clouds" / "cloud_0099.ply"
        shutil.copyfile(root / "01" / "1_2" / "clouds" / "cloud_0000.ply", stray)
        assert main(["preprocess", "--config", str(cfg_path)]) == EXIT_PARTIAL
        manifest = json.loads(
            (Path(cfg.out_dir) / "preprocessed" / "manifest.json").read_text())
        assert manifest["samples"] == {"01/1_1": f"skipped: missing cloud file: {missing}",
                                       "01/1_2": "ok", "02/2_1": "ok", "02/2_2": "ok"}

    def test_synth_tree_is_the_whole_dataset_written(self, tmp_path):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=3, samples_per_subject=2, n_points=700, signal="both", seed=6))
        assert cmd_synth(cfg) == EXIT_OK
        whole = tmp_path / "whole"
        records, samples = make_dataset(cfg.synth)
        for record, sample in zip(records, samples):
            cli.write_sample_tree(whole, record, sample)
        dataset.save_index(records, whole / "index.csv")

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        written = files(Path(cfg.dataset_root))
        assert len(written) == 1 + 6 * (2 * 9 + 2)  # index; per sample 9 frames, 9 clouds
        assert written == files(whole)

    @pytest.mark.parametrize("earlier_run", [False, True])
    def test_interrupted_synth_leaves_no_index(self, tmp_path, monkeypatch, capsys,
                                               earlier_run):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=6))
        index = Path(cfg.dataset_root) / "index.csv"
        cfg_path = tmp_path / "run.cfg"
        cfg.to_file(cfg_path)
        if earlier_run:
            assert cmd_synth(cfg) == EXIT_OK
            assert index.exists()
        real, calls = cli.write_sample_tree, []

        def fails_second(root, record, sample):
            calls.append(record.sample_id)
            if len(calls) == 2:
                raise _disk_full(cli.sample_dir(root, record))
            return real(root, record, sample)

        monkeypatch.setattr(cli, "write_sample_tree", fails_second)
        assert main(["synth", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count(f"{index.parent}/01/1_2") == 1
        assert calls == ["1_1", "1_2"]
        assert not index.exists()
        monkeypatch.undo()
        assert main(["preprocess", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(index) in err

    @pytest.mark.parametrize("earlier_run", [False, True])
    def test_failed_index_write_leaves_no_index(self, tmp_path, monkeypatch, capsys,
                                                earlier_run):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=6))
        cfg_path = tmp_path / "run.cfg"
        cfg.to_file(cfg_path)
        root = Path(cfg.dataset_root)
        if earlier_run:
            assert main(["synth", "--config", str(cfg_path)]) == EXIT_OK
            assert (root / "index.csv").exists()
        real = fileio.os.replace

        def fails_on_index(src, dst):
            if Path(dst).name == "index.csv":
                raise _disk_full(src, dst)
            return real(src, dst)

        monkeypatch.setattr(fileio.os, "replace", fails_on_index)
        assert main(["synth", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count(str(root / "index.csv")) == 1
        monkeypatch.undo()
        assert not [p.name for p in root.iterdir() if "index.csv" in p.name]
        assert main(["preprocess", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(root / "index.csv") in err

    def test_synth_memory_is_bounded_by_one_subject(self, tmp_path):
        spec = SynthSpec(n_subjects=4, samples_per_subject=2, n_points=700, signal="both",
                         seed=6)
        cfg = _pipeline_cfg(tmp_path, synth=spec)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cmd_synth(cfg) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        array_bytes = sum(
            s.video.data.nbytes + sum(c.points.nbytes for c in s.clouds)
            + sum(m.nbytes for m in s.landmarks2d + s.landmarks3d)
            for s in make_dataset(spec)[1])
        # Holding all four subjects peaked at 1.13x their arrays; one subject
        # at a time, at 0.36x.
        assert peak < 0.6 * array_bytes

    def test_interrupted_run_leaves_no_index_or_manifest(self, tmp_path, monkeypatch, capsys):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=6))
        cmd_synth(cfg)
        assert cmd_preprocess(cfg) == EXIT_OK
        pre = Path(cfg.out_dir) / "preprocessed"
        assert (pre / "manifest.json").exists() and (pre / "index.csv").exists()
        real, calls = cli.write_sample_tree, []

        def fails_second(*args):
            calls.append(args[1].sample_id)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(cli, "write_sample_tree", fails_second)
        with pytest.raises(OSError, match="disk full"):
            cmd_preprocess(cfg)
        assert calls == ["1_1", "1_2"]
        assert not (pre / "manifest.json").exists()
        assert not (pre / "index.csv").exists()
        cfg_path = tmp_path / "run.cfg"
        cfg.to_file(cfg_path)
        assert main(["extract", "--kind", "2d", "--config", str(cfg_path)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            f"data error: missing {pre / 'manifest.json'}: run preprocess first\n"

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=2, n_points=700, signal="both", seed=6))
        cmd_synth(cfg)
        assert cmd_preprocess(cfg) == EXIT_OK
        pre = Path(cfg.out_dir) / "preprocessed"
        whole = (pre / "manifest.json").read_bytes()
        real = Path.write_text

        def torn(self, text, *args, **kwargs):
            if not self.name.startswith(".manifest.json."):
                return real(self, text, *args, **kwargs)
            real(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", torn)
        with pytest.raises(OSError, match="no space left"):
            cmd_preprocess(cfg)
        assert not [p.name for p in pre.iterdir() if "manifest" in p.name]
        monkeypatch.undo()
        assert cmd_preprocess(cfg) == EXIT_OK
        assert (pre / "manifest.json").read_bytes() == whole


class TestExtract:
    def test_2d_reads_only_frames(self, pipeline, tmp_path, monkeypatch):
        pre = Path(pipeline.out_dir) / "preprocessed"
        shutil.copytree(pre, tmp_path / "preprocessed")

        def unused(*args, **kwargs):
            raise AssertionError("extract --kind 2d read a cloud or landmark file")

        monkeypatch.setattr(fileio, "read_ply", unused)
        monkeypatch.setattr(fileio, "read_landmarks", unused)
        assert cmd_extract(replace(pipeline, out_dir=str(tmp_path)), "2d") == EXIT_OK
        want = Path(pipeline.out_dir) / "features" / "2d"
        paths = sorted(want.rglob("*.csv"))
        assert len(paths) == 12
        for path in paths:
            assert (tmp_path / "features" / "2d" / path.relative_to(want)).read_bytes() == \
                path.read_bytes()

    @pytest.mark.parametrize("frames", ["onset-apex", "all"])
    def test_3d_reads_only_its_curvature_frames(self, pipeline, tmp_path, monkeypatch, frames):
        pre = tmp_path / "preprocessed"
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed", pre)
        cfg = replace(pipeline, out_dir=str(tmp_path), curvature_frames=frames,
                      landmark_subset=(0, 1, 2, 3))
        records = dataset.load_index(pre / "index.csv")
        reads = _record_ply_reads(monkeypatch)
        assert cmd_extract(cfg, "3d-si") == EXIT_OK
        used = {"onset-apex": lambda r: {r.onset, r.apex},
                "all": lambda r: set(range(r.onset, r.offset + 1))}[frames]
        assert reads == [fileio.cloud_path(_clouds_dir(pre, r), t)
                         for r in records for t in sorted(used(r))]
        # The same bytes as features computed from every cloud of each sample.
        for r in records:
            full = read_sample_tree(pre, r)
            assert None not in full.clouds
            feature = extract_sample_feature(full, r, "3d-si", cfg)
            want = tmp_path / "want.csv"
            fileio.write_feature_csv(want, replace(feature,
                                                   fingerprint=feature_fingerprint(cfg, "3d-si")))
            got = tmp_path / "features" / "3d-si" / r.subject_id / f"{r.sample_id}.csv"
            assert got.read_bytes() == want.read_bytes()

    def test_normals_follow_tip_at(self, pipeline, tmp_path):
        # A sample mirrored in z under clean.tip_at=max is the original under
        # min: its normals point toward the sensor, now along +z.
        pre = Path(pipeline.out_dir) / "preprocessed"
        record = dataset.load_index(pre / "index.csv")[0]
        sample = read_sample_tree(pre, record)
        flip = np.array([1.0, 1.0, -1.0])
        mirrored = replace(sample,
                           clouds=tuple(replace(c, points=c.points * flip) for c in sample.clouds),
                           landmarks3d=tuple(m * flip for m in sample.landmarks3d))
        cfg = replace(pipeline, out_dir=str(tmp_path))
        for kind in ("3d-si", "3d-hk", "3d-sihk"):
            want = extract_sample_feature(sample, record, kind, cfg).values
            got = extract_sample_feature(mirrored, record, kind, replace(cfg, tip_at="max"))
            assert np.array_equal(got.values, want)
            # Under min the mirrored sample's normals point away from the sensor.
            assert not np.array_equal(
                extract_sample_feature(mirrored, record, kind, cfg).values, want)

    def test_2d_feature_length(self, pipeline):
        path = next((Path(pipeline.out_dir) / "features" / "2d").glob("*/*.csv"))
        fv = fileio.read_feature_csv(path)
        assert len(fv) == 2 * 2 * 3 * 256
        assert fv.fingerprint == feature_fingerprint(pipeline, "2d")

    def test_3d_feature_length(self, pipeline):
        path = next((Path(pipeline.out_dir) / "features" / "3d-si").glob("*/*.csv"))
        fv = fileio.read_feature_csv(path)
        assert len(fv) == 576

    def test_sihk_concatenation_length(self, pipeline, tmp_path):
        cfg = replace(pipeline, out_dir=pipeline.out_dir)
        assert cmd_extract(cfg, "3d-sihk") == EXIT_OK
        si = next((Path(cfg.out_dir) / "features" / "3d-si").glob("*/*.csv"))
        both = next((Path(cfg.out_dir) / "features" / "3d-sihk").glob("*/*.csv"))
        assert len(fileio.read_feature_csv(both)) == 2 * len(fileio.read_feature_csv(si))

    def test_changed_radius_changes_fingerprint(self, pipeline):
        from microexp.curvature3d import CurvatureConfig
        a = feature_fingerprint(pipeline, "3d-si")
        b = feature_fingerprint(replace(pipeline, curvature=CurvatureConfig(
            neighborhood_radius=0.03)), "3d-si")
        assert a != b

    def test_failed_sample_named_and_old_features_removed(self, pipeline, tmp_path, capsys):
        # After a good 3d-si extract; regions of at most a vertex or two, so the
        # first sample's first landmark fails.
        out, cfg_path = _copy_run(pipeline, tmp_path, ("preprocessed", "features/3d-si"),
                                  {"curv.region_radius": "0.0001", "eval.features": "3d-si"})
        assert main(["extract", "--kind", "3d-si", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.match(r"data error: extract 3d-si 01/1_1: landmark 0 \(frame \d+\): "
                        r"landmark region at \[.*\] has \d points, need >= 10$", err)
        assert not (out / "features" / "3d-si").exists()
        assert main(["eval", "--config", str(cfg_path)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: missing 3d-si feature file {out}/features/3d-si/01/1_1.csv: "
            "run extract first\n")
        assert not (out / "results.csv").exists()

    def test_unknown_kind_rejected(self, pipeline):
        from microexp.cli import UsageError
        with pytest.raises(UsageError):
            cmd_extract(pipeline, "7d")


class _StubModel:
    def __init__(self, features, labels):
        self.classes = tuple(sorted(set(labels)))
        rows = [np.asarray(f.values if hasattr(f, "values") else f, dtype=np.float64)
                for f in features]
        self._n_features = rows[0].shape[0]
        self._known = {r.tobytes(): l for r, l in zip(rows, labels)}

    @property
    def n_features(self):
        return self._n_features

    def predict_proba_matrix(self, x):
        out = np.full((x.shape[0], len(self.classes)), 0.0)
        for i, row in enumerate(x):
            label = self._known.get(row.tobytes())
            if label is None:
                out[i] = 1.0 / len(self.classes)
            else:
                out[i, self.classes.index(label)] = 1.0
        return out


class TestEval:
    def test_results_csv_shape(self, pipeline):
        assert cmd_eval(pipeline) == EXIT_OK
        lines = (Path(pipeline.out_dir) / "results.csv").read_text().splitlines()
        assert lines[0] == "radius,features,protocol,accuracy,f1"
        features = [line.split(",")[1] for line in lines[1:]]
        assert features == ["2d", "3d-si", "2d+3d-si"]
        for line in lines[1:]:
            acc = float(line.split(",")[3])
            assert 0.0 <= acc <= 1.0

    def test_loso_fold_count(self, pipeline):
        cmd_eval(pipeline)
        details = json.loads((Path(pipeline.out_dir) / "eval_details.json").read_text())
        assert len(details["per_kind"]["2d"]["per_fold"]) == 3  # one per subject

    def test_perfect_stub_scores_one(self, pipeline, monkeypatch):
        from microexp.dataset import load_index

        pre = Path(pipeline.out_dir) / "preprocessed"
        records = load_index(pre / "index.csv")
        labels = [r.objective_label.value for r in records]

        # stub that memorizes the whole dataset: accuracy must be 1.0
        from microexp.cli import load_features, evaluate_features
        feats = {k: load_features(pipeline, k, records) for k in pipeline.eval_features}
        full_stub = _StubModel(feats["2d"], labels)
        monkeypatch.setattr(learn, "train", lambda f, l, rows: full_stub)

        cfg = replace(pipeline, eval_features=("2d",), fusion_sweep=False)
        rows, _ = evaluate_features(cfg, records, {"2d": feats["2d"]})
        assert rows[0]["accuracy"] == 1.0

    # Each key changes what preprocess or a 3-d extract writes, so features
    # extracted under the pipeline's config no longer describe it. A
    # preprocess key is refused at the tree, before any feature is read.
    @pytest.mark.parametrize("key, value, message", [
        ("weights.radius_px", "3", "does not match the config"),
        ("curv.frames", "all", "does not match the config"),
        ("landmarks.subset", "0,1,2,3", "does not match the config"),
        ("clean.k", "3", "(clean.k=8, not 3); run preprocess again with this config"),
    ], ids=["weights.radius_px", "curv.frames", "landmarks.subset", "clean.k"])
    def test_stale_features_refused(self, pipeline, tmp_path, capsys, key, value, message):
        out, cfg_path = _copy_run(pipeline, tmp_path, ("preprocessed", "features"), {key: value})
        assert main(["eval", "--config", str(cfg_path)]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_fingerprints_recorded(self, pipeline):
        manifest = json.loads(
            (Path(pipeline.out_dir) / "preprocessed" / "manifest.json").read_text())
        assert manifest["fingerprint"] == stage_fingerprint(pipeline, "preprocess")
        assert cmd_eval(pipeline) == EXIT_OK
        details = json.loads((Path(pipeline.out_dir) / "eval_details.json").read_text())
        assert details["fingerprints"] == {kind: feature_fingerprint(pipeline, kind)
                                           for kind in ("2d", "3d-si")}

    @pytest.mark.parametrize("fault", ["damaged_2d_file", "fusion.a=1.5"])
    def test_failed_eval_leaves_no_results(self, pipeline, tmp_path, capsys, fault):
        out, cfg_path = _copy_run(pipeline, tmp_path, ("preprocessed", "features"))
        config = fileio.load_config(cfg_path)
        assert main(["eval", "--config", str(cfg_path)]) == EXIT_OK
        assert (out / "results.csv").exists() and (out / "eval_details.json").exists()
        if fault == "damaged_2d_file":
            damaged = sorted((out / "features" / "2d").rglob("*.csv"))[0]
            damaged.write_text("2d-lbptop,abc\n")
            reason = f"damaged feature file {damaged}: not a feature CSV row"
        else:
            fileio.save_config(cfg_path, {**config, "eval.features": "2d,3d-si",
                                          "fusion.sweep": "false", "fusion.a": "1.5"})
            reason = "fusion weight must lie in [0, 1], got 1.5"
        assert main(["eval", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and reason in err
        assert not (out / "results.csv").exists()
        assert not (out / "eval_details.json").exists()

    @pytest.mark.parametrize("kind, source", [("3d-hk", "3d-si"), ("2d", "3d-si"),
                                              ("3d-si", "2d")])
    def test_features_of_another_kind_refused(self, pipeline, tmp_path, kind, source):
        from microexp.cli import DataError, load_features
        from microexp.dataset import load_index
        cfg = replace(pipeline, out_dir=str(tmp_path))
        shutil.copytree(Path(pipeline.out_dir) / "features" / source,
                        tmp_path / "features" / kind)
        records = load_index(Path(pipeline.out_dir) / "preprocessed" / "index.csv")
        with pytest.raises(DataError, match="does not match the config"):
            load_features(cfg, kind, records)

    def test_load_features_stacks_files_in_record_order(self, pipeline):
        from microexp.cli import load_features
        records = dataset.load_index(Path(pipeline.out_dir) / "preprocessed" / "index.csv")
        for kind in pipeline.eval_features:
            matrix = load_features(pipeline, kind, records)
            want = np.vstack([fileio.read_feature_csv(
                Path(pipeline.out_dir) / "features" / kind / r.subject_id / f"{r.sample_id}.csv"
            ).values for r in records])
            assert matrix.dtype == np.float64
            assert np.array_equal(matrix, want)

    def test_cross_validation_cache_reused_and_read_only(self, pipeline, monkeypatch):
        from microexp.cli import load_features
        records = dataset.load_index(Path(pipeline.out_dir) / "preprocessed" / "index.csv")
        cfg = replace(pipeline, protocol="kfold", kfold_k=3, kfold_repeats=2)
        features = {kind: load_features(cfg, kind, records) for kind in cfg.eval_features}
        labels = cli._labels_of(records, cfg.label_mode)

        def distinct_folds(seed):
            return {(tuple(train), tuple(test))
                    for run in learn.kfold_splits(labels, 3, 2, seed) for train, test in run}

        plain = evaluate_features(cfg, records, features)[0]
        cache = {}
        assert evaluate_features(cfg, records, features, cv_cache=cache)[0] == plain
        # One dict of fitted folds per kind, fingerprint and labels.
        assert [key[0] for key in cache] == ["2d", "3d-si"]
        for fitted in cache.values():
            assert set(fitted) == distinct_folds(cfg.seed)
            for block, _ in fitted.values():
                with pytest.raises(ValueError, match="read-only"):
                    block[0, 0] = 0.0

        trained = []
        real = learn.train

        def counted(x, labels, *args, rows=None, **kwargs):
            trained.append((x.shape[1], tuple(rows)))
            return real(x, labels, *args, rows=rows, **kwargs)

        monkeypatch.setattr(learn, "train", counted)
        assert evaluate_features(cfg, records, features, cv_cache=cache)[0] == plain
        assert trained == []
        # Another seed's plan trains only the folds not fitted yet.
        other = replace(cfg, seed=cfg.seed + 1)
        new = distinct_folds(other.seed) - distinct_folds(cfg.seed)
        assert new
        rows = evaluate_features(other, records, features, cv_cache=cache)[0]
        assert Counter(trained) == {(features[kind].shape[1], train): 1
                                    for kind in cfg.eval_features for train, _ in new}
        assert rows == evaluate_features(other, records, features)[0]

    def test_kfold_protocol_runs(self, pipeline):
        cfg = replace(pipeline, protocol="kfold", kfold_k=4, kfold_repeats=2,
                      eval_features=("2d",), fusion_sweep=False)
        assert cmd_eval(cfg) == EXIT_OK
        lines = (Path(cfg.out_dir) / "results.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "kfold"

    # Exact outputs on a fixed dataset: they pin fold construction, the
    # trained models and the run-averaged choice of the fusion weight.
    @pytest.mark.parametrize("protocol, results, best_a", [
        ("loso", ["-,2d,loso,0.5833,0.5556",
                  "0.02,3d-si,loso,0.5833,0.5804",
                  "0.02,2d+3d-si,loso,0.6667,0.6250"], 0.2),
        ("kfold", ["-,2d,kfold,0.3750,0.3576",
                   "0.02,3d-si,kfold,0.6667,0.6606",
                   "0.02,2d+3d-si,kfold,0.5625,0.5360"], 0.5),
    ])
    def test_outputs_pinned(self, noisy_3d_pipeline, protocol, results, best_a):
        cfg = replace(noisy_3d_pipeline, protocol=protocol, kfold_k=3, kfold_repeats=4)
        assert cmd_eval(cfg) == EXIT_OK
        out = Path(cfg.out_dir)
        assert (out / "results.csv").read_text() == \
            "\n".join(["radius,features,protocol,accuracy,f1"] + results) + "\n"
        details = json.loads((out / "eval_details.json").read_text())
        assert details["fusion"]["2d+3d-si"]["best_a"] == best_a


class TestSweep:
    def test_rows_ledger_and_resume(self, pipeline, tmp_path, monkeypatch):
        grid = tmp_path / "grid.txt"
        grid.write_text("lbp.overlap=0|1\nlbp.blocks=2,2|3,3\n", encoding="utf-8")
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"),
                      eval_features=("2d",), fusion_sweep=False)
        # reuse the preprocessed tree from the shared pipeline
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        assert cmd_sweep(cfg, grid) == EXIT_OK
        csv_lines = (Path(cfg.out_dir) / "sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "lbp.blocks,lbp.overlap,radius,features,protocol,accuracy,f1"
        assert len(csv_lines) == 1 + 4  # one row per grid point
        # resume: nothing new appended, nothing extracted
        written = (Path(cfg.out_dir) / "sweep.csv").read_bytes()
        calls = _count_extract_calls(monkeypatch)
        assert cmd_sweep(cfg, grid) == EXIT_OK
        assert (Path(cfg.out_dir) / "sweep.csv").read_bytes() == written
        assert calls == []

    def test_empty_grid_header_only(self, pipeline, tmp_path):
        grid = tmp_path / "empty.txt"
        grid.write_text("# no axes\n", encoding="utf-8")
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"))
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        assert cmd_sweep(cfg, grid) == EXIT_OK
        assert (Path(cfg.out_dir) / "sweep.csv").read_text() == \
            "radius,features,protocol,accuracy,f1\n"

    def test_failing_grid_point_recorded(self, pipeline, tmp_path, monkeypatch, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("lbp.radii=1,1,2|0,0,0\n", encoding="utf-8")  # second point invalid
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"),
                      eval_features=("2d",), fusion_sweep=False)
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        capsys.readouterr()
        assert cmd_sweep(cfg, grid) == EXIT_PARTIAL
        # one stderr line for the failed point: its grid values and why
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == ("sweep point lbp.radii=0,0,0 failed: "
                          "radii must be three integers >= 1, got (0, 0, 0)")
        lines = (Path(cfg.out_dir) / "sweep.csv").read_text().splitlines()
        # the point's config does not parse, so its row names the base protocol
        assert '"0,0,0",-,error,loso,nan,nan' in lines
        assert any(",2d," in line for line in lines)  # the good point still ran
        # both points recorded, no retry loop
        written = (Path(cfg.out_dir) / "sweep.csv").read_bytes()
        calls = _count_extract_calls(monkeypatch)
        assert cmd_sweep(cfg, grid) == EXIT_OK
        assert (Path(cfg.out_dir) / "sweep.csv").read_bytes() == written
        assert calls == []

    def test_error_row_names_the_points_protocol(self, one_subject, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("eval.k=2\neval.protocol=loso|kfold\n", encoding="utf-8")
        cfg = replace(one_subject, out_dir=str(tmp_path / "sweep_out"), protocol="kfold")
        shutil.copytree(Path(one_subject.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        assert cmd_sweep(cfg, grid) == EXIT_PARTIAL
        lines = (Path(cfg.out_dir) / "sweep.csv").read_text().splitlines()
        assert lines[1] == "2,loso,-,error,loso,nan,nan"  # LOSO needs 2 subjects
        assert lines[2].startswith("2,kfold,-,2d,kfold,")

    def test_misspelt_grid_key_gives_error_rows(self, pipeline, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("eval.protcol=loso|kfold\n", encoding="utf-8")
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"),
                      eval_features=("2d",), fusion_sweep=False)
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        assert cmd_sweep(cfg, grid) == EXIT_PARTIAL
        assert (Path(cfg.out_dir) / "sweep.csv").read_text().splitlines() == [
            "eval.protcol,radius,features,protocol,accuracy,f1",
            "loso,-,error,loso,nan,nan",
            "kfold,-,error,loso,nan,nan",
        ]

    def test_twelve_point_radii_grid(self, pipeline, tmp_path):
        grid = tmp_path / "radii.txt"
        radii = [f"{r},{r},{rt}" for r in (1, 2, 3, 4) for rt in (2, 3, 4)]
        grid.write_text("lbp.radii=" + "|".join(radii) + "\n", encoding="utf-8")
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"),
                      eval_features=("2d",), fusion_sweep=False)
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        assert cmd_sweep(cfg, grid) == EXIT_OK
        lines = (Path(cfg.out_dir) / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 12  # one row per radii grid point


    def test_each_distinct_feature_extracted_once(self, pipeline, tmp_path, monkeypatch):
        grid = tmp_path / "grid.txt"
        grid.write_text("eval.protocol=loso|kfold\ncurv.radius=0.02|0.025\n",
                        encoding="utf-8")
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"), kfold_k=3,
                      kfold_repeats=2)
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        calls = _count_extract_calls(monkeypatch)
        assert cmd_sweep(cfg, grid) == EXIT_OK
        # 12 samples x (one 2d feature + one 3d-si feature per radius)
        assert Counter(kind for kind, _ in calls) == {"2d": 12, "3d-si": 24}
        lines = (Path(cfg.out_dir) / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 3  # 2d, 3d-si and 2d+3d-si rows per point

    def test_each_kind_cross_validated_once_per_fold_plan(self, pipeline, tmp_path,
                                                          monkeypatch):
        trained = []
        real = learn.train

        def counted(features, labels, *args, **kwargs):
            trained.append(np.shape(features)[1])
            return real(features, labels, *args, **kwargs)

        monkeypatch.setattr(learn, "train", counted)
        cfg = replace(pipeline, kfold_k=3, kfold_repeats=2)
        records = dataset.load_index(Path(pipeline.out_dir) / "preprocessed" / "index.csv")
        labels = cli._labels_of(records, cfg.label_mode)
        dims = {"2d": 2 * 2 * 3 * 256, "3d-si": 32 * 2 * 9}
        # The second grid's repeats=1 plan is the first repeat of its repeats=2 plan.
        for name, text in [("protocol_radius", "eval.protocol=loso|kfold\n"
                                               "curv.radius=0.02|0.025\n"),
                           ("repeats", "eval.protocol=kfold\neval.repeats=1|2\n")]:
            grid = tmp_path / f"{name}.txt"
            grid.write_text(text, encoding="utf-8")
            out = tmp_path / name
            pre = out / "preprocessed"
            shutil.copytree(Path(pipeline.out_dir) / "preprocessed", pre)
            trained.clear()
            assert cmd_sweep(replace(cfg, out_dir=str(out)), grid) == EXIT_OK

            # Each kind trains each distinct fold of its feature once, whatever
            # plans the fold is in.
            points = parse_grid(grid.read_text(encoding="utf-8"))
            folds: dict = {}
            for point in points:
                point_cfg = RunConfig.from_dict({**cfg.to_dict(), **point})
                runs = ([learn.loso_split([r.subject_id for r in records])]
                        if point_cfg.protocol == "loso" else
                        learn.kfold_splits(labels, 3, point_cfg.kfold_repeats, cfg.seed))
                for kind in point_cfg.eval_features:
                    folds.setdefault((kind, feature_fingerprint(point_cfg, kind)), set()).update(
                        (tuple(train), tuple(test)) for run in runs for train, test in run)
            want_counts = Counter()
            for (kind, _), distinct in folds.items():
                want_counts[dims[kind]] += len(distinct)
            assert Counter(trained) == want_counts
            if name == "repeats":  # only the longer plan's folds
                longer = {(tuple(train), tuple(test))
                          for run in learn.kfold_splits(labels, 3, 2, cfg.seed)
                          for train, test in run}
                assert list(folds.values()) == [longer, longer]

            # The rows are those of a fresh evaluation of each point.
            keys = sorted(points[0])
            want = [",".join(keys + ["radius,features,protocol,accuracy,f1"])]
            for point in points:
                point_cfg = RunConfig.from_dict({**cfg.to_dict(), **point})
                features = {kind: [extract_sample_feature(read_sample_tree(pre, r),
                                                          r, kind, point_cfg) for r in records]
                            for kind in point_cfg.eval_features}
                rows, _ = evaluate_features(point_cfg, records, features)
                want += [",".join([point[k] for k in keys] + [
                    row["radius"], row["features"], row["protocol"], f"{row['accuracy']:.4f}",
                    f"{row['f1']:.4f}"]) for row in rows]
            assert (out / "sweep.csv").read_text().splitlines() == want
            if name == "repeats":  # eval writes the rows of the repeats=2 point
                eval_out, cfg_path = _copy_run(pipeline, tmp_path / "eval",
                                               ("preprocessed", "features"),
                                               {"eval.protocol": "kfold", "eval.k": "3",
                                                "eval.repeats": "2"})
                assert main(["eval", "--config", str(cfg_path)]) == EXIT_OK
                assert (eval_out / "results.csv").read_text().splitlines() == [
                    line.split(",", 2)[2] for line in want
                    if line.startswith(("eval.protocol,", "kfold,2,"))]

    @pytest.mark.parametrize("line, kinds, used", [
        ("curv.radius=0.02|0.025", ("2d", "3d-si"), [_onset_apex, _onset_apex]),
        ("curv.frames=onset-apex|all", ("3d-si",), [_onset_apex, _onset_to_offset]),
        ("lbp.overlap=0|1", ("2d",), []),
    ], ids=["radius", "frames", "2d-only"])
    def test_reads_each_cloud_its_points_use_once(self, pipeline, tmp_path, monkeypatch,
                                                  line, kinds, used):
        # Each distinct feature reads the clouds its kind uses, record by record.
        grid = tmp_path / "grid.txt"
        grid.write_text(line + "\n", encoding="utf-8")
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"), eval_features=kinds,
                      landmark_subset=(0, 1, 2, 3))
        pre = Path(cfg.out_dir) / "preprocessed"
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed", pre)
        reads = _record_ply_reads(monkeypatch)
        assert cmd_sweep(cfg, grid) == EXIT_OK
        assert reads == [fileio.cloud_path(_clouds_dir(pre, r), t) for frames in used
                         for r in dataset.load_index(pre / "index.csv") for t in frames(r)]

    def test_frames_all_with_unequal_spans_is_an_error_row(self, pipeline, tmp_path, capsys):
        out, cfg_path = _copy_run(pipeline, tmp_path)
        index = out / "preprocessed" / "index.csv"
        records = dataset.load_index(index)
        first, last = replace(records[0], offset=records[0].offset - 1), records[-1]
        dataset.save_index([first, *records[1:]], index)
        grid = tmp_path / "grid.txt"
        grid.write_text("curv.frames=onset-apex|all\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg_path), "--grid", str(grid)]) == EXIT_PARTIAL
        assert capsys.readouterr().err == (
            f"sweep point curv.frames=all failed: extract 3d-si: {index}: curv.frames=all needs "
            f"one onset-to-offset span in every sample, not 01/1_1 (frames {first.onset}.."
            f"{first.offset}) and {last.subject_id}/{last.sample_id} (frames {last.onset}.."
            f"{last.offset}); use curv.frames=onset-apex\n")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines] == [
            ["curv.frames", "radius", "features"], ["onset-apex", "-", "2d"],
            ["onset-apex", "0.02", "3d-si"], ["onset-apex", "0.02", "2d+3d-si"],
            ["all", "-", "error"]]

    def test_failing_extraction_names_the_sample(self, pipeline, tmp_path, capsys):
        out, cfg_path = _copy_run(pipeline, tmp_path)
        grid = tmp_path / "grid.txt"
        # Regions of at most a vertex or two: the first sample's first landmark fails.
        grid.write_text("curv.region_radius=0.02|0.0001\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg_path), "--grid", str(grid)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert re.match(r"sweep point curv.region_radius=0.0001 failed: extract 3d-si 01/1_1: "
                        r"landmark 0 \(frame \d+\): landmark region at \[.*\] has \d points, "
                        r"need >= 10$", err)
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines] == [
            ["curv.region_radius", "radius", "features"], ["0.02", "-", "2d"],
            ["0.02", "0.02", "3d-si"], ["0.02", "0.02", "2d+3d-si"],
            ["0.0001", "-", "error"]]

    def test_values_with_commas_quoted(self, pipeline, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("lbp.blocks=2,2|3,3\nlbp.radii=1,1,2\n", encoding="utf-8")
        cfg = replace(pipeline, out_dir=str(tmp_path / "sweep_out"),
                      eval_features=("2d",), fusion_sweep=False)
        shutil.copytree(Path(pipeline.out_dir) / "preprocessed",
                        Path(cfg.out_dir) / "preprocessed")
        assert cmd_sweep(cfg, grid) == EXIT_OK
        with (Path(cfg.out_dir) / "sweep.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lbp.blocks", "lbp.radii", "radius", "features", "protocol",
                           "accuracy", "f1"]
        assert [row[:4] for row in rows[1:]] == [["2,2", "1,1,2", "-", "2d"],
                                                 ["3,3", "1,1,2", "-", "2d"]]
        assert all(len(row) == len(rows[0]) for row in rows)


class TestMainEntry:
    def test_reliability_direct(self, capsys):
        assert main(["reliability", "--coder1", "1+2", "--coder2", "1+2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_reliability_pairs_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("sample,coder1,coder2\ns1,4,4+7\ns2,1+2,1+2\n")
        assert main(["reliability", "--pairs", str(pairs)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "s1: 0.6667" in out
        assert "mean: 0.8333" in out

    @pytest.mark.parametrize("pairs_text, reason", [
        (b"sample,coder1,coder2\ns1,4,4+7\ns2,1+2\n", ":3: expected 3 fields"),
        (b"s1,,\n", ":1: reliability is undefined when both coders scored no AUs"),
        (b"s1,1+x,1\n", ":1: bad action unit 'x'"),
        (b"sample,c1,c2\ns1,1+2,\xff\n", ": 'utf-8' codec can't decode byte 0xff in position 20: "
         "invalid start byte\n"),
    ], ids=["two-fields", "no-aus", "bad-au", "not-utf-8"])
    def test_reliability_bad_pairs_row_exit_data(self, tmp_path, capsys, pairs_text, reason):
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(pairs_text)
        assert main(["reliability", "--pairs", str(pairs)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {pairs}{reason}")

    def test_reliability_no_aus_exit_data(self, capsys):
        assert main(["reliability", "--coder1", "", "--coder2", ""]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "data error: reliability is undefined when both coders scored no AUs\n"

    def test_usage_error_exit_code(self, capsys):
        assert main(["reliability"]) == EXIT_USAGE
        assert main(["no-such-command"]) == EXIT_USAGE

    BAD_INDEXES = {
        "short row": (b"subject,sample,onset,apex,offset,aus,objective,nonobjective\n"
                      b"01,1_1,0,4,8,6+12,Happiness,Positive\n"
                      b"01,1_2,0,4,8,1+2,Surprise\n", "row 3: expected 8 columns, got 7"),
        "bad header": (b"x,y\n", "bad index header ['x', 'y']"),
        "empty": (b"", "index file is empty"),
        "not utf-8": (b"subject,sample\xff\n", "'utf-8' codec can't decode byte 0xff in "
                      "position 14: invalid start byte"),
    }

    @pytest.mark.parametrize("case", BAD_INDEXES)
    def test_malformed_data_index_named_once(self, tmp_path, capsys, case):
        text, reason = self.BAD_INDEXES[case]
        index = tmp_path / "data" / "index.csv"
        index.parent.mkdir()
        index.write_bytes(text)
        assert main(["preprocess", "--root", str(index.parent),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {index}: {reason}\n"

    @pytest.mark.parametrize("command", [["extract", "--kind", "2d"], ["eval"]])
    @pytest.mark.parametrize("case", BAD_INDEXES)
    def test_malformed_preprocessed_index_named_once(self, pipeline, tmp_path, capsys,
                                                     case, command):
        text, reason = self.BAD_INDEXES[case]
        out, cfg_path = _copy_run(pipeline, tmp_path)
        index = out / "preprocessed" / "index.csv"
        index.write_bytes(text)
        assert main([*command, "--config", str(cfg_path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {index}: {reason}\n"

    @pytest.mark.parametrize("overrides, reason", [
        ({"protocol": "loso"}, "LOSO needs at least 2 distinct subjects"),
        ({"protocol": "kfold", "kfold_k": 10}, "k=10 exceeds the sample count 4"),
    ])
    def test_eval_data_error_exit_code(self, one_subject, tmp_path, capsys,
                                       overrides, reason):
        cfg_path = tmp_path / "run.cfg"
        replace(one_subject, **overrides).to_file(cfg_path)
        assert main(["eval", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert reason in err

    def test_unknown_config_keys_exit_data(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        # Removed keys are refused: data.frame_rate changed no output, the
        # three markup indices are preprocess2d constants, and
        # landmarks.subset_file was a second spelling of landmarks.subset.
        removed = ("data.frame_rate", "landmarks.inner_eye_left", "landmarks.inner_eye_right",
                   "landmarks.nasal_spine", "landmarks.subset_file")
        cfg_path.write_text("synth.n_subjects=3\nsynth.samples_per_subject=2\n"
                            "synth.n_points=800\n" + "".join(f"{key}=1\n" for key in removed),
                            encoding="utf-8")
        assert main(["synth", "--config", str(cfg_path),
                     "--root", str(tmp_path / "data")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        for key in ("synth.n_subjects", "synth.samples_per_subject", "synth.n_points",
                    *removed):
            assert key in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("line, reason", [
        ("eval.k=ten", "eval.k='ten'"),
        ("eval.protocol=bootstrap", "protocol must be loso|kfold"),
        # Landmark indices address the 49-point markup: 0..48, no negatives.
        ("landmarks.subset=0,60", "landmarks.subset: landmark index 60 outside 0..48"),
        ("landmarks.subset=0,-1", "landmarks.subset: landmark index -1 outside 0..48"),
        # synth refuses a cloud without points and a negative or NaN noise;
        # noise 0 means none.
        ("synth.points=-5", "n_points must be at least 1, got -5"),
        ("synth.points=0", "n_points must be at least 1, got 0"),
        ("synth.noise_2d=-1.0", "noise_2d must be finite and >= 0, got -1.0"),
        ("synth.noise_3d=nan", "noise_3d must be finite and >= 0, got nan"),
        # The markup indices are preprocess2d constants now: a config that
        # still sets one is refused for the key, whatever its value.
        *(pytest.param(f"{key}={value}", f"unknown config keys: {key}", id=f"{key}={value}-{key}")
          for key, value in (("landmarks.inner_eye_left", 60),
                             ("landmarks.inner_eye_right", 49),
                             ("landmarks.nasal_spine", -3))),
    ])
    def test_bad_config_value_exit_data(self, tmp_path, capsys, line, reason):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(line + "\n", encoding="utf-8")
        assert main(["eval", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert reason in err
        assert not (tmp_path / "out").exists()

    def test_bad_tip_at_rejected_before_any_sample(self, pipeline, tmp_path, capsys):
        _, cfg_path = _copy_run(pipeline, tmp_path, (), {"clean.tip_at": "mni"})
        assert main(["preprocess", "--config", str(cfg_path)]) == EXIT_DATA
        assert "tip_at must be min|max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, reason", [
        ("clean.k", "0", "denoise_k must be at least 1"),
        ("clean.sigma", "0.0", "denoise_sigma must be positive"),
        ("clean.crop_radius", "-1.0", "crop_radius must be positive"),
    ], ids=["clean.k", "clean.sigma", "clean.crop_radius"])
    def test_bad_clean_value_rejected_before_any_sample(self, pipeline, tmp_path, capsys,
                                                        key, value, reason):
        _, cfg_path = _copy_run(pipeline, tmp_path, (), {key: value})
        assert main(["preprocess", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert reason in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys, command, reason", [
        ({"weights.radius_px": "0"}, ["extract", "--kind", "3d-si"],
         "weight_radius_px must be at least 1"),
        ({"run.workers": "0"}, ["preprocess"], "workers must be at least 1"),
        ({"eval.k": "1"}, ["eval"], "kfold_k must be at least 2"),
        ({"eval.repeats": "0"}, ["eval"], "kfold_repeats must be at least 1"),
        ({"eval.features": ""}, ["eval"], "eval_features names no feature kind"),
        ({"eval.features": "2d,2d"}, ["eval"], "eval_features names '2d' twice"),
        ({"fusion.a": "0.3"}, ["eval"], "fusion.a=0.3 is read only under fusion.sweep=false"),
        ({**_2D_ONLY, "eval.features": "3d-si", "fusion.a": "0.3"}, ["eval"],
         "fusion.a=0.3 is read only when eval.features names 2d and a 3-d kind"),
        ({**_2D_ONLY, "fusion.a": "0.3"}, ["eval"],
         "fusion.a=0.3 is read only when eval.features names 2d and a 3-d kind"),
    ], ids=["weights.radius_px", "run.workers", "eval.k", "eval.repeats",
            "eval.features-empty", "eval.features-repeated", "fusion.a",
            "fusion.a-without-2d", "fusion.a-without-3d"])
    def test_bad_run_value_rejected_before_any_work(self, pipeline, tmp_path, capsys,
                                                    keys, command, reason):
        _, cfg_path = _copy_run(pipeline, tmp_path, (), keys)
        assert main([*command, "--config", str(cfg_path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: config: {reason}")
        assert not (tmp_path / "out").exists()

    def test_bad_grid_line_exit_data(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("no equals here\n", encoding="utf-8")
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: grid file {grid}")

    @pytest.mark.parametrize("line", ["curv.radius=", "curv.radius=|"])
    def test_grid_axis_without_values_exit_data(self, tmp_path, capsys, line):
        grid = tmp_path / "grid.txt"
        grid.write_text(f"lbp.overlap=0|1\n{line}\n", encoding="utf-8")
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == \
            f"data error: grid file {grid}: curv.radius has no values\n"
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("line, stage", [
        ("clean.k=1|8", "preprocess"), ("synth.points=700|800", "synth"),
        ("run.workers=1|2", "run"),
    ], ids=["clean.k", "synth.points", "run.workers"])
    def test_sweep_refuses_keys_it_cannot_vary(self, pipeline, tmp_path, capsys, line, stage):
        out, cfg_path = _copy_run(pipeline, tmp_path)
        grid = tmp_path / "grid.txt"
        grid.write_text(f"lbp.overlap=0|1\n{line}\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg_path), "--grid", str(grid)]) == EXIT_DATA
        key = line.split("=")[0]
        assert capsys.readouterr().err == (f"data error: grid file {grid}: {key} is a {stage} "
                                           "key; a sweep reuses the preprocessed tree\n")
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("missing", ["preprocessed", "preprocessed/manifest.json"])
    def test_sweep_without_preprocessed_tree_writes_nothing(self, pipeline, tmp_path,
                                                            capsys, missing):
        out, cfg_path = _copy_run(pipeline, tmp_path, keys=_2D_ONLY)
        shutil.rmtree(out / missing) if missing == "preprocessed" else (out / missing).unlink()
        grid = tmp_path / "grid.txt"
        grid.write_text("lbp.overlap=0|1\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg_path), "--grid", str(grid)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error:")
        assert not (out / "sweep.csv").exists()

    def test_sweep_into_other_grids_csv_exit_data(self, pipeline, tmp_path, capsys,
                                                  monkeypatch):
        out, cfg_path = _copy_run(pipeline, tmp_path, keys=_2D_ONLY)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        first.write_text("lbp.overlap=0|1\n", encoding="utf-8")
        second.write_text("lbp.overlap=0\nlbp.blocks=2,2|3,3\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg_path), "--grid", str(first)]) == EXIT_OK
        written = {"sweep.csv": (out / "sweep.csv").read_bytes()}

        assert main(["sweep", "--config", str(cfg_path), "--grid", str(second)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {out / 'sweep.csv'} has header")
        assert "'lbp.overlap,radius,features,protocol,accuracy,f1'" in err
        assert "'lbp.blocks,lbp.overlap,radius,features,protocol,accuracy,f1'" in err
        assert {name: (out / name).read_bytes() for name in written} == written

        # Resuming the first grid still finds every point done.
        calls = _count_extract_calls(monkeypatch)
        assert main(["sweep", "--config", str(cfg_path), "--grid", str(first)]) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in written} == written
        assert calls == []

    def test_flags_override_config_keys(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        RunConfig(seed=1, workers=3, out_dir="a", dataset_root="b").to_file(cfg_path)
        parser = _build_parser()
        assert _load_cfg(parser.parse_args(["eval", "--config", str(cfg_path)])) == \
            RunConfig.from_file(cfg_path)
        args = parser.parse_args(["eval", "--config", str(cfg_path), "--seed", "7",
                                  "--out", "o", "--root", "r"])
        assert _load_cfg(args) == RunConfig(seed=7, workers=3, out_dir="o", dataset_root="r",
                                            synth=SynthSpec(seed=7))
        # run.workers has no flag: it changes nothing.
        assert main(["preprocess", "--config", str(cfg_path), "--workers", "2"]) == EXIT_USAGE

    def test_synth_writes_tree(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg = _pipeline_cfg(tmp_path, synth=SynthSpec(
            n_subjects=2, samples_per_subject=1, n_points=600, seed=4))
        cfg.to_file(cfg_path)
        assert main(["synth", "--config", str(cfg_path)]) == EXIT_OK
        root = Path(cfg.dataset_root)
        assert (root / "index.csv").exists()
        assert (root / "01" / "1_1" / "frames" / "frame_0000.pgm").exists()
        assert (root / "01" / "1_1" / "clouds" / "cloud_0000.ply").exists()
