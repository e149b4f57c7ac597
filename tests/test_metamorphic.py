"""Metamorphic relations of the whole pipeline, each run through ``main``: a
change to the input that must leave the outputs as they were, or move them by
no more than a stated bound. (Translating the raw 3-d data, or turning it
about the sensor axis, is ``test_cli.py::TestExtract::test_3d_features_invariant_to_pose``.)
"""

import shutil
from dataclasses import replace

import numpy as np
import pytest

from microexp import dataset, fileio
from microexp.cli import EXIT_OK, main

PROTOCOLS = ("loso", "kfold")
KINDS = ("2d", "3d-si")

# Noisy enough that no row scores 1.0, so a feature row that lands beside
# another sample's label changes the scores.
TREE_KEYS = {"synth.subjects": "3", "synth.samples": "4", "synth.points": "700",
             "synth.signal": "both", "synth.noise_2d": "60", "synth.noise_3d": "0.003",
             "lbp.radii": "1,1,2", "lbp.blocks": "2,2", "eval.features": ",".join(KINDS),
             "eval.k": "3", "eval.repeats": "4"}


def _evaluate(base, out, protocol) -> tuple[bytes, bytes]:
    """``results.csv`` and ``eval_details.json`` of ``eval`` on ``out``."""
    assert main(["eval", "--config", str(base / f"{protocol}.cfg"), "--out", str(out)]) == EXIT_OK
    return (out / "results.csv").read_bytes(), (out / "eval_details.json").read_bytes()


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """synth, preprocess and the 2d and 3d-si extracts of 3 subjects x 4
    samples, one config per protocol, and the outputs of ``eval`` under each."""
    base = tmp_path_factory.mktemp("metamorphic")
    keys = {**TREE_KEYS, "data.root": str(base / "data"), "run.out": str(base / "out")}
    for protocol in PROTOCOLS:
        fileio.save_config(base / f"{protocol}.cfg", {**keys, "eval.protocol": protocol})
    cfg = str(base / "loso.cfg")
    assert main(["synth", "--config", cfg]) == EXIT_OK
    assert main(["preprocess", "--config", cfg]) == EXIT_OK
    for kind in KINDS:
        assert main(["extract", "--kind", kind, "--config", cfg]) == EXIT_OK
    outputs = {protocol: _evaluate(base, base / "out", protocol) for protocol in PROTOCOLS}
    return base, outputs


def _rewrite(base, out, order, rename=lambda subject, sample: (subject, sample)):
    """Into ``out``: the tree's index rows in ``order``, each sample renamed
    by ``rename`` in its row, its preprocessed directory and its feature files."""
    src = base / "out"
    records = dataset.load_index(src / "preprocessed" / "index.csv")
    (out / "preprocessed").mkdir(parents=True)
    shutil.copy(src / "preprocessed" / "manifest.json", out / "preprocessed")
    rows = []
    for i in order:
        old = records[i]
        subject, sample = rename(old.subject_id, old.sample_id)
        new = replace(old, subject_id=subject, sample_id=sample)
        shutil.copytree(src / "preprocessed" / old.subject_id / old.sample_id,
                        out / "preprocessed" / new.subject_id / new.sample_id)
        for kind in KINDS:
            features = out / "features" / kind / new.subject_id
            features.mkdir(parents=True, exist_ok=True)
            shutil.copy(src / "features" / kind / old.subject_id / f"{old.sample_id}.csv",
                        features / f"{new.sample_id}.csv")
        rows.append(new)
    dataset.save_index(rows, out / "preprocessed" / "index.csv")


def _keep_class_order(order, labels) -> list[int]:
    """``order`` with each class's rows put back in increasing index: a
    class's slots stay where ``order`` put them."""
    kept = list(order)
    for label in set(labels):
        slots = [k for k, i in enumerate(order) if labels[i] == label]
        for k, i in zip(slots, sorted(order[k] for k in slots)):
            kept[k] = i
    return kept


class TestIndexRelations:
    def test_shuffled_rows_loso(self, tree, tmp_path):
        # The folds are the subjects, whatever the row order, and each fold's
        # model is the exact optimum of its rows.
        base, outputs = tree
        order = np.random.default_rng(0).permutation(12).tolist()
        _rewrite(base, tmp_path / "out", order)
        assert _evaluate(base, tmp_path / "out", "loso") == outputs["loso"]

    def test_shuffled_rows_kfold(self, tree, tmp_path):
        # Stratified k-fold deals each class's rows to the folds in row order,
        # so a shuffle that keeps every class's rows in their order draws the
        # same folds; any other shuffle draws others.
        base, outputs = tree
        labels = [r.objective_label for r in
                  dataset.load_index(base / "out" / "preprocessed" / "index.csv")]
        order = _keep_class_order(np.random.default_rng(0).permutation(12).tolist(), labels)
        assert order != sorted(order)
        _rewrite(base, tmp_path / "out", order)
        assert _evaluate(base, tmp_path / "out", "kfold")[0] == outputs["kfold"][0]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_renamed_subjects_and_samples(self, tree, tmp_path, protocol):
        # The sorted order of the subjects reverses, and each subject's first
        # two samples swap places in it. LOSO meets the subjects in another
        # order, and eval_details.json lists the folds in that order.
        base, outputs = tree
        subjects = {"01": "zulu", "02": "yankee", "03": "xray"}
        takes = {"1": "bravo", "2": "alpha", "3": "charlie", "4": "delta"}

        def rename(subject, sample):
            return subjects[subject], f"{subjects[subject]}-{takes[sample.split('_')[1]]}"

        _rewrite(base, tmp_path / "out", range(12), rename)
        assert _evaluate(base, tmp_path / "out", protocol)[0] == outputs[protocol][0]


# The largest measured on this tree is 0.0396 (a 3d-si file, 15 degrees
# about +x). 20 degrees about +x moves a 3d-si file by 0.25.
TILT_L1_BOUND = 0.05


def _rotation(axis, degrees) -> np.ndarray:
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
    return {"x": np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]),
            "y": np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])}[axis]


def _posed_features(base, name, rotation) -> dict:
    """The 3d-si and 3d-hk features, by path, of the tree at ``base / "data"``
    with every raw cloud and 3-d landmark turned by ``rotation``."""
    data, out = base / name / "data", base / name / "out"
    shutil.copytree(base / "data", data)
    for path in data.rglob("cloud_*.ply"):
        cloud = fileio.read_ply(path)
        fileio.write_ply(path, replace(cloud, points=cloud.points @ rotation.T))
    for path in data.rglob("landmarks3d.csv"):
        marks = fileio.read_landmarks(path, dims=3)
        fileio.write_landmarks(path, [m @ rotation.T for m in marks], dims=3)
    argv = ["--config", str(base / "run.cfg"), "--root", str(data), "--out", str(out)]
    assert main(["preprocess", *argv]) == EXIT_OK
    for kind in ("3d-si", "3d-hk"):
        assert main(["extract", "--kind", kind, *argv]) == EXIT_OK
    return {p.relative_to(out): fileio.read_feature_csv(p)
            for p in (out / "features").rglob("*.csv")}


@pytest.fixture(scope="module")
def upright(tmp_path_factory):
    """A 2 x 2 sample tree as synth wrote it, and its 3d-si and 3d-hk features."""
    base = tmp_path_factory.mktemp("tilt")
    fileio.save_config(base / "run.cfg", {"synth.subjects": "2", "synth.samples": "2",
                                          "synth.points": "700"})
    assert main(["synth", "--config", str(base / "run.cfg"), "--root", str(base / "data")]) \
        == EXIT_OK
    return base, _posed_features(base, "upright", np.eye(3))


@pytest.mark.parametrize("axis, degrees", [pytest.param(axis, degrees, id=f"{axis}{degrees:+d}")
                                            for axis in "xy" for degrees in (-15, 15)])
def test_tilt_moves_3d_features_by_a_bounded_l1_fraction(upright, axis, degrees):
    # A tilt shows the sensor another side of the face, so unlike a turn about
    # z it may move a region's vertices across bins, but only a few of them.
    base, want = upright
    got = _posed_features(base, f"{axis}{degrees:+d}", _rotation(axis, degrees))
    assert len(want) == 8 and got.keys() == want.keys()
    for path, feature in want.items():
        assert got[path].fingerprint == feature.fingerprint
        moved = np.abs(got[path].values - feature.values).sum() / np.abs(feature.values).sum()
        assert moved <= TILT_L1_BOUND, path
