"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.spatial import cKDTree

from microexp.curvature3d import (CurvatureConfig, DEFAULT_LANDMARK_SUBSET, SurfaceType,
                                  hk_classify, principal_curvatures, quantize_si,
                                  sequence_feature, shape_index)
from microexp.dataset import (NonObjectiveClass, ObjectiveClass, SampleRecord,
                              coder_reliability)
from microexp.learn import (cross_val_proba, cross_val_runs, fuse, kfold_splits,
                            loso_split, metrics, select_fusion_weight)
from microexp.lbptop import LbpTopConfig, lbp_top_histogram, mean_difference_weights
from microexp.preprocess2d import FrameVolume
from microexp.preprocess3d import PointCloudFrame, RigidTransform, icp_align
from microexp.synth import SynthSpec, make_dataset

from .oracles import lbp_top_reference
from .surfaces import _random_rotation, make_surface

TOWARD = np.array([0.0, 0.0, -1.0])


@contextmanager
def criterion(number, name, budget_s):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    elapsed = time.time() - start
    print(f"[PASS] criterion {number}: {name} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


RADII_GRID = [(1, 1, 2), (1, 1, 3), (1, 1, 4),
              (2, 2, 2), (2, 2, 3), (2, 2, 4),
              (3, 3, 2), (3, 3, 3), (3, 3, 4),
              (4, 4, 2), (4, 4, 3), (4, 4, 4)]


def test_c01_lbp_oracle_equivalence():
    with criterion(1, "LBP-TOP equals the brute-force oracle bin-for-bin", 30):
        rng = np.random.default_rng(2024)
        for i in range(20):
            volume = rng.integers(0, 256, size=(16, 32, 32), dtype=np.uint8)
            radii = RADII_GRID[i % len(RADII_GRID)]
            blocks = (2, 2) if i % 2 == 0 else (5, 5)
            cfg = LbpTopConfig(radii=radii, neighbors=(8, 8, 8), blocks=blocks, overlap=0)
            fast = lbp_top_histogram(FrameVolume(volume), cfg).values
            slow = np.array(lbp_top_reference(volume, radii, (8, 8, 8), blocks, 0))
            assert np.array_equal(fast, slow), f"mismatch at radii={radii} blocks={blocks}"


def _estimate_batch(cloud, indices, radius):
    p_min, p_max, valid = principal_curvatures(cloud.points, cKDTree(cloud.points), indices,
                                               radius, TOWARD)
    assert valid.all()
    return np.column_stack([p_min, p_max])


def test_c02_curvature_oracle_accuracy():
    with criterion(2, "curvature estimates match analytic sphere/plane/cylinder", 60):
        rng = np.random.default_rng(7)

        sphere = make_surface("sphere", {"radius": 0.05, "cap_deg": 150},
                              n_points=5000, seed=1)
        idx = rng.choice(len(sphere.cloud), 300, replace=False)
        est = _estimate_batch(sphere.cloud, idx, 0.01)
        h = est.mean(axis=1)
        k = est[:, 0] * est[:, 1]
        assert np.median(np.abs(np.abs(h) - 20.0) / 20.0) <= 0.10
        assert np.median(np.abs(k - 400.0) / 400.0) <= 0.20

        plane = make_surface("plane", n_points=5000, seed=2)
        idx = rng.choice(len(plane.cloud), 300, replace=False)
        est = _estimate_batch(plane.cloud, idx, 0.012)
        assert np.median(np.abs(est.mean(axis=1))) <= 0.5

        cyl = make_surface("cylinder", {"radius": 0.05}, n_points=5000, seed=3)
        idx = rng.choice(len(cyl.cloud), 300, replace=False)
        est = _estimate_batch(cyl.cloud, idx, 0.01)
        mags = np.sort(np.abs(est), axis=1)
        assert np.median(mags[:, 0]) <= 0.5
        assert np.median(np.abs(mags[:, 1] - 20.0) / 20.0) <= 0.10


def test_c03_rotation_invariance():
    with criterion(3, "principal curvatures invariant under rigid rotation", 60):
        sphere = make_surface("sphere", {"radius": 0.05, "cap_deg": 150},
                              n_points=5000, seed=1)
        rng = np.random.default_rng(11)
        idx = rng.choice(len(sphere.cloud), 100, replace=False)
        base = np.sort(np.abs(_estimate_batch(sphere.cloud, idx, 0.01)), axis=1)
        changes = []
        for trial in range(10):
            rot = _random_rotation(np.random.default_rng(100 + trial))
            rotated = PointCloudFrame(sphere.cloud.points @ rot.T)
            est = np.sort(np.abs(_estimate_batch(rotated, idx, 0.01)), axis=1)
            changes.append(np.abs(est - base) / np.abs(base))
        assert np.median(np.concatenate(changes)) <= 0.01


def test_c04_hk_table_exhaustive():
    with criterion(4, "HK classification covers the full sign grid", 10):
        eps = 0.5
        expected = {(1, 1): SurfaceType.PEAK, (0, 1): SurfaceType.RIDGE,
                    (-1, 1): SurfaceType.SADDLE_RIDGE, (1, 0): SurfaceType.UNDEFINED,
                    (0, 0): SurfaceType.FLAT, (-1, 0): SurfaceType.MINIMAL_SURFACE,
                    (1, -1): SurfaceType.PIT, (0, -1): SurfaceType.VALLEY,
                    (-1, -1): SurfaceType.SADDLE_VALLEY}
        sk, sh = np.array(list(expected), dtype=np.float64).T
        got = [SurfaceType(b) for b in hk_classify(2.0 * sk, 2.0 * sh, eps)]
        assert got == list(expected.values())
        assert set(got) == set(SurfaceType)


def test_c05_shape_index_spot_values():
    with criterion(5, "shape-index spot values and quantization bins", 10):
        si = shape_index(np.array([-1.0, 0.0, -1.0]), np.array([1.0, 1.0, 0.0]))
        assert np.all(np.abs(si - [0.5, 0.25, 0.75]) <= 1e-12)
        assert quantize_si(np.arange(9) / 8).tolist() == list(range(9))


def test_c06_fusion_contract():
    with criterion(6, "fusion endpoints exact and simplex preserved", 10):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v1 = rng.uniform(0.01, 1.0, 3)
            v2 = rng.uniform(0.01, 1.0, 3)
            p1 = (v1 / v1.sum())[None, :]  # one sample, three classes
            p2 = (v2 / v2.sum())[None, :]
            assert np.array_equal(fuse(p1, p2, 0.0), p1)
            assert np.array_equal(fuse(p1, p2, 1.0), p2)
            for a in (0.1, 0.2, 0.3, 0.4, 0.5):
                fused = fuse(p1, p2, a)
                assert abs(fused.sum() - 1.0) <= 1e-9
                assert np.all(fused >= -1e-12)


def test_c07_reliability_arithmetic():
    with criterion(7, "coder reliability spot values", 10):
        assert coder_reliability({1, 2}, {1, 2}) == 1.0
        assert coder_reliability({4}, {4, 7}) == 2 / 3
        assert coder_reliability({4}, {9}) == 0.0


def test_c08_cv_hygiene():
    with criterion(8, "LOSO partition hygiene and k-fold reproducibility", 10):
        # 22-subject synthetic index, 2-3 samples each
        records = []
        rng = np.random.default_rng(3)
        for s in range(22):
            for i in range(2 + s % 2):
                records.append(SampleRecord(
                    subject_id=f"{s + 1:02d}", sample_id=f"{s + 1}_{i + 1}",
                    onset=0, apex=2, offset=5,
                    aus=frozenset({6, 12}) if i % 2 else frozenset({4}),
                    objective_label=ObjectiveClass.HAPPINESS if i % 2 else ObjectiveClass.ANGER,
                    nonobjective_label=NonObjectiveClass.POSITIVE if i % 2
                    else NonObjectiveClass.NEGATIVE))
        folds = loso_split(records)
        assert len(folds) == 22
        subjects = [r.subject_id for r in records]
        seen = []
        for train_idx, test_idx in folds:
            assert not {subjects[i] for i in train_idx} & {subjects[i] for i in test_idx}
            seen.extend(test_idx)
        assert sorted(seen) == list(range(len(records)))

        x = rng.standard_normal((40, 6)) + 3.0 * np.repeat([0, 1], 20)[:, None]
        y = ["a"] * 20 + ["b"] * 20
        r1 = cross_val_runs(x, y, kfold_splits(y, k=10, repeats=10, seed=42))[1]
        r2 = cross_val_runs(x, y, kfold_splits(y, k=10, repeats=10, seed=42))[1]
        assert r1.accuracy == r2.accuracy and r1.f1 == r2.f1
        assert r1.per_fold == r2.per_fold
        assert np.array_equal(r1.confusion, r2.confusion)


def test_c09_end_to_end_fusion_improvement():
    with criterion(9, "fusing 3-d features beats 2-d-only by >= 5 points (LOSO)", 300):
        spec = SynthSpec(n_subjects=5, samples_per_subject=6, n_classes=2,
                         signal="3d", seed=7)
        records, samples = make_dataset(spec)
        lbp_cfg = LbpTopConfig(radii=(1, 1, 2), blocks=(2, 2))
        curv_cfg = CurvatureConfig()

        f2d, f3d = [], []
        for record, sample in zip(records, samples):
            f2d.append(lbp_top_histogram(sample.video, lbp_cfg))
            marks = sample.landmarks2d[record.onset][list(DEFAULT_LANDMARK_SUBSET)]
            weights = mean_difference_weights(sample.video, marks, 4)
            f3d.append(sequence_feature(sample, record, weights, "si", curv_cfg))

        labels = [r.objective_label.value for r in records]
        folds = loso_split([r.subject_id for r in records])
        p2d, _ = cross_val_proba(f2d, labels, folds)
        p3d, _ = cross_val_proba(f3d, labels, folds)

        classes = np.array(sorted(set(labels)))
        acc_2d_only = metrics(classes[p2d.argmax(1)], labels).accuracy
        acc_3d_only = metrics(classes[p3d.argmax(1)], labels).accuracy
        best_a, best = select_fusion_weight([p2d], [p3d], labels)
        print(f"    2d-only={acc_2d_only:.3f} 3d-only={acc_3d_only:.3f} "
              f"fused(a={best_a})={best.accuracy:.3f}")
        assert acc_3d_only > 0.5  # the 3-d stream carries the class signal
        assert best.accuracy - acc_2d_only >= 0.05


def test_c10_metrics_hand_example():
    with criterion(10, "metrics match the hand-computed confusion example", 10):
        result = metrics(["A", "B", "B", "B"], ["A", "A", "B", "B"])
        assert abs(result.accuracy - 0.75) <= 1e-4
        assert abs(result.f1 - 0.7333) <= 1e-4


def test_c11_icp_recovery():
    with criterion(11, "ICP recovers a known rigid transform", 30):
        moving = make_surface("face_proxy", n_points=1500, seed=11).cloud
        rng = np.random.default_rng(17)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = math.radians(12.0)  # within the 15 degree bound
        k = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
        trans = np.array([0.006, -0.004, 0.008])  # within 10 mm
        fixed = RigidTransform(rot, trans).apply_cloud(moving)

        result = icp_align(moving, fixed, max_iter=300, tol=1e-12)
        delta = result.transform.rotation @ rot.T
        angle_err = math.acos(min(1.0, (np.trace(delta) - 1) / 2))
        trans_err = np.linalg.norm(result.transform.translation - trans)
        print(f"    angle_err={angle_err:.2e} rad, trans_err={trans_err * 1000:.2e} mm")
        assert angle_err <= 1e-3
        assert trans_err <= 1e-4
