import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from microexp import preprocess3d
from microexp.preprocess3d import (PointCloudFrame, RigidTransform,
                                   denoise, find_nose_tip, icp_align,
                                   register_sequence, spherical_crop)

from .oracles import denoise_reference, icp_reference, nose_tip_reference
from .surfaces import make_surface


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


class TestPointCloudFrame:
    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            PointCloudFrame(np.zeros((5, 2)))

    def test_nonfinite_rejected(self):
        pts = np.zeros((5, 3))
        pts[2, 1] = np.nan
        with pytest.raises(ValueError):
            PointCloudFrame(pts)


class TestRigidTransform:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_reflection_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(r, np.zeros(3))

    def test_isometry_under_composition(self, rng):
        r1 = _rotation([0.2, 0.9, 0.1], 0.4)
        r2 = _rotation([0.7, -0.1, 0.7], -0.8)
        t = RigidTransform(r1 @ r2, np.array([0.1, -0.2, 0.05]))
        pts = rng.standard_normal((40, 3))
        moved = t.apply(pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        assert np.max(np.abs(d0 - d1)) < 1e-9

    def test_inverse_round_trip(self, rng):
        t = RigidTransform(_rotation([1, 2, 3], 0.3), np.array([0.01, 0.02, -0.03]))
        pts = rng.standard_normal((10, 3))
        assert np.max(np.abs(t.inverse().apply(t.apply(pts)) - pts)) < 1e-12


class TestDenoise:
    def test_clean_sphere_retention(self):
        cloud = make_surface("sphere", {"radius": 0.05}, n_points=2000, seed=5).cloud
        kept = denoise(cloud, k=8, sigma_mult=2.0)
        assert len(kept) >= 0.99 * len(cloud)

    def test_far_outliers_removed(self, rng):
        cloud = make_surface("sphere", {"radius": 0.05}, n_points=2000, seed=5).cloud
        dirs = rng.standard_normal((20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        outliers = cloud.points.mean(axis=0) + 0.5 * dirs  # 10x the radius
        noisy = PointCloudFrame(np.vstack([cloud.points, outliers]))
        kept = denoise(noisy, k=8, sigma_mult=2.0)
        dist_to_kept = cKDTree(kept.points).query(outliers)[0]
        assert np.all(dist_to_kept > 1e-9)  # none of the outliers survived

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            denoise(PointCloudFrame(np.empty((0, 3))))

    def test_small_cloud_rejected(self):
        with pytest.raises(ValueError):
            denoise(PointCloudFrame(np.zeros((5, 3))), k=8)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, rng, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            denoise(PointCloudFrame(rng.standard_normal((50, 3))), k=k)

    def test_output_subset_order_preserved(self, rng):
        pts = rng.standard_normal((100, 3)) * 0.01
        pts[50] += 10.0  # gross outlier
        kept = denoise(PointCloudFrame(pts), k=4)
        rows = {tuple(p) for p in pts}
        assert all(tuple(p) in rows for p in kept.points)
        # order: surviving points appear in their original order
        orig_idx = [np.flatnonzero((pts == p).all(axis=1))[0] for p in kept.points]
        assert orig_idx == sorted(orig_idx)


class TestNoseTip:
    def test_synthetic_face_tip(self, face_cloud):
        tip = find_nose_tip(face_cloud.cloud, tip_at="min")
        assert np.linalg.norm(tip - face_cloud.meta["nose_tip"]) < 0.005

    def test_isolated_outlier_rejected(self, face_cloud):
        true_tip = face_cloud.meta["nose_tip"]
        spike = true_tip + np.array([0.0, 0.0, -0.05])  # 50 mm beyond the tip
        cloud = PointCloudFrame(np.vstack([face_cloud.cloud.points, spike]))
        tip = find_nose_tip(cloud, tip_at="min")
        assert np.linalg.norm(tip - true_tip) < 0.005

    def test_planar_cloud_returns_point(self):
        plane = make_surface("plane", n_points=400, seed=2).cloud
        with pytest.warns(UserWarning):
            tip = find_nose_tip(plane)
        assert tip.shape == (3,)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            find_nose_tip(PointCloudFrame(np.empty((0, 3))))

    def test_bad_mode_rejected(self, face_cloud):
        with pytest.raises(ValueError):
            find_nose_tip(face_cloud.cloud, tip_at="left")


class TestSphericalCrop:
    def test_boundary_inside_kept(self):
        pts = np.array([[0.099, 0.0, 0.0], [0.101, 0.0, 0.0], [0.0, 0.0, 0.0]])
        kept = spherical_crop(PointCloudFrame(pts), (0, 0, 0), 0.1)
        assert len(kept) == 2
        assert kept.points[0, 0] == pytest.approx(0.099)

    def test_far_center_empty(self):
        pts = np.zeros((10, 3))
        assert len(spherical_crop(PointCloudFrame(pts), (1, 1, 1), 0.1)) == 0

    def test_idempotent(self, face_cloud):
        center = face_cloud.meta["nose_tip"]
        once = spherical_crop(face_cloud.cloud, center, 0.06)
        twice = spherical_crop(once, center, 0.06)
        assert np.array_equal(once.points, twice.points)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            spherical_crop(PointCloudFrame(np.zeros((3, 3))), (0, 0, 0), 0.0)


class TestIcp:
    def test_self_alignment_is_identity(self, face_cloud):
        result = icp_align(face_cloud.cloud, face_cloud.cloud)
        assert result.residual < 1e-12
        assert np.max(np.abs(result.transform.rotation - np.eye(3))) < 1e-9
        assert np.max(np.abs(result.transform.translation)) < 1e-9
        assert result.converged

    def test_known_transform_recovered(self):
        moving = make_surface("face_proxy", n_points=1500, seed=11).cloud
        rot = _rotation([0.3, 0.5, 0.81], math.radians(10))
        trans = np.array([0.005, -0.003, 0.007])
        fixed = RigidTransform(rot, trans).apply_cloud(moving)
        result = icp_align(moving, fixed, max_iter=300, tol=1e-12)
        delta = result.transform.rotation @ rot.T
        angle_err = math.acos(min(1.0, (np.trace(delta) - 1) / 2))
        assert angle_err < 1e-3
        assert np.linalg.norm(result.transform.translation - trans) < 1e-4

    def test_noisy_alignment_residual(self, rng):
        base = make_surface("sphere", {"radius": 0.05, "cap_deg": 120},
                            n_points=1200, seed=4).cloud
        noisy = PointCloudFrame(base.points + 0.0005 * rng.standard_normal((len(base), 3)))
        result = icp_align(noisy, base)
        assert result.residual <= 0.0015

    def test_residual_history_non_increasing(self):
        moving = make_surface("face_proxy", n_points=800, seed=13).cloud
        fixed = RigidTransform(_rotation([0, 0, 1], 0.05),
                               np.array([0.002, 0.001, -0.001])).apply_cloud(moving)
        result = icp_align(moving, fixed, max_iter=100, tol=1e-12)
        hist = result.residual_history
        assert all(a >= b - 1e-15 for a, b in zip(hist, hist[1:]))

    def test_small_clouds_rejected(self):
        small = PointCloudFrame(np.random.default_rng(0).standard_normal((20, 3)))
        with pytest.raises(ValueError):
            icp_align(small, small)


def _speckled_face(seed, n_points=600):
    """A seeded face-proxy cloud under 0.5 mm noise, with 12 far speckle points."""
    rng = np.random.default_rng(seed)
    points = make_surface("face_proxy", n_points=n_points, seed=seed).cloud.points
    speckle = points[rng.choice(len(points), 12, replace=False)] + rng.normal(0, 0.02, (12, 3))
    return np.vstack([points + rng.normal(0, 0.0005, points.shape), speckle])


class TestReferences:
    """The KD-tree paths against the brute-force references in tests/oracles.py."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k, sigma", [(8, 2.0), (3, 1.0)])
    def test_denoise_keeps_the_reference_points(self, seed, k, sigma):
        points = _speckled_face(seed)
        kept = denoise(PointCloudFrame(points), k=k, sigma_mult=sigma).points
        assert len(kept) < len(points)
        assert np.array_equal(kept, denoise_reference(points, k, sigma))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("tip_at", ["min", "max"])
    def test_nose_tip_is_the_reference_point(self, seed, tip_at):
        points = _speckled_face(seed)
        tip = find_nose_tip(PointCloudFrame(points), tip_at=tip_at)
        assert np.array_equal(tip, nose_tip_reference(points, tip_at))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("max_iter, tol", [(50, 1e-6), (200, 1e-12), (3, 1e-12)])
    def test_icp_matches_reference(self, seed, max_iter, tol):
        rng = np.random.default_rng(seed)
        fixed = make_surface("face_proxy", n_points=500, seed=seed).cloud.points
        motion = RigidTransform(_rotation(rng.normal(size=3), math.radians(6)),
                                rng.normal(0, 0.004, 3))
        moving = motion.inverse().apply(fixed[:400]) + rng.normal(0, 0.0003, (400, 3))
        result = icp_align(PointCloudFrame(moving), PointCloudFrame(fixed),
                           max_iter=max_iter, tol=tol)
        rotation, translation, residual, converged, n_iter = icp_reference(
            moving, fixed, max_iter, tol)
        assert (result.n_iter, result.converged) == (n_iter, converged)
        assert np.max(np.abs(result.transform.rotation - rotation)) < 1e-9
        assert np.max(np.abs(result.transform.translation - translation)) < 1e-9
        assert abs(result.residual - residual) < 1e-9


class TestRegisterSequence:
    def test_static_sequence_identity(self, face_cloud):
        clouds = [face_cloud.cloud] * 3
        reg = register_sequence(clouds)
        for t in reg.transforms:
            assert np.max(np.abs(t.rotation - np.eye(3))) < 1e-9
            assert np.max(np.abs(t.translation)) < 1e-9

    def test_jittered_sequence_residuals(self):
        base = make_surface("face_proxy", n_points=1000, seed=21).cloud
        clouds = [base]
        for i in range(2):
            jitter = RigidTransform(_rotation([0.1, 0.9, 0.2], 0.01 * (i + 1)),
                                    np.array([0.001, -0.0005, 0.0015]) * (i + 1))
            clouds.append(jitter.apply_cloud(base))
        reg = register_sequence(clouds, max_iter=200, tol=1e-12)
        assert all(r < 0.001 for r in reg.residuals)

    def test_landmarks_follow_cloud_transform(self, face_cloud):
        base = face_cloud.cloud
        jitter = RigidTransform(_rotation([0, 1, 0], 0.02), np.array([0.002, 0.0, -0.001]))
        moved = jitter.apply_cloud(base)
        marks = [base.points[:5].copy(), moved.points[:5].copy()]
        reg = register_sequence([base, moved], landmarks3d=marks, max_iter=200, tol=1e-12)
        # the landmark-to-cloud nearest distance is preserved by the shared transform
        for t in (0, 1):
            d = cKDTree(reg.clouds[t].points).query(reg.landmarks[t])[0]
            assert np.max(d) < 1e-9

    def test_one_tree_per_sequence_same_results(self, monkeypatch):
        base = make_surface("face_proxy", n_points=800, seed=21).cloud
        clouds = [base] + [RigidTransform(_rotation([0.2, 0.9, 0.1], 0.01 * i),
                                          np.array([0.001, -0.0005, 0.001]) * i).apply_cloud(base)
                           for i in (1, 2, 3)]
        # Each frame aligned on its own, building its own tree over frame 0.
        alone = [icp_align(c, clouds[0]) for c in clouds[1:]]
        shared = [icp_align(c, clouds[0], tree=cKDTree(clouds[0].points)) for c in clouds[1:]]
        built = []

        class CountedTree(cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(preprocess3d, "cKDTree", CountedTree)
        reg = register_sequence(clouds)
        assert len(built) == 1
        for a, b in zip(alone, shared):
            assert np.array_equal(a.transform.rotation, b.transform.rotation)
            assert np.array_equal(a.transform.translation, b.transform.translation)
            assert (a.residual, a.converged, a.n_iter, a.residual_history) == \
                (b.residual, b.converged, b.n_iter, b.residual_history)
        assert [np.array_equal(t.rotation, a.transform.rotation)
                and np.array_equal(t.translation, a.transform.translation)
                for t, a in zip(reg.transforms[1:], alone)] == [True] * 3
        assert reg.residuals[1:] == tuple(a.residual for a in alone)
        assert reg.converged[1:] == tuple(a.converged for a in alone)

    def test_needs_two_frames(self, face_cloud):
        with pytest.raises(ValueError):
            register_sequence([face_cloud.cloud])
