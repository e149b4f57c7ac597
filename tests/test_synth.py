import numpy as np
import pytest

from microexp.dataset import objective_label, nonobjective_label, validate_duration
from microexp.synth import (FaceGeometry, SynthSpec,
                            build_landmark_template, make_dataset, make_surface)


class TestMakeSurface:
    def test_sphere_oracle_magnitudes(self):
        s = make_surface("sphere", {"radius": 0.05}, n_points=500, seed=0)
        assert np.allclose(np.abs(s.principal), 20.0)
        assert np.all(s.principal[:, 0] == s.principal[:, 1])

    def test_sphere_cap_faces_sensor(self):
        s = make_surface("sphere", {"radius": 0.05, "cap_deg": 120}, n_points=500, seed=0)
        # cap bulges toward -z: oriented curvature is negative everywhere
        assert np.all(s.principal == -20.0)

    def test_plane_oracle_zero(self):
        s = make_surface("plane", n_points=300, seed=1)
        assert np.all(s.principal == 0.0)

    def test_cylinder_oracle(self):
        s = make_surface("cylinder", {"radius": 0.05}, n_points=300, seed=1)
        assert np.all(s.principal[:, 0] == -20.0)
        assert np.all(s.principal[:, 1] == 0.0)

    def test_oracle_identities(self):
        s = make_surface("sphere", {"radius": 0.04}, n_points=200, seed=3)
        k = s.principal[:, 0] * s.principal[:, 1]
        h = s.principal.mean(axis=1)
        assert np.allclose(k, 625.0)
        assert np.allclose(np.abs(h), 25.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_surface("sphere", n_points=50)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_surface("torus")

    def test_noise_perturbs_points_not_oracle(self):
        clean = make_surface("plane", n_points=200, seed=5)
        noisy = make_surface("plane", n_points=200, seed=5, noise_sigma=0.001)
        assert not np.array_equal(clean.cloud.points, noisy.cloud.points)
        assert np.array_equal(clean.principal, noisy.principal)

    def test_same_seed_identical(self):
        a = make_surface("face_proxy", n_points=300, seed=7)
        b = make_surface("face_proxy", n_points=300, seed=7)
        assert np.array_equal(a.cloud.points, b.cloud.points)


class TestFaceGeometry:
    def test_analytic_curvature_matches_finite_differences(self):
        geo = FaceGeometry(bumps=((0.0, 0.0, 0.012, 0.010),))
        eps = 1e-6
        for x, y in [(0.0, 0.0), (0.01, -0.02), (-0.015, 0.03)]:
            _, zx, zy, zxx, zxy, zyy = (v.item() for v in geo.height_and_derivs(
                np.array([x]), np.array([y])))
            f = lambda a, b: geo.height(np.array([a]), np.array([b])).item()
            zx_n = (f(x + eps, y) - f(x - eps, y)) / (2 * eps)
            zy_n = (f(x, y + eps) - f(x, y - eps)) / (2 * eps)
            zxx_n = (f(x + eps, y) - 2 * f(x, y) + f(x - eps, y)) / eps ** 2
            zyy_n = (f(x, y + eps) - 2 * f(x, y) + f(x, y - eps)) / eps ** 2
            zxy_n = (f(x + eps, y + eps) - f(x + eps, y - eps)
                     - f(x - eps, y + eps) + f(x - eps, y - eps)) / (4 * eps ** 2)
            assert zx == pytest.approx(zx_n, rel=1e-4, abs=1e-6)
            assert zy == pytest.approx(zy_n, rel=1e-4, abs=1e-6)
            assert zxx == pytest.approx(zxx_n, rel=1e-3, abs=1e-2)
            assert zyy == pytest.approx(zyy_n, rel=1e-3, abs=1e-2)
            assert zxy == pytest.approx(zxy_n, rel=1e-3, abs=1e-2)

    def test_nose_tip_is_global_minimum(self):
        geo = FaceGeometry(bumps=((0.0, 0.0, 0.012, 0.010),))
        tip = geo.nose_tip()
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.03, 0.03, 500)
        ys = rng.uniform(-0.04, 0.04, 500)
        assert np.all(geo.height(xs, ys) >= tip[2] - 1e-12)

    def test_landmark_template_shape(self):
        template = build_landmark_template(0.065, 0.09)
        assert template.shape == (49, 2)
        assert np.all(np.abs(template[:, 0]) <= 0.065)
        assert np.all(np.abs(template[:, 1]) <= 0.09)


class TestMakeDataset:
    def test_counts_and_duration(self, tiny_dataset):
        records, samples = tiny_dataset
        assert len(records) == len(samples) == 3 * 4
        for record, sample in zip(records, samples):
            assert validate_duration(record, SynthSpec().frame_rate)
            assert sample.video.n_frames == len(sample.clouds)
            assert sample.landmarks3d[0].shape == (49, 3)

    def test_labels_consistent_with_taxonomies(self, tiny_dataset):
        records, _ = tiny_dataset
        for record in records:
            assert objective_label(record.aus) is record.objective_label
            assert nonobjective_label(record.aus) is record.nonobjective_label

    def test_same_seed_byte_identical(self):
        spec = SynthSpec(n_subjects=2, samples_per_subject=2, n_points=500, seed=12)
        rec1, smp1 = make_dataset(spec)
        rec2, smp2 = make_dataset(spec)
        assert rec1 == rec2
        for a, b in zip(smp1, smp2):
            assert np.array_equal(a.video.data, b.video.data)
            for ca, cb in zip(a.clouds, b.clouds):
                assert np.array_equal(ca.points, cb.points)
            for la, lb in zip(a.landmarks3d, b.landmarks3d):
                assert np.array_equal(la, lb)

    def test_different_seed_differs(self):
        a = make_dataset(SynthSpec(n_subjects=1, samples_per_subject=1,
                                   n_points=400, seed=1))[1][0]
        b = make_dataset(SynthSpec(n_subjects=1, samples_per_subject=1,
                                   n_points=400, seed=2))[1][0]
        assert not np.array_equal(a.clouds[0].points, b.clouds[0].points)

    def test_landmarks_lie_on_cloud_surface(self, tiny_dataset):
        _, samples = tiny_dataset
        sample = samples[0]
        from scipy.spatial import cKDTree
        d = cKDTree(sample.clouds[0].points).query(sample.landmarks3d[0])[0]
        assert np.median(d) < 0.004  # landmarks sit on the sampled surface

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_classes=1)
        with pytest.raises(ValueError):
            SynthSpec(signal="4d")
        with pytest.raises(ValueError):
            SynthSpec(n_frames=2)
