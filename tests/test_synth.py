import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from microexp.dataset import objective_label, nonobjective_label
from microexp.synth import (_CLASS_PRESETS, _DEFAULT_FACE_BUMPS, FaceGeometry, SynthSpec,
                            build_landmark_template, make_dataset)

from .surfaces import make_surface, nose_tip


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

    @given(xy=hnp.arrays(np.float64, st.tuples(st.integers(1, 50), st.just(2)),
                         elements=st.floats(-0.08, 0.08)),
           class_bumps=st.booleans())
    def test_height_is_the_z_of_height_and_derivs(self, xy, class_bumps):
        bumps = _DEFAULT_FACE_BUMPS + (tuple((bx, by, 0.008, 0.009)
                                             for bx, by in _CLASS_PRESETS[0]["bump_at"])
                                       if class_bumps else ())
        geo = FaceGeometry(bumps=bumps)
        z = geo.height(xy[:, 0], xy[:, 1])
        assert z.tobytes() == geo.height_and_derivs(xy[:, 0], xy[:, 1])[0].tobytes()

    def test_nose_tip_is_global_minimum(self):
        geo = FaceGeometry(bumps=((0.0, 0.0, 0.012, 0.010),))
        tip = nose_tip(geo)
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
        for sample in samples:
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

    @pytest.mark.parametrize("signal", ["2d", "3d", "both"])
    def test_one_subject_is_its_slice_of_the_whole(self, signal):
        spec = SynthSpec(n_subjects=3, samples_per_subject=2, n_points=400,
                         signal=signal, seed=5)
        records, samples = make_dataset(spec)
        for s in range(spec.n_subjects):
            part = slice(2 * s, 2 * s + 2)
            sub_records, sub_samples = make_dataset(spec, subject=s)
            assert sub_records == records[part]
            for a, b in zip(sub_samples, samples[part], strict=True):
                assert a.video.data.tobytes() == b.video.data.tobytes()
                for name in ("landmarks2d", "landmarks3d"):
                    assert [m.tobytes() for m in getattr(a, name)] == \
                        [m.tobytes() for m in getattr(b, name)]
                assert [c.points.tobytes() for c in a.clouds] == \
                    [c.points.tobytes() for c in b.clouds]

    @pytest.mark.parametrize("subject", [-1, 3])
    def test_subject_outside_range_rejected(self, subject):
        spec = SynthSpec(n_subjects=3, samples_per_subject=1, n_points=400)
        with pytest.raises(ValueError, match="subject must lie in 0..2"):
            make_dataset(spec, subject=subject)

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
        SynthSpec(noise_2d=0.0, noise_3d=0.0)  # no noise is legal
