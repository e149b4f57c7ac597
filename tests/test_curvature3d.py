from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from microexp import curvature3d
from microexp.curvature3d import (CurvatureConfig, DEFAULT_LANDMARK_SUBSET,
                                  DegenerateSurfaceError, PrincipalCurvatures,
                                  SurfaceType, _FIT_BLOCK, _batched_curvatures, _hk_bins,
                                  _quantize_si_bins, _shape_indices, _vertex_bins,
                                  estimate_principal_curvatures,
                                  gaussian_mean_curvature, hk_classify,
                                  landmark_local_histogram, load_landmark_subset,
                                  quantize_si, sequence_feature, shape_index)
from microexp.dataset import (NonObjectiveClass, ObjectiveClass, SampleData,
                              SampleRecord)
from microexp.preprocess2d import FrameVolume
from microexp.preprocess3d import PointCloudFrame
from microexp.synth import SynthSpec, make_dataset, make_surface

from .oracles import (curvature_reference, hk_bin_reference, hk_sign_reference,
                      landmark_histogram_reference, shape_index_reference,
                      si_bin_reference, si_quantize_reference)


def _record(onset=0, apex=0, offset=1):
    return SampleRecord("01", "s", onset, apex, offset, frozenset(),
                        ObjectiveClass.OTHERS, NonObjectiveClass.OTHERS)


class TestEstimate:
    def test_sphere_curvatures(self, sphere_cap, rng):
        pts = sphere_cap.cloud.points
        for i in rng.choice(len(pts), 25, replace=False):
            pc = estimate_principal_curvatures(sphere_cap.cloud, pts[i], 0.01)
            assert abs(abs(pc.p_min) - 20.0) < 2.0
            assert abs(abs(pc.p_max) - 20.0) < 2.0
            assert np.sign(pc.p_min) == np.sign(pc.p_max)

    def test_plane_curvatures(self, rng):
        plane = make_surface("plane", n_points=3000, seed=2)
        pts = plane.cloud.points
        for i in rng.choice(len(pts), 20, replace=False):
            pc = estimate_principal_curvatures(plane.cloud, pts[i], 0.012)
            assert abs(pc.p_min) <= 0.5 and abs(pc.p_max) <= 0.5

    def test_cylinder_curvatures(self, rng):
        cyl = make_surface("cylinder", {"radius": 0.05}, n_points=4000, seed=3)
        pts = cyl.cloud.points
        small, big = [], []
        for i in rng.choice(len(pts), 25, replace=False):
            pc = estimate_principal_curvatures(cyl.cloud, pts[i], 0.01)
            mags = sorted([abs(pc.p_min), abs(pc.p_max)])
            small.append(mags[0])
            big.append(mags[1])
        assert np.median(small) < 0.5
        assert abs(np.median(big) - 20.0) / 20.0 < 0.1

    def test_too_few_neighbors_rejected(self):
        cloud = PointCloudFrame(np.random.default_rng(0).standard_normal((30, 3)))
        with pytest.raises(ValueError, match="neighbors"):
            estimate_principal_curvatures(cloud, cloud.points[0], 1e-6)

    def test_collinear_neighborhood_rejected(self):
        t = np.linspace(0, 1, 40)
        line = np.column_stack([t, 2 * t, 0 * t]) * 0.01
        cloud = PointCloudFrame(line)
        with pytest.raises(DegenerateSurfaceError):
            estimate_principal_curvatures(cloud, line[20], 0.02)

    def test_invariants_on_type(self):
        with pytest.raises(ValueError):
            PrincipalCurvatures(2.0, 1.0)
        with pytest.raises(ValueError):
            PrincipalCurvatures(np.nan, 1.0)


class TestKH:
    def test_direct_values(self):
        assert gaussian_mean_curvature(PrincipalCurvatures(1, 1)) == (1, 1)
        assert gaussian_mean_curvature(PrincipalCurvatures(0, 0)) == (0, 0)
        assert gaussian_mean_curvature(PrincipalCurvatures(-1, 2)) == (-2, 0.5)

    def test_table_rows(self):
        assert hk_classify(1, 1) is SurfaceType.PEAK
        assert hk_classify(0, 0) is SurfaceType.FLAT
        assert hk_classify(-1, 0) is SurfaceType.MINIMAL_SURFACE

    def test_exhaustive_sign_grid(self):
        eps = 0.5
        grid = {(-1, -1): SurfaceType.SADDLE_VALLEY,
                (-1, 0): SurfaceType.MINIMAL_SURFACE,
                (-1, 1): SurfaceType.SADDLE_RIDGE,
                (0, -1): SurfaceType.VALLEY,
                (0, 0): SurfaceType.FLAT,
                (0, 1): SurfaceType.RIDGE,
                (1, -1): SurfaceType.PIT,
                (1, 0): SurfaceType.UNDEFINED,
                (1, 1): SurfaceType.PEAK}
        for (sk, sh), expected in grid.items():
            assert hk_classify(2.0 * sk, 2.0 * sh, eps) is expected
        assert len({v for v in grid.values()}) == 9

    def test_zero_eps_required(self):
        with pytest.raises(ValueError):
            hk_classify(1, 1, zero_eps=0)


class TestShapeIndex:
    def test_spot_values(self):
        assert shape_index(PrincipalCurvatures(-1, 1)) == pytest.approx(0.5, abs=1e-12)
        assert shape_index(PrincipalCurvatures(0, 1)) == pytest.approx(0.25, abs=1e-12)
        assert shape_index(PrincipalCurvatures(-1, 0)) == pytest.approx(0.75, abs=1e-12)

    def test_umbilic_conventions(self):
        assert shape_index(PrincipalCurvatures(1, 1)) == 0.0
        assert shape_index(PrincipalCurvatures(-1, -1)) == 1.0
        assert shape_index(PrincipalCurvatures(0, 0)) == 0.5

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=200)
    def test_range_property(self, a, b):
        pc = PrincipalCurvatures(min(a, b), max(a, b))
        assert 0.0 <= shape_index(pc) <= 1.0


class TestQuantize:
    def test_nine_centers_map_to_bins(self):
        for i, center in enumerate(i / 8 for i in range(9)):
            assert quantize_si(center) == i

    def test_nearest_center(self):
        assert quantize_si(0.7) == 6
        assert quantize_si(0.06) == 0
        assert quantize_si(0.07) == 1

    def test_ties_round_toward_saddle(self):
        assert quantize_si(0.4375) == 4  # midpoint of bins 3 and 4
        assert quantize_si(0.5625) == 4  # midpoint of bins 4 and 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize_si(1.2)
        with pytest.raises(ValueError):
            quantize_si(-0.01)


class TestLandmarkHistogram:
    def test_sphere_region_concentrated(self, sphere_cap):
        cfg = CurvatureConfig(neighborhood_radius=0.01, landmark_region_radius=0.015)
        center = sphere_cap.cloud.points.mean(axis=0)
        i = np.argmin(np.linalg.norm(sphere_cap.cloud.points - center, axis=1))
        hist = landmark_local_histogram(sphere_cap.cloud, sphere_cap.cloud.points[i],
                                        0.015, "si", cfg)
        assert hist.max() >= 0.9
        assert hist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_plane_region_flat(self):
        plane = make_surface("plane", n_points=3000, seed=2)
        cfg = CurvatureConfig(neighborhood_radius=0.012, zero_eps=1.0,
                              landmark_region_radius=0.015)
        lm = np.array([0.0, 0.0, 0.4])
        hist = landmark_local_histogram(plane.cloud, lm, 0.015, "hk", cfg)
        assert hist[SurfaceType.FLAT.value] >= 0.9
        assert hist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_too_few_region_points(self, sphere_cap):
        cfg = CurvatureConfig()
        far = np.array([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="region"):
            landmark_local_histogram(sphere_cap.cloud, far, 0.01, "si", cfg)

    def test_bad_kind(self, sphere_cap):
        with pytest.raises(ValueError):
            landmark_local_histogram(sphere_cap.cloud, sphere_cap.cloud.points[0],
                                     0.02, "xy", CurvatureConfig())


def _single_landmark_sample(sphere_cap):
    """Two-frame sample whose clouds are the sphere cap; landmark 0 sits at
    the cap center, the other 48 landmarks are copies (unused)."""
    center = sphere_cap.cloud.points.mean(axis=0)
    i = np.argmin(np.linalg.norm(sphere_cap.cloud.points - center, axis=1))
    lm = np.tile(sphere_cap.cloud.points[i], (49, 1))
    video = FrameVolume(np.zeros((2, 16, 16), dtype=np.uint8))
    return SampleData(video=video, clouds=(sphere_cap.cloud, sphere_cap.cloud),
                      landmarks2d=None, landmarks3d=(lm, lm.copy()))


class TestSequenceFeature:
    def test_identity_weight_single_landmark_single_frame(self, sphere_cap):
        sample = _single_landmark_sample(sphere_cap)
        cfg = CurvatureConfig(neighborhood_radius=0.01, landmark_region_radius=0.015)
        record = _record(onset=0, apex=0, offset=0)
        fv = sequence_feature(sample, record, [1.0], "si", cfg, frames="all", subset=(0,))
        raw = landmark_local_histogram(sample.clouds[0], sample.landmarks3d[0][0],
                                       cfg.landmark_region_radius, "si", cfg)
        assert np.allclose(fv.values, raw)
        assert fv.tag == "3d-si"

    def test_default_length_576(self, tiny_dataset):
        records, samples = tiny_dataset
        cfg = CurvatureConfig()
        fv = sequence_feature(samples[0], records[0], np.ones(32), "si", cfg)
        assert len(fv) == 32 * 2 * 9 == 576
        assert len(DEFAULT_LANDMARK_SUBSET) == 32

    def test_weight_scales_only_its_landmark(self, sphere_cap):
        sample = _single_landmark_sample(sphere_cap)
        cfg = CurvatureConfig(neighborhood_radius=0.01, landmark_region_radius=0.015)
        record = _record(onset=0, apex=1, offset=1)
        subset = (0, 1)
        base = sequence_feature(sample, record, [1.0, 1.0], "si", cfg, subset=subset)
        bumped = sequence_feature(sample, record, [2.0, 1.0], "si", cfg, subset=subset)
        assert np.allclose(bumped.values[:18], 2.0 * base.values[:18])
        assert np.array_equal(bumped.values[18:], base.values[18:])

    def test_sihk_concatenation(self, sphere_cap):
        sample = _single_landmark_sample(sphere_cap)
        cfg = CurvatureConfig(neighborhood_radius=0.01, landmark_region_radius=0.015)
        record = _record(onset=0, apex=1, offset=1)
        si = sequence_feature(sample, record, [1.0], "si", cfg, subset=(0,))
        hk = sequence_feature(sample, record, [1.0], "hk", cfg, subset=(0,))
        both = sequence_feature(sample, record, [1.0], "sihk", cfg, subset=(0,))
        assert len(both) == len(si) + len(hk)
        assert np.array_equal(both.values, np.concatenate([si.values, hk.values]))

    def test_sihk_is_si_then_hk_in_one_call(self, tiny_dataset):
        records, samples = tiny_dataset
        cfg = CurvatureConfig()
        weights = np.linspace(0.5, 1.5, 32)
        si = sequence_feature(samples[1], records[1], weights, "si", cfg)
        hk = sequence_feature(samples[1], records[1], weights, "hk", cfg)
        both = sequence_feature(samples[1], records[1], weights, "sihk", cfg)
        assert both.tag == "3d-sihk"
        assert both.fingerprint == si.fingerprint == hk.fingerprint
        assert both.values.tobytes() == np.concatenate([si.values, hk.values]).tobytes()

    def test_missing_frame_rejected(self, sphere_cap):
        sample = _single_landmark_sample(sphere_cap)
        cfg = CurvatureConfig(neighborhood_radius=0.01, landmark_region_radius=0.015)
        record = _record(onset=0, apex=5, offset=5)
        with pytest.raises(ValueError, match="frame"):
            sequence_feature(sample, record, [1.0], "si", cfg, subset=(0,))

    def test_weight_count_must_match_subset(self, sphere_cap):
        sample = _single_landmark_sample(sphere_cap)
        with pytest.raises(ValueError, match="weight"):
            sequence_feature(sample, _record(), [1.0, 2.0], "si",
                             CurvatureConfig(), subset=(0,))


class TestLandmarkSubsetFile:
    def test_one_index_per_line(self, tmp_path):
        path = tmp_path / "subset.txt"
        path.write_text("# brows\n0\n1\n 2 \n\n48\n", encoding="utf-8")
        assert load_landmark_subset(path) == (0, 1, 2, 48)

    def test_default_subset_round_trips(self, tmp_path):
        path = tmp_path / "subset.txt"
        path.write_text("\n".join(str(i) for i in DEFAULT_LANDMARK_SUBSET) + "\n")
        assert load_landmark_subset(path) == DEFAULT_LANDMARK_SUBSET

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "subset.txt"
        path.write_text("49\n")
        with pytest.raises(ValueError, match="outside"):
            load_landmark_subset(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "subset.txt"
        path.write_text("brow\n")
        with pytest.raises(ValueError, match="integer"):
            load_landmark_subset(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "subset.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="empty"):
            load_landmark_subset(path)


class TestRotationInvariance:
    def test_magnitudes_stable_under_rotation(self, sphere_cap, rng):
        from microexp.synth import _random_rotation

        pts = sphere_cap.cloud.points
        idx = rng.choice(len(pts), 20, replace=False)
        base = []
        for i in idx:
            pc = estimate_principal_curvatures(sphere_cap.cloud, pts[i], 0.01)
            base.append(sorted([abs(pc.p_min), abs(pc.p_max)]))
        base = np.array(base)

        rot = _random_rotation(np.random.default_rng(5))
        rotated = PointCloudFrame(pts @ rot.T)
        after = []
        for i in idx:
            pc = estimate_principal_curvatures(rotated, rotated.points[i], 0.01)
            after.append(sorted([abs(pc.p_min), abs(pc.p_max)]))
        after = np.array(after)
        rel = np.abs(after - base) / np.abs(base)
        assert np.median(rel) < 0.01


def _oracle_hist(points, landmark, cfg, kind):
    hist, _ = landmark_histogram_reference(points, landmark, cfg.landmark_region_radius,
                                           cfg.neighborhood_radius, kind, cfg.zero_eps)
    return np.array(hist)


class TestBatchedAgainstOracle:
    """The batched per-frame fit against the plain-loop lstsq oracle, bin for bin."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_dataset_frames(self, seed):
        records, samples = make_dataset(SynthSpec(n_subjects=1, samples_per_subject=1,
                                                  n_points=700, signal="3d", seed=seed))
        record, sample = records[0], samples[0]
        cfg = CurvatureConfig()
        subset = DEFAULT_LANDMARK_SUBSET[::4]
        weights = np.linspace(0.5, 2.0, len(subset))
        expected = {"si": [], "hk": []}
        for j, lm_idx in enumerate(subset):
            for t in (record.onset, record.apex):
                cloud, lm = sample.clouds[t], sample.landmarks3d[t][lm_idx]
                for kind in ("si", "hk"):
                    ref = _oracle_hist(cloud.points, lm, cfg, kind)
                    got = landmark_local_histogram(cloud, lm, cfg.landmark_region_radius,
                                                   kind, cfg)
                    assert np.array_equal(got, ref), (seed, lm_idx, t, kind)
                    expected[kind].append(weights[j] * ref)
        for kind in ("si", "hk", "sihk"):
            fv = sequence_feature(sample, record, weights, kind, cfg, subset=subset)
            want = np.concatenate([h for k in ("si", "hk") if k in kind for h in expected[k]])
            assert np.array_equal(fv.values, want), (seed, kind)

    # On a noiseless plane both curvatures are rounding residue (~1e-40), so
    # its shape index is 0/0 and differs between any two implementations;
    # only its HK type (flat) is defined. Jitter gives the plane a real one.
    @pytest.mark.parametrize("surface, params, noise, kinds, cfg", [
        ("sphere", {"radius": 0.05, "cap_deg": 150}, 0.0, ("si", "hk"),
         CurvatureConfig(neighborhood_radius=0.01, landmark_region_radius=0.01)),
        ("plane", None, 0.0, ("hk",),
         CurvatureConfig(neighborhood_radius=0.012, zero_eps=1.0, landmark_region_radius=0.01)),
        ("plane", None, 1e-4, ("si", "hk"),
         CurvatureConfig(neighborhood_radius=0.012, zero_eps=1.0, landmark_region_radius=0.01)),
        ("cylinder", {"radius": 0.05}, 0.0, ("si", "hk"),
         CurvatureConfig(neighborhood_radius=0.01, landmark_region_radius=0.01)),
    ])
    def test_analytic_surfaces(self, surface, params, noise, kinds, cfg, rng):
        cloud = make_surface(surface, params, n_points=4000, noise_sigma=noise, seed=4).cloud
        for i in rng.choice(len(cloud.points), 3, replace=False):
            lm = cloud.points[i]
            for kind in kinds:
                got = landmark_local_histogram(cloud, lm, cfg.landmark_region_radius, kind, cfg)
                assert np.array_equal(got, _oracle_hist(cloud.points, lm, cfg, kind))

    def test_speckle_and_collinear_vertices_dropped_alike(self):
        rng = np.random.default_rng(7)
        plane = np.column_stack([rng.uniform(-0.03, 0.03, (3000, 2)),
                                 0.4 + rng.normal(0.0, 1e-4, 3000)])
        # Isolated points above the plane: one neighbor each, themselves.
        ang = np.arange(6) * np.pi / 3
        speckle = np.column_stack([0.008 * np.cos(ang), 0.008 * np.sin(ang), np.full(6, 0.385)])
        # A straight strip: collinear neighborhoods (rank-deficient fits),
        # and fewer than 10 neighbors at its ends.
        x = np.linspace(-0.005, 0.005, 21)
        strip = np.column_stack([x, np.zeros_like(x), np.full_like(x, 0.392)])
        points = np.vstack([plane, speckle, strip])
        cfg = CurvatureConfig(neighborhood_radius=0.004, landmark_region_radius=0.02)
        lm = np.array([0.0, 0.0, 0.4])

        tree = cKDTree(points)
        region = sorted(tree.query_ball_point(lm, r=cfg.landmark_region_radius))
        _, _, valid = _batched_curvatures(points, tree, region, cfg.neighborhood_radius,
                                          np.array([0.0, 0.0, -1.0]))
        dropped = [i for i, ok in zip(region, valid) if not ok]
        assert dropped == list(range(len(plane), len(points)))

        cloud = PointCloudFrame(points)
        for kind in ("si", "hk"):
            ref, ref_dropped = landmark_histogram_reference(
                points, lm, cfg.landmark_region_radius, cfg.neighborhood_radius,
                kind, cfg.zero_eps)
            assert ref_dropped == dropped
            got = landmark_local_histogram(cloud, lm, cfg.landmark_region_radius, kind, cfg)
            assert np.array_equal(got, np.array(ref))


_TOWARD = np.array([0.0, 0.0, -1.0])


def _strip(half_width, n=400, seed=0):
    """A curved strip 2 cm long and 2 * half_width wide; the narrower it is,
    the worse conditioned its cubic fits (v-monomials shrink with it)."""
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-0.01, 0.01, n), rng.uniform(-half_width, half_width, n)
    return np.column_stack([x, y, 0.4 + 8.0 * x * x + 3.0 * y * y + 2.0 * x * y])


def _mixed_cloud():
    """A jittered plane (good fits), six isolated speckle points (one
    neighbor each) and a straight strip (collinear fits, fewer than 10
    neighbors at its ends), as in the speckle test above."""
    rng = np.random.default_rng(7)
    plane = np.column_stack([rng.uniform(-0.03, 0.03, (3000, 2)),
                             0.4 + rng.normal(0.0, 1e-4, 3000)])
    ang = np.arange(6) * np.pi / 3
    speckle = np.column_stack([0.008 * np.cos(ang), 0.008 * np.sin(ang), np.full(6, 0.385)])
    x = np.linspace(-0.005, 0.005, 21)
    strip = np.column_stack([x, np.zeros_like(x), np.full_like(x, 0.392)])
    return np.vstack([plane, speckle, strip]), len(plane), len(plane) + len(speckle)


@pytest.fixture()
def svd_rows(monkeypatch):
    """Matrices each np.linalg.svd call factors, in call order."""
    rows = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        rows.append(np.shape(a)[0] if np.ndim(a) == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return rows


class TestCertifiedSolve:
    """Normal equations where full rank is certified, lstsq's SVD elsewhere."""

    def test_ill_conditioned_fits_take_the_svd(self, svd_rows):
        # Full rank for lstsq, but the certified sigma_min / sigma_max bound
        # is only about 2e-6.
        points = _strip(1e-4)
        cfg = CurvatureConfig(neighborhood_radius=0.004, landmark_region_radius=0.005)
        lm = np.array([0.0, 0.0, 0.4])
        region = cKDTree(points).query_ball_point(lm, r=cfg.landmark_region_radius)
        for kind in ("si", "hk"):
            ref, dropped = landmark_histogram_reference(
                points, lm, cfg.landmark_region_radius, cfg.neighborhood_radius,
                kind, cfg.zero_eps)
            assert dropped == []
            svd_rows.clear()
            got = landmark_local_histogram(PointCloudFrame(points), lm,
                                           cfg.landmark_region_radius, kind, cfg)
            assert np.array_equal(got, np.array(ref))
            assert sum(svd_rows) == len(region)

    def test_certified_fits_near_the_threshold_match_lstsq(self, svd_rows):
        # Certified with little margin (sigma_min / sigma_max bound about
        # 2e-4): unrefined normal equations miss the oracle by about 1e-11.
        points = _strip(5e-4)
        tree = cKDTree(points)
        idx = np.flatnonzero(np.abs(points[:, 0]) < 0.005)
        p_min, p_max, valid = _batched_curvatures(points, tree, idx, 0.004, _TOWARD)
        assert svd_rows == []
        assert valid.all()
        ref = np.array([curvature_reference(points, tree, i, 0.004, _TOWARD) for i in idx])
        size = np.abs(ref).max(axis=1)
        assert np.all(np.abs(p_min - ref[:, 0]) <= 1e-12 * size)
        assert np.all(np.abs(p_max - ref[:, 1]) <= 1e-12 * size)

    def test_mixed_block_keeps_good_fits_on_the_fast_path(self, svd_rows):
        points, n_plane, strip_start = _mixed_cloud()
        tree = cKDTree(points)
        # One block: 40 plane vertices, the speckle and the whole strip.
        idx = np.concatenate([np.arange(0, n_plane, n_plane // 40)[:40],
                              np.arange(n_plane, len(points))])
        _, _, valid = _batched_curvatures(points, tree, idx, 0.004, _TOWARD)
        assert np.array_equal(valid, idx < n_plane)
        counts = tree.query_ball_point(points[idx], r=0.004, return_length=True)
        collinear = (idx >= strip_start) & (counts >= 10)
        assert 0 < collinear.sum() < (idx >= strip_start).sum()
        assert svd_rows == [collinear.sum()]

    def test_results_do_not_depend_on_vertex_order(self, svd_rows):
        points, _, _ = _mixed_cloud()
        tree = cKDTree(points)
        idx = np.asarray(tree.query_ball_point([0.0, 0.0, 0.4], r=0.012))
        perm = np.random.default_rng(1).permutation(len(idx))
        fit = _batched_curvatures(points, tree, idx, 0.004, _TOWARD)
        shuffled = _batched_curvatures(points, tree, idx[perm], 0.004, _TOWARD)
        assert len(idx) > 2 * _FIT_BLOCK and sum(svd_rows) > 0  # three blocks, some SVD
        for whole, part in zip(fit, shuffled):
            assert np.array_equal(whole[perm], part)


@pytest.fixture(scope="module")
def store_sample():
    """(record, sample, subset, weights, want): a synthetic sample, a quarter
    of the default subset, and the oracle's si, hk and sihk features."""
    records, samples = make_dataset(SynthSpec(n_subjects=1, samples_per_subject=1,
                                              n_points=700, signal="3d", seed=3))
    record, sample = records[0], samples[0]
    cfg = CurvatureConfig()
    subset = DEFAULT_LANDMARK_SUBSET[::4]
    weights = np.linspace(0.5, 2.0, len(subset))
    hists = {kind: [weights[j] * _oracle_hist(sample.clouds[t].points,
                                              sample.landmarks3d[t][lm_idx], cfg, kind)
                    for j, lm_idx in enumerate(subset) for t in (record.onset, record.apex)]
             for kind in ("si", "hk")}
    want = {"si": np.concatenate(hists["si"]), "hk": np.concatenate(hists["hk"])}
    want["sihk"] = np.concatenate([want["si"], want["hk"]])
    return record, sample, subset, weights, want


@pytest.fixture()
def fitted_frames(monkeypatch):
    """Vertex counts of the frames fitted by _batched_curvatures, in call order."""
    fitted = []
    fit = curvature3d._batched_curvatures

    def counting_fit(points, tree, vertex_idx, *args, **kwargs):
        fitted.append(len(vertex_idx))
        return fit(points, tree, vertex_idx, *args, **kwargs)

    monkeypatch.setattr(curvature3d, "_batched_curvatures", counting_fit)
    return fitted


class TestFieldStore:
    """Each frame's curvature field kept in a directory across calls."""

    def _feature(self, store_sample, kind, store, cfg=CurvatureConfig(), sample=None):
        record, base, subset, weights, _ = store_sample
        return sequence_feature(base if sample is None else sample, record, weights, kind,
                                cfg, subset=subset, store=store).values.tobytes()

    def test_warm_store_matches_cold_store_and_oracle(self, store_sample, tmp_path,
                                                      fitted_frames):
        want = store_sample[-1]
        cold = {kind: self._feature(store_sample, kind, tmp_path / kind)
                for kind in ("si", "hk", "sihk")}
        assert len(fitted_frames) == 3 * 2  # onset and apex, once per cold store
        warm = {kind: self._feature(store_sample, kind, tmp_path / "si")
                for kind in ("si", "hk", "sihk")}
        assert len(fitted_frames) == 3 * 2
        for kind in ("si", "hk", "sihk"):
            assert cold[kind] == warm[kind] == want[kind].tobytes(), kind
            assert self._feature(store_sample, kind, None) == cold[kind], kind
        assert sorted(p.suffix for p in (tmp_path / "si").iterdir()) == [".npy", ".npy"]

    def test_zero_eps_reuses_the_entry(self, store_sample, tmp_path, fitted_frames):
        coarse = CurvatureConfig(zero_eps=50.0)
        self._feature(store_sample, "hk", tmp_path)
        assert len(fitted_frames) == 2
        got = self._feature(store_sample, "hk", tmp_path, coarse)
        assert len(fitted_frames) == 2
        assert got == self._feature(store_sample, "hk", None, coarse)
        assert got != store_sample[-1]["hk"].tobytes()  # zero_eps did move the bins

    @pytest.mark.parametrize("change", ["point", "subset landmark", "other landmark",
                                        "neighborhood radius"])
    def test_changed_inputs_miss(self, store_sample, tmp_path, fitted_frames, change):
        record, sample, subset, _, _ = store_sample
        onset = record.onset
        clouds, marks, cfg = list(sample.clouds), list(sample.landmarks3d), CurvatureConfig()
        if change == "point":
            points = clouds[onset].points.copy()
            points[7, 2] += 1e-6
            clouds[onset] = PointCloudFrame(points)
        elif change in ("subset landmark", "other landmark"):
            lm_idx = subset[1] if change == "subset landmark" else subset[1] + 1
            assert (lm_idx in subset) == (change == "subset landmark")
            marks[onset] = marks[onset].copy()
            marks[onset][lm_idx, 0] += 1e-4
        else:
            cfg = replace(cfg, neighborhood_radius=0.021)
        moved = replace(sample, clouds=tuple(clouds), landmarks3d=tuple(marks))

        self._feature(store_sample, "si", tmp_path)
        assert len(fitted_frames) == 2
        got = self._feature(store_sample, "si", tmp_path, cfg, moved)
        refits = {"point": 1, "subset landmark": 1, "other landmark": 0,
                  "neighborhood radius": 2}[change]
        assert len(fitted_frames) == 2 + refits
        assert len(list(tmp_path.iterdir())) == 2 + refits
        assert got == self._feature(store_sample, "si", None, cfg, moved)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong shape", "wrong dtype",
                                        "valid not 0 or 1"])
    def test_damaged_entry_is_refitted_and_replaced(self, store_sample, tmp_path,
                                                    fitted_frames, damage):
        want = store_sample[-1]["si"].tobytes()
        assert self._feature(store_sample, "si", tmp_path) == want
        entry = sorted(tmp_path.iterdir())[0]
        good = entry.read_bytes()
        field = np.load(entry)
        if damage == "truncated":
            entry.write_bytes(good[:len(good) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"not a curvature field\n" * 20)
        elif damage == "wrong shape":
            np.save(entry, field[:, 1:])
        elif damage == "wrong dtype":
            np.save(entry, field.astype(np.float32))
        else:
            field[2, 0] = 0.5
            np.save(entry, field)

        assert self._feature(store_sample, "si", tmp_path) == want
        assert len(fitted_frames) == 2 + 1
        assert entry.read_bytes() == good
        assert len(list(tmp_path.iterdir())) == 2


class TestVectorisedBinning:
    """The array forms behind shape_index / quantize_si / hk_classify against
    the per-value oracles, including exact bin edges and the zero_eps
    boundary."""

    def test_quantize_si_grid(self):
        mids = np.arange(17) / 16
        si = np.concatenate([np.linspace(0.0, 1.0, 4001), mids,
                             np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)])
        si = si[(si >= 0.0) & (si <= 1.0)]
        assert np.array_equal(_quantize_si_bins(si), [si_quantize_reference(x) for x in si])

    def test_shape_index_grid_with_umbilics(self):
        vals = np.concatenate([np.linspace(-3.0, 3.0, 61),
                               [-1e3, -1e-9, 0.0, 1e-9, 1e3, -20.0, 20.0]])
        a, b = np.meshgrid(vals, vals)
        p_min, p_max = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
        umbilic = p_min == p_max
        assert all(np.any(umbilic & cond) for cond in (p_min < 0, p_min == 0, p_min > 0))
        ref = [shape_index_reference(lo, hi) for lo, hi in zip(p_min, p_max)]
        assert np.array_equal(_shape_indices(p_min, p_max), ref)
        assert np.array_equal(_vertex_bins("si", p_min, p_max, 0.5),
                              [si_bin_reference(lo, hi) for lo, hi in zip(p_min, p_max)])

    @pytest.mark.parametrize("eps", [0.5, 1e-3])
    def test_hk_grid_at_zero_eps(self, eps):
        edges = np.array([eps, -eps])
        vals = np.concatenate([np.linspace(-4 * eps, 4 * eps, 33), edges,
                               np.nextafter(edges, 0.0), np.nextafter(edges, 2 * edges)])
        k, h = (g.ravel() for g in np.meshgrid(vals, vals))
        assert np.array_equal(_hk_bins(k, h, eps),
                              [hk_sign_reference(a, b, eps) for a, b in zip(k, h)])

    def test_hk_from_curvature_pairs(self):
        vals = np.linspace(-2.0, 2.0, 41)
        a, b = np.meshgrid(vals, vals)
        p_min, p_max = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
        ref = [hk_bin_reference(lo, hi, 0.5) for lo, hi in zip(p_min, p_max)]
        assert np.array_equal(_vertex_bins("hk", p_min, p_max, 0.5), ref)
