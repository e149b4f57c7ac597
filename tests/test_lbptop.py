import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from microexp.lbptop import (FeatureVector, LbpTopConfig, block_spans, lbp_code,
                             lbp_top_histogram, mean_difference_weights)
from microexp.preprocess2d import FrameVolume

from .oracles import lbp_code_reference, lbp_pixel_reference, lbp_top_reference


class TestLbpCode:
    def test_constant_image_all_bits_set(self):
        img = np.full((9, 9), 77, dtype=np.uint8)
        assert lbp_code(img, 4, 4, p_count=8, radius=1) == 255

    def test_center_above_all_neighbors(self):
        img = np.zeros((9, 9), dtype=np.uint8)
        img[4, 4] = 200
        assert lbp_code(img, 4, 4, p_count=8, radius=1) == 0

    def test_documented_sample_ordering(self):
        # neighbors p = 0..7 starting at angle 0, counter-clockwise
        samples = [6, 5, 2, 1, 7, 8, 9, 3]
        assert lbp_code_reference(samples, 5) == 115

    def test_four_neighbors_integer_positions(self):
        # P=4 samples land exactly on (x+1,y), (x,y+1), (x-1,y), (x,y-1)
        img = np.full((5, 5), 10, dtype=np.uint8)
        img[2, 3] = 20   # p=0, +x
        img[3, 2] = 5    # p=1, +y
        img[2, 1] = 10   # p=2, -x (equal -> bit set)
        img[1, 2] = 3    # p=3, -y
        assert lbp_code(img, 2, 2, p_count=4, radius=1) == 0b0101

    def test_border_center_rejected(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            lbp_code(img, 0, 4, p_count=8, radius=1)

    @given(hnp.arrays(np.int16, (7, 7), elements=st.integers(0, 200)),
           st.integers(1, 55))
    @settings(max_examples=25, deadline=None)
    def test_invariant_to_constant_offset(self, img, offset):
        assert lbp_code(img, 3, 3) == lbp_code(img + offset, 3, 3)

    @pytest.mark.parametrize("p_count", [4, 6, 8, 12, 16])
    def test_every_pixel_matches_per_pixel_oracle(self, p_count):
        # Few gray levels make many neighbors tie with their center, where a
        # one-ulp difference in the bilinear weights flips a bit.
        rng = np.random.default_rng(p_count)
        for img in rng.integers(0, 4, size=(3, 12, 12)):
            for radius in (1, 2, 3):
                for y in range(radius, 12 - radius):
                    for x in range(radius, 12 - radius):
                        assert lbp_code(img, x, y, p_count, radius) == \
                            lbp_pixel_reference(img, x, y, p_count, radius), (x, y, radius)


class TestBlockSpans:
    def test_no_overlap_partition(self):
        spans = block_spans(32, 4, 0)
        assert spans == [(0, 8), (8, 16), (16, 24), (24, 32)]

    def test_overlap_advances_by_size_minus_overlap(self):
        spans = block_spans(30, 3, 4)
        size = spans[0][1] - spans[0][0]
        assert all(b - a == size for a, b in spans)
        assert spans[1][0] == spans[0][0] + size - 4
        assert spans[-1][1] == 30  # clamped to the edge

    def test_overlap_too_large_rejected(self):
        with pytest.raises(ValueError):
            block_spans(10, 5, 10)


class TestLbpTopHistogram:
    def test_constant_volume_point_mass(self):
        cfg = LbpTopConfig(radii=(1, 1, 1), neighbors=(8, 8, 8), blocks=(2, 2))
        vol = FrameVolume(np.full((4, 16, 16), 100, dtype=np.uint8))
        fv = lbp_top_histogram(vol, cfg)
        hists = fv.values.reshape(-1, 256)
        assert np.all(hists[:, 255] == 1.0)
        assert fv.values.sum() == pytest.approx(2 * 2 * 3)

    def test_feature_length_5x5(self):
        cfg = LbpTopConfig(radii=(1, 1, 2), neighbors=(8, 8, 8), blocks=(5, 5))
        vol = FrameVolume(np.random.default_rng(0).integers(0, 256, (8, 32, 32),
                                                            dtype=np.uint8))
        fv = lbp_top_histogram(vol, cfg)
        assert len(fv) == 5 * 5 * 3 * 256 == cfg.feature_length == 19200

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        vol = rng.integers(0, 256, (8, 16, 16), dtype=np.uint8)
        cfg = LbpTopConfig(radii=(1, 1, 2), neighbors=(8, 8, 8), blocks=(2, 2), overlap=0)
        fast = lbp_top_histogram(FrameVolume(vol), cfg).values
        slow = np.array(lbp_top_reference(vol, (1, 1, 2), (8, 8, 8), (2, 2), 0))
        assert np.array_equal(fast, slow)

    def test_matches_oracle_with_overlap(self):
        rng = np.random.default_rng(8)
        vol = rng.integers(0, 256, (8, 20, 20), dtype=np.uint8)
        cfg = LbpTopConfig(radii=(2, 2, 2), neighbors=(8, 8, 8), blocks=(3, 3), overlap=3)
        fast = lbp_top_histogram(FrameVolume(vol), cfg).values
        slow = np.array(lbp_top_reference(vol, (2, 2, 2), (8, 8, 8), (3, 3), 3))
        assert np.array_equal(fast, slow)

    def test_per_block_plane_histograms_sum_to_one(self):
        rng = np.random.default_rng(9)
        vol = FrameVolume(rng.integers(0, 256, (6, 18, 18), dtype=np.uint8))
        cfg = LbpTopConfig(radii=(1, 1, 1), blocks=(3, 2))
        fv = lbp_top_histogram(vol, cfg)
        sums = fv.values.reshape(-1, 256).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert fv.values.sum() == pytest.approx(3 * 2 * 3)

    def test_constant_volume_frame_permutation_invariant(self):
        vol = np.full((4, 16, 16), 42, dtype=np.uint8)
        cfg = LbpTopConfig(radii=(1, 1, 1), blocks=(2, 2))
        a = lbp_top_histogram(FrameVolume(vol), cfg).values
        b = lbp_top_histogram(FrameVolume(vol[[1, 0, 2, 3]]), cfg).values
        assert np.array_equal(a, b)

    def test_volume_too_small_for_radius(self):
        cfg = LbpTopConfig(radii=(1, 1, 4), blocks=(2, 2))
        vol = FrameVolume(np.zeros((4, 16, 16), dtype=np.uint8))  # T=4 < 2*4+1
        with pytest.raises(ValueError, match="too small"):
            lbp_top_histogram(vol, cfg)

    def test_block_without_centers_named(self):
        # radius 7 leaves no valid centers inside 2-pixel edge blocks
        cfg = LbpTopConfig(radii=(7, 7, 1), blocks=(10, 10))
        vol = FrameVolume(np.zeros((4, 20, 20), dtype=np.uint8))
        with pytest.raises(ValueError, match=r"block \("):
            lbp_top_histogram(vol, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LbpTopConfig(radii=(0, 1, 1))
        with pytest.raises(ValueError):
            LbpTopConfig(neighbors=(8, 8, 20))
        with pytest.raises(ValueError):
            LbpTopConfig(blocks=(11, 5))
        with pytest.raises(ValueError):
            LbpTopConfig(overlap=-1)


class TestFeatureVector:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([1.0, np.inf]), "t", "f")


class TestMeanDifferenceWeights:
    def test_static_volume_uniform_weights(self):
        vol = FrameVolume(np.full((5, 32, 32), 50, dtype=np.uint8))
        w = mean_difference_weights(vol, [(8, 8), (20, 20)], radius_px=3)
        assert np.array_equal(w, [1.0, 1.0])

    def test_motion_at_one_landmark_dominates(self):
        frames = np.full((5, 40, 40), 30, dtype=np.uint8)
        marks = [(6, 6), (16, 6), (26, 6), (6, 26), (16, 26), (26, 26)]
        mx, my = marks[5]
        for t in range(1, 5):
            frames[t, my - 2 : my + 3, mx - 2 : mx + 3] = 30 + 40 * t
        w = mean_difference_weights(FrameVolume(frames), marks, radius_px=3)
        assert np.argmax(w) == 5
        assert w[5] > max(w[:5])
        assert w.mean() == pytest.approx(1.0)

    def test_scale_invariance_of_normalization(self):
        base = np.zeros((3, 32, 32), dtype=np.uint8)
        base[1, 10:14, 10:14] = 20
        base[2, 20:24, 20:24] = 40
        doubled = base.copy()
        doubled[1:] = 2 * base[1:]
        marks = [(12, 12), (22, 22)]
        w1 = mean_difference_weights(FrameVolume(base + 5), marks, radius_px=3)
        w2 = mean_difference_weights(FrameVolume(doubled + 5), marks, radius_px=3)
        assert np.allclose(w1, w2)

    def test_disc_outside_frame_rejected(self):
        vol = FrameVolume(np.zeros((3, 32, 32), dtype=np.uint8))
        with pytest.raises(ValueError):
            mean_difference_weights(vol, [(100, 100)], radius_px=3)
