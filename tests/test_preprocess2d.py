import math

import numpy as np
import pytest

from microexp.preprocess2d import (DegenerateGeometryError, FrameVolume,
                                   SimilarityTransform, crop_face,
                                   estimate_alignment, warp_volume)

from .oracles import warp_volume_reference


def _volume(t=3, h=64, w=64, fill=0):
    return FrameVolume(np.full((t, h, w), fill, dtype=np.uint8))


class TestFrameVolume:
    def test_shape_properties(self):
        v = _volume(4, 32, 48)
        assert (v.n_frames, v.height, v.width) == (4, 32, 48)

    def test_too_few_frames(self):
        with pytest.raises(ValueError):
            FrameVolume(np.zeros((1, 32, 32), dtype=np.uint8))

    def test_too_small_frames(self):
        with pytest.raises(ValueError):
            FrameVolume(np.zeros((2, 8, 32), dtype=np.uint8))

    def test_range_check_on_conversion(self):
        with pytest.raises(ValueError):
            FrameVolume(np.full((2, 16, 16), 300, dtype=np.int32))


class TestEstimateAlignment:
    def test_identity(self):
        t = estimate_alignment((10, 20), (30, 20), (10, 20), (30, 20))
        assert t.scale == pytest.approx(1.0)
        assert t.rotation == pytest.approx(0.0)
        assert t.translation == pytest.approx((0.0, 0.0))

    def test_pure_scaling(self):
        t = estimate_alignment((0, 0), (2, 0), (0, 0), (1, 0))
        assert t.scale == pytest.approx(0.5)
        assert t.rotation == pytest.approx(0.0)

    def test_rotation_recovered(self):
        canon_l, canon_r = np.array([40.0, 50.0]), np.array([80.0, 50.0])
        mid = 0.5 * (canon_l + canon_r)
        ang = math.radians(30)
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        src_l = rot @ (canon_l - mid) + mid
        src_r = rot @ (canon_r - mid) + mid
        t = estimate_alignment(src_l, src_r, canon_l, canon_r)
        assert t.rotation == pytest.approx(-ang, abs=1e-9)
        assert t.scale == pytest.approx(1.0, abs=1e-9)

    def test_exact_on_defining_points(self):
        src = [(13.2, 41.7), (57.9, 44.1)]
        dst = [(20.0, 30.0), (60.0, 31.5)]
        t = estimate_alignment(src[0], src[1], dst[0], dst[1])
        mapped = t.apply(np.array(src))
        assert np.max(np.abs(mapped - np.array(dst))) < 1e-9

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            estimate_alignment((5, 5), (5, 5), (0, 0), (1, 0))
        with pytest.raises(DegenerateGeometryError):
            estimate_alignment((0, 0), (1, 0), (5, 5), (5, 5))

    def test_no_reflection(self):
        t = estimate_alignment((0, 0), (10, 3), (2, 1), (4, 9))
        assert np.linalg.det(t.linear()) > 0


class TestWarpVolume:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(1)
        vol = FrameVolume(rng.integers(0, 256, (3, 32, 32), dtype=np.uint8))
        out = warp_volume(vol, SimilarityTransform.identity())
        assert np.array_equal(out.data, vol.data)

    def test_integer_translation(self):
        rng = np.random.default_rng(2)
        vol = FrameVolume(rng.integers(0, 256, (2, 24, 24), dtype=np.uint8))
        t = SimilarityTransform(1.0, 0.0, (5.0, 0.0))
        out = warp_volume(vol, t)
        assert np.array_equal(out.data[:, :, 5:], vol.data[:, :, :-5])
        assert np.all(out.data[:, :, :5] == 0)  # zero fill

    def test_preserves_frame_count(self):
        vol = _volume(5, 32, 32, fill=7)
        out = warp_volume(vol, SimilarityTransform(1.1, 0.05, (1.0, -2.0)))
        assert out.n_frames == 5

    def test_round_trip_on_smooth_image(self):
        h = w = 64
        ys, xs = np.mgrid[0:h, 0:w]
        smooth = (60 + 1.5 * xs + 1.0 * ys).astype(np.uint8)
        vol = FrameVolume(np.stack([smooth, smooth]))
        t = SimilarityTransform(1.05, math.radians(8), (2.0, -1.5))
        back = warp_volume(warp_volume(vol, t), t.inverse())
        interior = (slice(None), slice(12, h - 12), slice(12, w - 12))
        err = np.abs(back.data[interior].astype(int) - vol.data[interior].astype(int))
        assert err.max() <= 2

    # Each maps part of the output frame to source points outside the input,
    # which must be zero-filled. With scale a power of two, no rotation and
    # translations in quarters, every coordinate and sample is exact and many
    # samples end in .5, so rounding half to even is checked bit for bit.
    @pytest.mark.parametrize("scale, translation", [
        (1.0, (3.25, -5.5)),
        (1.0, (-0.5, 0.25)),  # the last column samples within a pixel of the edge
        (2.0, (-4.5, 1.75)),
        (0.5, (6.0, 2.5)),
    ])
    def test_exact_transforms_match_pixel_loop_reference(self, scale, translation):
        frames = np.random.default_rng(3).integers(1, 256, (2, 20, 28), dtype=np.uint8)
        out = warp_volume(FrameVolume(frames), SimilarityTransform(scale, 0.0, translation))
        want = np.array(warp_volume_reference(frames, scale, 0.0, translation))
        assert np.array_equal(out.data, want)
        assert (want == 0).any()  # no input pixel is 0, so these are zero fill

    def test_rotated_transform_matches_pixel_loop_reference(self):
        # The library inverts the transform with other arithmetic, so a
        # sample within rounding of a .5 boundary could round the other way.
        frames = np.random.default_rng(4).integers(1, 256, (2, 20, 28), dtype=np.uint8)
        scale, rotation, translation = 1.1, math.radians(20), (4.0, -3.0)
        out = warp_volume(FrameVolume(frames), SimilarityTransform(scale, rotation, translation))
        want = np.array(warp_volume_reference(frames, scale, rotation, translation))
        assert np.abs(out.data.astype(int) - want).max() <= 1
        assert np.array_equal(out.data == 0, want == 0)
        assert (want == 0).sum() > 50


class TestCropFace:
    def test_formula_example(self):
        vol = _volume(2, 160, 200)
        result = crop_face(vol, [(60, 40), (120, 40)], (90, 70))
        # d_h = 60, d_v = 30: width 6*ceil(90/6) = 90, height 6*ceil(90/6) = 90
        assert result.rect == (13, 45, 90, 90)  # top = 40 - 27, left = 90 - 45
        assert not result.clamped
        assert result.volume.height % 6 == 0 and result.volume.width % 6 == 0

    def test_zero_eye_separation_rejected(self):
        vol = _volume(2, 64, 64)
        with pytest.raises(DegenerateGeometryError):
            crop_face(vol, [(30, 20), (30, 20)], (30, 40))

    def test_spine_on_eye_line_rejected(self):
        vol = _volume(2, 64, 64)
        with pytest.raises(DegenerateGeometryError):
            crop_face(vol, [(20, 20), (40, 20)], (30, 20))

    def test_idempotent_dimensions(self):
        vol = _volume(2, 160, 200)
        first = crop_face(vol, [(60, 40), (120, 40)], (90, 70))
        top, left, _, _ = first.rect
        shift = np.array([left, top])
        second = crop_face(first.volume,
                           [(60, 40) - shift, (120, 40) - shift],
                           (90, 70) - shift)
        assert second.rect[2:] == first.rect[2:]

    def test_clamped_rect_stays_inside_and_divisible(self):
        vol = _volume(2, 64, 64)
        result = crop_face(vol, [(10, 30), (60, 30)], (35, 55))
        assert result.clamped
        top, left, height, width = result.rect
        assert 0 <= top and top + height <= 64
        assert 0 <= left and left + width <= 64
        assert height % 6 == 0 and width % 6 == 0

    def test_landmark_outside_frame_rejected(self):
        vol = _volume(2, 64, 64)
        with pytest.raises(DegenerateGeometryError):
            crop_face(vol, [(10, 30), (90, 30)], (35, 50))
