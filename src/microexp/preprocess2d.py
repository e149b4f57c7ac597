"""Alignment and cropping of face video volumes using landmark geometry.

A video sample is a T x H x W cuboid of 8-bit grayscale frames. The first
frame's inner eye corners define a non-reflective similarity transform onto
canonical positions; the same transform is applied to every frame. The face
is then cropped around the eye corners and nasal spine so the output
dimensions are multiples of 6 (the block grid used downstream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateGeometryError(ValueError):
    """Raised when landmark geometry does not determine a transform or crop."""


# Indices of the inner eye corners and the nasal spine in the 49-point markup.
INNER_EYE_LEFT = 22
INNER_EYE_RIGHT = 25
NASAL_SPINE = 16

# Canonical eye-corner positions as fractions of the aligned frame size.
CANONICAL_LEFT_EYE = (0.3, 0.35)
CANONICAL_RIGHT_EYE = (0.7, 0.35)

# Crop rectangle constants: width = WIDTH_SCALE * eye distance,
# height = HEIGHT_SCALE * eye-to-spine vertical distance, top edge at
# eye line - TOP_OFFSET_SCALE * that distance.
CROP_WIDTH_SCALE = 1.5
CROP_HEIGHT_SCALE = 3.0
CROP_TOP_OFFSET_SCALE = 0.9


@dataclass(frozen=True)
class FrameVolume:
    """T x H x W stack of 8-bit grayscale frames."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValueError(f"volume must be 3-d (T,H,W), got shape {arr.shape}")
        t, h, w = arr.shape
        if t < 2:
            raise ValueError(f"volume needs at least 2 frames, got {t}")
        if h < 16 or w < 16:
            raise ValueError(f"frames must be at least 16x16, got {h}x{w}")
        if arr.dtype != np.uint8:
            if np.any(arr < 0) or np.any(arr > 255):
                raise ValueError("intensities must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        object.__setattr__(self, "data", arr)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class SimilarityTransform:
    """Non-reflective similarity: p -> scale * R(rotation) @ p + translation.

    Points are (x, y) pixel coordinates; rotation is in radians, measured
    from the +x axis toward the +y axis.
    """

    scale: float
    rotation: float
    translation: tuple[float, float]

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "translation", (float(self.translation[0]), float(self.translation[1])))

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(scale=1.0, rotation=0.0, translation=(0.0, 0.0))

    def linear(self) -> np.ndarray:
        """2x2 linear part (always det > 0: no reflection)."""
        c = self.scale * math.cos(self.rotation)
        s = self.scale * math.sin(self.rotation)
        return np.array([[c, -s], [s, c]])

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to an (N, 2) array of (x, y) points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.linear().T + np.asarray(self.translation)

    def inverse(self) -> "SimilarityTransform":
        inv_lin = self.linear().T / (self.scale * self.scale)
        t = -inv_lin @ np.asarray(self.translation)
        return SimilarityTransform(
            scale=1.0 / self.scale,
            rotation=-self.rotation,
            translation=(t[0], t[1]),
        )


def estimate_alignment(
    inner_eye_left,
    inner_eye_right,
    canonical_left,
    canonical_right,
) -> SimilarityTransform:
    """Similarity transform mapping the two source eye corners exactly onto
    the two canonical positions.

    Two point pairs determine a unique non-reflective similarity; solved in
    the complex plane. Raises DegenerateGeometryError if either point pair
    is (numerically) coincident.
    """
    src_l = complex(float(inner_eye_left[0]), float(inner_eye_left[1]))
    src_r = complex(float(inner_eye_right[0]), float(inner_eye_right[1]))
    dst_l = complex(float(canonical_left[0]), float(canonical_left[1]))
    dst_r = complex(float(canonical_right[0]), float(canonical_right[1]))

    src_span = src_r - src_l
    dst_span = dst_r - dst_l
    if abs(src_span) < 1e-12:
        raise DegenerateGeometryError("source eye corners are coincident")
    if abs(dst_span) < 1e-12:
        raise DegenerateGeometryError("canonical eye corners are coincident")

    m = dst_span / src_span  # scale * exp(i * rotation)
    t = dst_l - m * src_l
    return SimilarityTransform(
        scale=abs(m),
        rotation=math.atan2(m.imag, m.real),
        translation=(t.real, t.imag),
    )


def _bilinear_sample(frame: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear sample of a float 2-d frame at (xs, ys); zero outside."""
    h, w = frame.shape
    valid = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)

    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)
    fy = np.clip(ys - y0, 0.0, 1.0)

    g00 = frame[y0, x0]
    g01 = frame[y0, x1]
    g10 = frame[y1, x0]
    g11 = frame[y1, x1]
    out = g00 + fx * (g01 - g00) + fy * (g10 - g00) + (fx * fy) * (((g00 - g01) - g10) + g11)
    out[~valid] = 0.0
    return out


def warp_volume(volume: FrameVolume, transform: SimilarityTransform) -> FrameVolume:
    """Resample every frame under the transform (bilinear, zero fill).

    Output pixel p takes the value of the input at transform^-1(p), so the
    content moves the way the transform maps source points to destination
    points. Frame count and frame size are preserved.
    """
    t, h, w = volume.shape
    inv = transform.inverse()
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    src = inv.apply(np.column_stack([xs.ravel(), ys.ravel()]))
    src_x = src[:, 0].reshape(h, w)
    src_y = src[:, 1].reshape(h, w)

    out = np.empty((t, h, w), dtype=np.uint8)
    for i in range(t):
        frame = volume.data[i].astype(np.float64)
        sampled = _bilinear_sample(frame, src_x, src_y)
        out[i] = np.clip(np.rint(sampled), 0, 255).astype(np.uint8)
    return FrameVolume(out)


@dataclass(frozen=True)
class CropResult:
    """Cropped volume plus the rectangle used and a clamp flag."""

    volume: FrameVolume
    rect: tuple[int, int, int, int]  # (top, left, height, width)
    clamped: bool


def _round_up_multiple(value: float, base: int) -> int:
    return base * math.ceil(value / base)


def crop_face(volume: FrameVolume, inner_eyes, nasal_spine) -> CropResult:
    """Crop the face rectangle determined by the eye corners and nasal spine.

    Width = CROP_WIDTH_SCALE * horizontal eye distance, height =
    CROP_HEIGHT_SCALE * vertical eye-to-spine distance, horizontally centred
    on the eye midpoint with the top edge CROP_TOP_OFFSET_SCALE * that
    distance above the eye line. Both dimensions are rounded up to multiples
    of 6. A rectangle leaving the frame is shifted back inside (shrunk to a
    smaller multiple of 6 only if it cannot fit), with ``clamped`` set.
    """
    (lx, ly), (rx, ry) = (tuple(map(float, p)) for p in inner_eyes)
    sx, sy = float(nasal_spine[0]), float(nasal_spine[1])
    t, h, w = volume.shape

    for px, py in ((lx, ly), (rx, ry), (sx, sy)):
        if not (0 <= px <= w - 1 and 0 <= py <= h - 1):
            raise DegenerateGeometryError(f"landmark ({px}, {py}) outside frame")

    d_h = abs(rx - lx)
    eye_y = 0.5 * (ly + ry)
    d_v = abs(sy - eye_y)
    if d_h < 1e-9:
        raise DegenerateGeometryError("zero horizontal eye separation")
    if d_v < 1e-9:
        raise DegenerateGeometryError("nasal spine lies on the eye line")

    width = _round_up_multiple(CROP_WIDTH_SCALE * d_h, 6)
    height = _round_up_multiple(CROP_HEIGHT_SCALE * d_v, 6)
    left = int(round(0.5 * (lx + rx) - width / 2))
    top = int(round(eye_y - CROP_TOP_OFFSET_SCALE * d_v))

    clamped = False
    if width > w:
        width = 6 * (w // 6)
        clamped = True
    if height > h:
        height = 6 * (h // 6)
        clamped = True
    if width < 6 or height < 6:
        raise DegenerateGeometryError("frame too small for a 6-pixel block crop")

    # Shift (rather than shrink) a rectangle that sticks out of the frame.
    if left < 0 or left + width > w:
        left = min(max(left, 0), w - width)
        clamped = True
    if top < 0 or top + height > h:
        top = min(max(top, 0), h - height)
        clamped = True

    data = volume.data[:, top : top + height, left : left + width]
    return CropResult(volume=FrameVolume(data), rect=(top, left, height, width), clamped=clamped)
