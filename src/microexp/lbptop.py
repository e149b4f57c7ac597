"""LBP codes and block-partitioned LBP-TOP histograms over face volumes.

Conventions (fixed here, used identically by every plane):

* Neighbor p of P sits at angle theta_p = 2*pi*p/P measured from the +u axis
  toward the +v axis, at offset (Ru*cos(theta_p), Rv*sin(theta_p)). The
  plane-local (u, v) axes are (x, y) for XY, (x, t) for XT and (y, t) for YT.
* Offsets within 1e-9 of an integer are snapped to that integer; fractional
  offsets are resolved with bilinear interpolation written in the canonical
  form g00 + fu*(g01-g00) + fv*(g10-g00) + fu*fv*(((g00-g01)-g10)+g11),
  which is exact on constant patches.
* A voxel is a valid center when all three sampling circles fit inside the
  volume: x in [Rx, W-1-Rx], y in [Ry, H-1-Ry], t in [Rt, T-1-Rt]. Each
  valid voxel contributes one code to each plane's histogram.
* Block origins advance by (block size - overlap); the final block is
  clamped to end at the frame edge. Per block, the XY/XT/YT histograms are
  each normalized to sum 1 over their centers, and the feature vector is the
  row-major block sweep of (XY, XT, YT) histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .preprocess2d import FrameVolume

_SNAP_EPS = 1e-9


@dataclass(frozen=True)
class LbpTopConfig:
    """Radii, neighbor counts, and spatial block layout for LBP-TOP."""

    radii: tuple[int, int, int] = (1, 1, 4)        # (Rx, Ry, Rt)
    neighbors: tuple[int, int, int] = (8, 8, 8)    # (P_xy, P_xt, P_yt)
    blocks: tuple[int, int] = (5, 5)               # (bx, by)
    overlap: int = 0                               # pixels shared between blocks

    def __post_init__(self):
        if len(self.radii) != 3 or any(r < 1 for r in self.radii):
            raise ValueError(f"radii must be three integers >= 1, got {self.radii}")
        if len(self.neighbors) != 3 or any(not 4 <= p <= 16 for p in self.neighbors):
            raise ValueError(f"neighbor counts must lie in 4..16, got {self.neighbors}")
        if len(self.blocks) != 2 or any(not 1 <= b <= 10 for b in self.blocks):
            raise ValueError(f"blocks must be two integers in 1..10, got {self.blocks}")
        if self.overlap < 0:
            raise ValueError(f"overlap must be non-negative, got {self.overlap}")
        object.__setattr__(self, "radii", tuple(int(r) for r in self.radii))
        object.__setattr__(self, "neighbors", tuple(int(p) for p in self.neighbors))
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))


@dataclass(frozen=True)
class FeatureVector:
    """Flat real-valued descriptor with provenance tag and config fingerprint."""

    values: np.ndarray
    tag: str
    fingerprint: str = ""  # set by the CLI (cli.feature_fingerprint); empty otherwise

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def _snap(value: float) -> float:
    rounded = round(value)
    return float(rounded) if abs(value - rounded) < _SNAP_EPS else value


def block_spans(extent: int, n_blocks: int, overlap: int) -> list[tuple[int, int]]:
    """Half-open [start, stop) spans of n_blocks blocks over ``extent`` pixels
    sharing ``overlap`` pixels; the last block is clamped to the edge."""
    size = math.ceil((extent + (n_blocks - 1) * overlap) / n_blocks)
    if size > extent:
        size = extent
    step = size - overlap
    if step <= 0:
        raise ValueError(f"overlap {overlap} must be smaller than the block size {size}")
    return [(min(i * step, extent - size), min(i * step, extent - size) + size)
            for i in range(n_blocks)]


def _plane_codes(data: np.ndarray, radii: tuple[int, int, int], u_axis: int, v_axis: int,
                 p_count: int) -> np.ndarray:
    """LBP codes on one plane for every valid center. ``radii`` holds the
    radius along each axis of ``data``; samples are read from views of
    ``data`` shifted by whole voxels, which stay inside the volume because a
    fractional offset lies strictly inside the radius."""
    def view(su: int, sv: int) -> np.ndarray:
        shift = [0, 0, 0]
        shift[u_axis], shift[v_axis] = su, sv
        return data[tuple(slice(r + s, n - r + s) for r, s, n in zip(radii, shift, data.shape))]

    center = view(0, 0)
    codes = np.zeros(center.shape, dtype=np.int64)
    for p in range(p_count):
        theta = 2.0 * math.pi * p / p_count
        du = _snap(radii[u_axis] * math.cos(theta))
        dv = _snap(radii[v_axis] * math.sin(theta))
        iu, iv = math.floor(du), math.floor(dv)
        fu, fv = du - iu, dv - iv
        g00 = sample = view(iu, iv)
        if fu != 0.0 or fv != 0.0:
            g01, g10, g11 = view(iu + 1, iv), view(iu, iv + 1), view(iu + 1, iv + 1)
            sample = (g00 + fu * (g01 - g00) + fv * (g10 - g00)
                      + fu * fv * (((g00 - g01) - g10) + g11))
        codes |= (sample - center >= 0).astype(np.int64) << p
    return codes


def lbp_top_histogram(volume: FrameVolume, config: LbpTopConfig) -> FeatureVector:
    """Block-partitioned LBP-TOP feature of a video volume.

    Per spatial block, the XY, XT and YT code histograms are normalized to
    sum 1 and concatenated; blocks are swept row-major. The result has
    length bx * by * (2^P_xy + 2^P_xt + 2^P_yt).
    """
    t_len, h, w = volume.shape
    rx, ry, rt = config.radii
    if t_len < 2 * rt + 1 or h < 2 * ry + 1 or w < 2 * rx + 1:
        raise ValueError(f"volume {volume.shape} too small for radii {config.radii}")

    data = volume.data.astype(np.float64)
    radii = (rt, ry, rx)  # axes: 0 = t, 1 = y, 2 = x
    planes = [
        _plane_codes(data, radii, u_axis=2, v_axis=1, p_count=config.neighbors[0]),
        _plane_codes(data, radii, u_axis=2, v_axis=0, p_count=config.neighbors[1]),
        _plane_codes(data, radii, u_axis=1, v_axis=0, p_count=config.neighbors[2]),
    ]

    bx, by = config.blocks
    x_spans = block_spans(w, bx, config.overlap)
    y_spans = block_spans(h, by, config.overlap)

    hists = []
    for bj, (y0, y1) in enumerate(y_spans):
        sy0, sy1 = max(y0, ry) - ry, min(y1, h - ry) - ry
        for bi, (x0, x1) in enumerate(x_spans):
            sx0, sx1 = max(x0, rx) - rx, min(x1, w - rx) - rx
            if sy1 <= sy0 or sx1 <= sx0:
                raise ValueError(
                    f"block ({bi}, {bj}) of {config.blocks} has no valid centers "
                    f"for radii {config.radii}"
                )
            for codes, p_count in zip(planes, config.neighbors):
                sub = codes[:, sy0:sy1, sx0:sx1]
                counts = np.bincount(sub.ravel(), minlength=2 ** p_count)
                hists.append(counts.astype(np.float64) / sub.size)

    return FeatureVector(np.concatenate(hists), tag="2d-lbptop")


def mean_difference_weights(volume: FrameVolume, landmarks, radius_px: int) -> np.ndarray:
    """Per-landmark motion weights from the mean frame-difference image.

    The volume must start at the sample's onset frame. D(x, y) is the mean
    over t > 0 of |I_t - I_0|; each landmark's weight is the mean of D over
    the disc of ``radius_px`` pixels around it, normalized to mean 1. A
    motionless volume yields uniform weights of 1.
    """
    if radius_px < 1:
        raise ValueError("disc radius must be at least 1 pixel")
    t_len, h, w = volume.shape
    marks = np.atleast_2d(np.asarray(landmarks, dtype=np.float64))
    frames = volume.data.astype(np.float64)
    diff = np.abs(frames[1:] - frames[0]).mean(axis=0)

    grid_y, grid_x = np.mgrid[0:h, 0:w]
    weights = np.empty(marks.shape[0])
    for j, (lx, ly) in enumerate(marks):
        disc = (grid_x - lx) ** 2 + (grid_y - ly) ** 2 <= radius_px ** 2
        if not disc.any():
            raise ValueError(f"landmark {j} disc (radius {radius_px}px) lies outside the frame")
        weights[j] = diff[disc].mean()

    mean_w = weights.mean()
    if mean_w == 0.0:
        return np.ones_like(weights)
    return weights / mean_w
