"""Principal curvatures on point clouds and the derived quantized surface
features: nine-way HK surface typing and the nine-bin shape index.

Curvature sign convention: the local surface normal is oriented toward the
sensor (along ``toward``, by default the -z half-space), so a patch bulging
toward the sensor has negative principal curvatures and lands at the convex
end (1.0) of the shape-index scale, while a pit maps toward 0.0.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

from .lbptop import FeatureVector
from .preprocess3d import PointCloudFrame

# Default 32-of-49 landmark subset used for the local 3-d features, indices
# into the 49-point markup (see synth.LANDMARK_LAYOUT): all 10 brow points,
# the 4 eye corners, 6 nose points, and 12 mouth points.
DEFAULT_LANDMARK_SUBSET = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9,          # brows
    19, 22, 25, 28,                         # eye corners
    10, 12, 13, 14, 16, 18,                 # nose
    31, 33, 35, 37, 39, 41, 43, 44, 45, 46, 47, 48,  # mouth
)

SI_BIN_CENTERS = tuple(i / 8 for i in range(9))
SI_BIN_NAMES = ("Cup", "Trough", "Rut Saddle", "Rut", "Saddle",
                "Saddle Ridge", "Ridge", "Dome", "Cap")


def load_landmark_subset(path) -> tuple[int, ...]:
    """Read a landmark-subset file: one 0-based index per line, '#' comments."""
    indices = []
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            idx = int(line)
        except ValueError:
            raise ValueError(f"{path} line {line_no}: expected an integer index") from None
        if not 0 <= idx <= 48:
            raise ValueError(f"{path} line {line_no}: index {idx} outside 0..48")
        indices.append(idx)
    if not indices:
        raise ValueError(f"{path}: empty landmark subset")
    return tuple(indices)


class DegenerateSurfaceError(ValueError):
    """Neighborhood too flat/collinear for a surface fit."""


class SurfaceType(Enum):
    """Nine-way local surface classification from the signs of K and H.

    Enum order is the fixed histogram bin order of the HK feature.
    """

    PEAK = 0
    RIDGE = 1
    SADDLE_RIDGE = 2
    FLAT = 3
    MINIMAL_SURFACE = 4
    PIT = 5
    VALLEY = 6
    SADDLE_VALLEY = 7
    UNDEFINED = 8  # K > 0 with H = 0: contradictory, kept as a feature bin


@dataclass(frozen=True)
class PrincipalCurvatures:
    """Minimum and maximum normal curvature at a point, in 1/meters."""

    p_min: float
    p_max: float

    def __post_init__(self):
        if not (math.isfinite(self.p_min) and math.isfinite(self.p_max)):
            raise ValueError("principal curvatures must be finite")
        if self.p_min > self.p_max:
            raise ValueError(f"need p_min <= p_max, got {self.p_min} > {self.p_max}")


@dataclass(frozen=True)
class CurvatureConfig:
    """Radii and thresholds for the 3-d curvature features."""

    neighborhood_radius: float = 0.02   # meters, surface-fit neighborhood
    zero_eps: float = 0.5               # 1/meters, |.| <= eps counts as zero in HK signs
    landmark_region_radius: float = 0.02  # meters, sphere around each landmark

    def __post_init__(self):
        if not (self.neighborhood_radius > 0 and self.landmark_region_radius > 0):
            raise ValueError("radii must be positive")
        if not self.zero_eps > 0:
            raise ValueError("zero_eps must be positive")


def _curvatures_from_neighbors(neighbors: np.ndarray, point: np.ndarray,
                               toward: np.ndarray) -> PrincipalCurvatures:
    """Principal curvatures at ``point`` from its neighborhood: the fit of
    _fit_block for a single vertex."""
    if neighbors.shape[0] < 10:
        raise ValueError(f"need at least 10 neighbors, got {neighbors.shape[0]}")
    p_min, p_max, valid = _fit_block(neighbors, point[None], [np.arange(neighbors.shape[0])],
                                     toward)
    if not valid[0]:
        raise DegenerateSurfaceError(
            "rank-deficient cubic fit or non-finite curvature; neighborhood is degenerate")
    return PrincipalCurvatures(p_min=float(p_min[0]), p_max=float(p_max[0]))


def _weingarten(coeffs, scale):
    """(p_min, p_max) from cubic height-field coefficients (last axis, in
    _fit_block's basis order) fitted in coordinates divided by ``scale``.
    Works elementwise on arrays of fits."""
    # Derivatives at the origin; cubic terms contribute nothing there.
    h_u, h_v = coeffs[..., 1], coeffs[..., 2]
    h_uu = 2.0 * coeffs[..., 3] / scale
    h_uv = coeffs[..., 4] / scale
    h_vv = 2.0 * coeffs[..., 5] / scale

    e = 1.0 + h_u * h_u
    f = h_u * h_v
    g = 1.0 + h_v * h_v
    norm = np.sqrt(1.0 + h_u * h_u + h_v * h_v)
    l = h_uu / norm
    m = h_uv / norm
    n = h_vv / norm

    det_i = e * g - f * f
    k = (l * n - m * m) / det_i
    h = (e * n - 2.0 * f * m + g * l) / (2.0 * det_i)
    root = np.sqrt(np.maximum(h * h - k, 0.0))
    return h - root, h + root


def estimate_principal_curvatures(cloud: PointCloudFrame, point, radius: float,
                                  toward=(0.0, 0.0, -1.0)) -> PrincipalCurvatures:
    """Principal curvatures of the cloud surface at ``point`` using neighbors
    within ``radius``. Raises if fewer than 10 neighbors are found or the
    neighborhood does not determine a surface."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    p = np.asarray(point, dtype=np.float64).reshape(3)
    tree = cKDTree(cloud.points)
    idx = tree.query_ball_point(p, r=radius)
    return _curvatures_from_neighbors(cloud.points[idx], p,
                                      np.asarray(toward, dtype=np.float64))


def gaussian_mean_curvature(pc: PrincipalCurvatures) -> tuple[float, float]:
    """(K, H): product and average of the principal curvatures."""
    return pc.p_min * pc.p_max, 0.5 * (pc.p_min + pc.p_max)


# Surface type bin by [sign K + 1, sign H + 1], signs in (-1, 0, 1).
_HK_SIGN_BINS = np.array([[t.value for t in row] for row in (
    (SurfaceType.SADDLE_VALLEY, SurfaceType.MINIMAL_SURFACE, SurfaceType.SADDLE_RIDGE),  # K < 0
    (SurfaceType.VALLEY, SurfaceType.FLAT, SurfaceType.RIDGE),                           # K = 0
    (SurfaceType.PIT, SurfaceType.UNDEFINED, SurfaceType.PEAK),                          # K > 0
)])  # columns: H < 0, H = 0, H > 0


def hk_classify(k: float, h: float, zero_eps: float = 0.5) -> SurfaceType:
    """Nine-way surface type from the signs of K and H; values within
    zero_eps of zero count as zero."""
    if not zero_eps > 0:
        raise ValueError("zero_eps must be positive")
    return SurfaceType(int(_hk_bins(np.array([k], dtype=np.float64),
                                    np.array([h], dtype=np.float64), zero_eps)[0]))


def _hk_bins(k: np.ndarray, h: np.ndarray, zero_eps: float) -> np.ndarray:
    """SurfaceType bin numbers from the signs of k and h, elementwise; values
    within zero_eps of zero count as zero."""
    sk = np.where(np.abs(k) <= zero_eps, 0, np.where(k > 0, 1, -1))
    sh = np.where(np.abs(h) <= zero_eps, 0, np.where(h > 0, 1, -1))
    return _HK_SIGN_BINS[sk + 1, sh + 1]


def shape_index(pc: PrincipalCurvatures) -> float:
    """Shape index in [0, 1]: 1/2 - (1/pi) * atan((p_max+p_min)/(p_max-p_min)).

    Umbilic points (p_max == p_min) take the limit value: 0 for a positive
    pair, 1 for a negative pair, and 0.5 for the flat point.
    """
    return float(_shape_indices(np.array([pc.p_min], dtype=np.float64),
                                np.array([pc.p_max], dtype=np.float64))[0])


def quantize_si(si: float) -> int:
    """Nearest of the nine shape-index bin centers {0, 0.125, ..., 1};
    midpoints round toward the saddle (0.5)."""
    if not 0.0 <= si <= 1.0:
        raise ValueError(f"shape index must lie in [0, 1], got {si}")
    return int(_quantize_si_bins(np.array([si], dtype=np.float64))[0])


def _shape_indices(p_min: np.ndarray, p_max: np.ndarray) -> np.ndarray:
    """shape_index over float64 arrays of principal-curvature pairs."""
    spread = p_max - p_min
    total = p_max + p_min
    ratio = np.divide(total, spread, out=np.zeros_like(total), where=spread != 0.0)
    # math.atan rather than np.arctan: numpy's SIMD arctan can differ from
    # libm's by an ulp, which could move a shape index across a bin edge.
    atan = np.fromiter(map(math.atan, ratio), dtype=np.float64, count=ratio.shape[0])
    si = np.clip(0.5 - atan / math.pi, 0.0, 1.0)
    umbilic = np.where(total > 0.0, 0.0, np.where(total < 0.0, 1.0, 0.5))
    return np.where(spread == 0.0, umbilic, si)


def _quantize_si_bins(si: np.ndarray) -> np.ndarray:
    """Nearest of the nine bin centers for each shape index in [0, 1];
    midpoints round toward the saddle (0.5)."""
    centers = np.asarray(SI_BIN_CENTERS)
    low = np.floor(si * 8).astype(np.intp)
    high = np.minimum(low + 1, 8)
    d_low = np.abs(si - centers[low])
    d_high = np.abs(si - centers[high])
    toward_saddle = np.abs(centers[high] - 0.5) < np.abs(centers[low] - 0.5)
    return np.where((d_high < d_low) | ((d_high == d_low) & toward_saddle), high, low)


def _vertex_bins(kind: str, p_min: np.ndarray, p_max: np.ndarray,
                 zero_eps: float) -> np.ndarray:
    """Per-vertex histogram bin of the "si" or "hk" feature."""
    if kind == "si":
        return _quantize_si_bins(_shape_indices(p_min, p_max))
    return _hk_bins(p_min * p_max, 0.5 * (p_min + p_max), zero_eps)


# Vertices per batched fit. The padded neighbourhood arrays grow with the
# block size times the largest neighbourhood, so a fixed block bounds memory.
_FIT_BLOCK = 128

# Smallest certified lower bound on sigma_min / sigma_max of a fit's basis
# that the normal equations may solve. lstsq's rank rule drops a singular
# value only below max(m, 10) * eps of the largest, under 1e-13 for any
# neighbourhood of fewer than 450 points, so a certified basis has full rank
# by a wide margin and its least-squares solution is the unique one. Below
# the bound, the SVD decides the rank.
_CERTIFIED_CONDITION = 1e-4


def _batched_curvatures(points: np.ndarray, tree: cKDTree, vertex_idx, radius: float,
                        toward: np.ndarray):
    """Principal curvatures at ``points[vertex_idx]`` from the neighbors
    within ``radius``, fitted _FIT_BLOCK vertices at a time.

    Blocks are formed in order of neighbourhood size (then vertex index), so
    each block pads to its own sizes and a vertex's result does not depend on
    the order of ``vertex_idx``.

    Returns (p_min, p_max, valid) arrays. ``valid`` is False where the fit
    fails: fewer than 10 neighbors within ``radius``, a rank-deficient cubic
    fit, or non-finite curvatures; p_min and p_max are 0 there.
    """
    vertex_idx = np.asarray(vertex_idx, dtype=np.intp)
    n = vertex_idx.shape[0]
    p_min, p_max, valid = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    neighbourhoods = tree.query_ball_point(points[vertex_idx], r=radius)
    counts = np.fromiter(map(len, neighbourhoods), dtype=np.intp, count=n)
    order = np.lexsort((vertex_idx, counts))
    order = order[counts[order] >= 10]  # the rest stay invalid
    for start in range(0, order.shape[0], _FIT_BLOCK):
        block = order[start:start + _FIT_BLOCK]
        p_min[block], p_max[block], valid[block] = _fit_block(
            points, points[vertex_idx[block]], neighbourhoods[block], toward)
    return p_min, p_max, valid


def _fit_block(points, centres, neighbourhoods, toward):
    """Principal curvatures at each of ``centres`` from the ``points`` listed
    in its entry of ``neighbourhoods``; returns (p_min, p_max, valid).

    The neighborhood covariance gives a local frame (normal = smallest
    principal axis, oriented along ``toward``); the height field over the
    tangent plane is fit with a full cubic bivariate polynomial by least
    squares (_certified_lstsq, else _svd_lstsq), and the Weingarten map is
    assembled from the fit's first- and second-order coefficients at the
    origin. Neighbourhoods are padded to a common width;
    padded rows are zero in every array below, so they add nothing to the
    covariances and the fits.
    """
    counts = np.fromiter(map(len, neighbourhoods), dtype=np.intp, count=len(neighbourhoods))
    mask = np.arange(max(int(counts.max()), 10)) < counts[:, None]
    idx = np.zeros(mask.shape, dtype=np.intp)
    idx[mask] = np.fromiter(chain.from_iterable(neighbourhoods), dtype=np.intp,
                            count=int(counts.sum()))
    inside = mask[..., None]
    neighbors = np.where(inside, points[idx], 0.0)

    mean = neighbors.sum(axis=1) / np.maximum(counts, 1)[:, None]
    centered = np.where(inside, neighbors - mean[:, None, :], 0.0)
    _, eigvecs = np.linalg.eigh(centered.transpose(0, 2, 1) @ centered)
    normal = eigvecs[:, :, 0]
    normal = np.where((normal @ toward < 0)[:, None], -normal, normal)
    frame = np.stack([eigvecs[:, :, 2], eigvecs[:, :, 1], normal], axis=2)

    rel = np.where(inside, neighbors - centres[:, None, :], 0.0)
    scale = np.maximum(np.linalg.norm(rel, axis=2).max(axis=1), 1e-12)
    u, v, z = np.moveaxis((rel @ frame) / scale[:, None, None], 2, 0)
    # One contiguous slab per monomial, viewed as (vertex, neighbor, monomial);
    # cubes as products, since np.power calls libm pow element by element.
    uu, uv, vv = u * u, u * v, v * v
    basis = np.stack([mask, u, v, uu, uv, vv, uu * u, uu * v, uv * v, vv * v],
                     axis=1, dtype=np.float64).transpose(0, 2, 1)

    coeffs, full_rank = _certified_lstsq(basis, z)
    rest = ~full_rank
    if rest.any():
        coeffs[rest], full_rank[rest] = _svd_lstsq(basis[rest], z[rest], counts[rest])

    p_min, p_max = _weingarten(coeffs, scale)
    valid = (counts >= 10) & full_rank & np.isfinite(p_min) & np.isfinite(p_max)
    return np.where(valid, p_min, 0.0), np.where(valid, p_max, 0.0), valid


def _each_matrix(fn, stack):
    """(fn(stack), ok): a batched linalg function over a stack of matrices.
    Where fn raises LinAlgError on a matrix, that matrix alone gets the
    identity and ok False; numpy would fail the whole stack."""
    try:
        return fn(stack), np.ones(stack.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.broadcast_to(np.eye(stack.shape[-1]), stack.shape).copy()
    ok = np.zeros(stack.shape[0], dtype=bool)
    for i, matrix in enumerate(stack):
        try:
            out[i] = fn(matrix)
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return out, ok


def _certified_lstsq(basis, z):
    """(coeffs, certified): least squares of ``z`` over each ``basis`` by the
    normal equations, where the Cholesky factor L of the Gram matrix
    G = B^T B certifies that B has full rank by a wide margin.

    sigma_min(B) = 1 / ||L^-1||_2 >= 1 / ||L^-1||_F and sigma_max(B) <=
    sqrt(trace G), so their quotient bounds sigma_min / sigma_max from
    below; it must reach _CERTIFIED_CONDITION. One step of iterative
    refinement, with the residual taken in the original basis, brings the
    solution to about the accuracy of lstsq. Coefficients are 0 where not
    certified.
    """
    basis_t = basis.transpose(0, 2, 1)
    gram = basis_t @ basis
    chol, factored = _each_matrix(np.linalg.cholesky, gram)
    inv_chol, inverted = _each_matrix(np.linalg.inv, chol)
    with np.errstate(over="ignore"):  # an inverse too large to square is not certified
        bound = 1.0 / np.sqrt(np.square(inv_chol).sum(axis=(1, 2))
                              * np.trace(gram, axis1=1, axis2=2))
    certified = factored & inverted & (bound >= _CERTIFIED_CONDITION)
    inv_chol = np.where(certified[:, None, None], inv_chol, 0.0)

    def solve(rhs):  # G^-1 rhs as L^-T (L^-1 rhs)
        return (inv_chol.transpose(0, 2, 1) @ (inv_chol @ rhs[..., None]))[..., 0]

    coeffs = solve((basis_t @ z[..., None])[..., 0])
    residual = z - (basis @ coeffs[..., None])[..., 0]
    coeffs += solve((basis_t @ residual[..., None])[..., 0])
    return coeffs, certified


def _svd_lstsq(basis, z, counts):
    """(coeffs, full_rank): least squares through the SVD with lstsq's rank
    rule (rcond = eps times the larger dimension of the unpadded system)."""
    left, sv, right_t = np.linalg.svd(basis, full_matrices=False)
    keep = sv > sv[:, :1] * (np.maximum(counts, 10) * np.finfo(np.float64).eps)[:, None]
    inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    proj = (left.transpose(0, 2, 1) @ z[..., None])[..., 0] * inv_sv
    coeffs = (right_t.transpose(0, 2, 1) @ proj[..., None])[..., 0]
    return coeffs, keep.all(axis=1)


def _region_histogram(landmark, bins: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Nine-bin frequencies of one landmark region from its vertices' bins,
    over the vertices with a valid estimate."""
    where = np.asarray(landmark).tolist()
    if bins.shape[0] < 10:
        raise ValueError(f"landmark region at {where} has {bins.shape[0]} points, need >= 10")
    n_ok = int(np.count_nonzero(valid))
    if n_ok < 10:
        raise ValueError(f"landmark region at {where}: only {n_ok} vertices had a valid estimate")
    return np.bincount(bins[valid], minlength=9) / n_ok


def landmark_local_histogram(cloud: PointCloudFrame, landmark, region_radius: float,
                             kind: str, config: CurvatureConfig,
                             toward=(0.0, 0.0, -1.0), tree: cKDTree | None = None) -> np.ndarray:
    """Nine-bin curvature-feature frequencies over the spherical region
    around one landmark.

    ``kind`` is "si" (quantized shape index) or "hk" (surface types in
    SurfaceType order). Frequencies are counts divided by the number of
    region vertices with a valid estimate, so the histogram sums to 1;
    vertices whose fit fails (speckle, degenerate neighborhood) are dropped.
    A prebuilt KD-tree over cloud.points may be passed to amortize repeated
    calls on the same frame.
    """
    kind = kind.lower()
    if kind not in ("si", "hk"):
        raise ValueError(f"kind must be 'si' or 'hk', got {kind!r}")
    if not region_radius > 0:
        raise ValueError("region radius must be positive")

    lm = np.asarray(landmark, dtype=np.float64).reshape(3)
    if tree is None:
        tree = cKDTree(cloud.points)
    region_idx = tree.query_ball_point(lm, r=region_radius)
    p_min, p_max, valid = _batched_curvatures(cloud.points, tree, region_idx,
                                              config.neighborhood_radius,
                                              np.asarray(toward, dtype=np.float64))
    return _region_histogram(lm, _vertex_bins(kind, p_min, p_max, config.zero_eps), valid)


@functools.cache
def _store_salt() -> bytes:
    """Everything a stored field depends on besides its inputs: this module's
    source and the numpy and scipy versions."""
    return b"\0".join([Path(__file__).read_bytes(), np.__version__.encode(),
                       scipy.__version__.encode()])


def _field_key(points, marks, config: CurvatureConfig, toward) -> str:
    """Store key of one frame's field: the salt, the frame's points, the
    subset's landmarks, both radii and ``toward``. zero_eps only affects
    binning, so every kind and zero_eps share one entry."""
    h = hashlib.sha256(_store_salt())
    for array in (points, marks, toward):
        array = np.ascontiguousarray(array, dtype=np.float64)
        h.update(f"\0{array.shape}\0".encode())
        h.update(array.tobytes())
    h.update(f"{config.neighborhood_radius!r};{config.landmark_region_radius!r}".encode())
    return h.hexdigest()


def _load_field(path: Path, n: int):
    """(p_min, p_max, valid) of the entry at ``path`` over ``n`` vertices, or
    None when it is missing, unreadable or malformed."""
    try:
        field = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if not (isinstance(field, np.ndarray) and field.dtype == np.float64
            and field.shape == (3, n) and np.isin(field[2], (0.0, 1.0)).all()):
        return None
    return field[0], field[1], field[2] == 1.0


def _save_field(path: Path, p_min, p_max, valid) -> None:
    """Write an entry through a temporary file and a rename, so that neither
    a concurrent reader nor an interrupted run sees a partial entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, np.stack([p_min, p_max, valid]).astype(np.float64), allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _frame_field(points, marks, config: CurvatureConfig, toward, store):
    """(regions, union, p_min, p_max, valid): the vertex indices of each
    landmark region of one frame, their sorted union, and the curvature field
    over the union.

    With a ``store`` directory the field is read from the entry keyed by
    _field_key, and fitted and written there when the entry is missing or
    damaged; without one it is always fitted.
    """
    tree = cKDTree(points)
    regions = tree.query_ball_point(marks, r=config.landmark_region_radius)
    union = np.unique(np.fromiter(chain.from_iterable(regions), dtype=np.intp))
    field = None
    if store is not None:
        path = Path(store) / f"{_field_key(points, marks, config, toward)}.npy"
        field = _load_field(path, union.shape[0])
    if field is None:
        field = _batched_curvatures(points, tree, union, config.neighborhood_radius, toward)
        if store is not None:
            _save_field(path, *field)
    return (regions, union, *field)


def curvature_frame_ids(record, frames: str = "onset-apex") -> list[int]:
    """The frames whose curvature a 3-d feature uses, in feature order:
    onset and apex for "onset-apex", every frame from onset to offset for
    "all"."""
    if frames == "onset-apex":
        return [record.onset, record.apex]
    if frames == "all":
        return list(range(record.onset, record.offset + 1))
    raise ValueError(f"frames must be 'onset-apex' or 'all', got {frames!r}")


def sequence_feature(sample, record, weights, kind: str, config: CurvatureConfig,
                     frames: str = "onset-apex", subset=None,
                     toward=(0.0, 0.0, -1.0), store=None) -> FeatureVector:
    """Weighted landmark-local curvature feature of a whole sample.

    For each landmark of the 32-point subset, the per-frame nine-bin
    histograms over the selected frames are concatenated and scaled by that
    landmark's weight; landmark blocks are then concatenated in subset
    order. ``kind`` is "si", "hk", or "sihk" (the si feature followed by the
    hk feature). ``frames`` selects "onset-apex" (default; two frames) or
    "all" (every frame from onset to offset); see curvature_frame_ids. Only
    those frames' clouds are used, so the others may be None.

    Each selected frame is fitted once, over the union of its landmark
    regions; every region and both kinds read their bins from that one fit.
    ``store``, a directory, keeps each frame's fit across calls (see
    _frame_field), so other kinds and zero_eps values reuse it.
    """
    kind = kind.lower()
    if kind not in ("si", "hk", "sihk"):
        raise ValueError(f"kind must be 'si', 'hk' or 'sihk', got {kind!r}")
    kinds = ("si", "hk") if kind == "sihk" else (kind,)
    subset = tuple(subset) if subset is not None else DEFAULT_LANDMARK_SUBSET
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.shape[0] != len(subset):
        raise ValueError(f"need one weight per subset landmark "
                         f"({len(subset)}), got {weights.shape[0]}")
    frame_ids = curvature_frame_ids(record, frames)

    if sample.landmarks3d is None:
        raise ValueError("sample has no 3-d landmarks")
    for t in frame_ids:
        if t >= len(sample.clouds):
            raise ValueError(f"frame {t} not present in the sample ({len(sample.clouds)} frames)")
        if sample.clouds[t] is None:
            raise ValueError(f"the cloud of frame {t} was not read")

    toward_v = np.asarray(toward, dtype=np.float64)
    fits = {}
    for t in dict.fromkeys(frame_ids):
        regions, union, p_min, p_max, valid = _frame_field(
            sample.clouds[t].points, sample.landmarks3d[t][list(subset)], config, toward_v,
            store)
        bins = {k: _vertex_bins(k, p_min, p_max, config.zero_eps) for k in kinds}
        fits[t] = (regions, union, valid, bins)

    parts = {k: [] for k in kinds}
    for j, lm_idx in enumerate(subset):
        for t in frame_ids:
            regions, union, valid, bins = fits[t]
            pos = np.searchsorted(union, np.asarray(regions[j], dtype=np.intp))
            for k in kinds:
                try:
                    hist = _region_histogram(sample.landmarks3d[t][lm_idx],
                                             bins[k][pos], valid[pos])
                except ValueError as exc:
                    raise ValueError(f"landmark {lm_idx} (frame {t}): {exc}") from None
                parts[k].append(weights[j] * hist)

    return FeatureVector(np.concatenate([p for k in kinds for p in parts[k]]), tag=f"3d-{kind}")
