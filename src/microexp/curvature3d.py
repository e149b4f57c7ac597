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
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

from . import fileio
from .lbptop import FeatureVector

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


# Surface type bin by [sign K + 1, sign H + 1], signs in (-1, 0, 1).
_HK_SIGN_BINS = np.array([[t.value for t in row] for row in (
    (SurfaceType.SADDLE_VALLEY, SurfaceType.MINIMAL_SURFACE, SurfaceType.SADDLE_RIDGE),  # K < 0
    (SurfaceType.VALLEY, SurfaceType.FLAT, SurfaceType.RIDGE),                           # K = 0
    (SurfaceType.PIT, SurfaceType.UNDEFINED, SurfaceType.PEAK),                          # K > 0
)])  # columns: H < 0, H = 0, H > 0


def hk_classify(k, h, zero_eps: float) -> np.ndarray:
    """SurfaceType bin numbers from the signs of Gaussian curvature ``k`` and
    mean curvature ``h``, elementwise; values within zero_eps of zero count
    as zero."""
    if not zero_eps > 0:
        raise ValueError("zero_eps must be positive")
    sk = np.where(np.abs(k) <= zero_eps, 0, np.where(np.greater(k, 0), 1, -1))
    sh = np.where(np.abs(h) <= zero_eps, 0, np.where(np.greater(h, 0), 1, -1))
    return _HK_SIGN_BINS[sk + 1, sh + 1]


def shape_index(p_min, p_max) -> np.ndarray:
    """Shape index in [0, 1] of each principal-curvature pair (1-d arrays):
    1/2 - (1/pi) * atan((p_max+p_min)/(p_max-p_min)).

    Umbilic points (p_max == p_min) take the limit value: 0 for a positive
    pair, 1 for a negative pair, and 0.5 for the flat point.
    """
    p_min = np.asarray(p_min, dtype=np.float64)
    p_max = np.asarray(p_max, dtype=np.float64)
    spread = p_max - p_min
    total = p_max + p_min
    ratio = np.divide(total, spread, out=np.zeros_like(total), where=spread != 0.0)
    # math.atan rather than np.arctan: numpy's SIMD arctan can differ from
    # libm's by an ulp, which could move a shape index across a bin edge.
    atan = np.fromiter(map(math.atan, ratio), dtype=np.float64, count=ratio.shape[0])
    si = np.clip(0.5 - atan / math.pi, 0.0, 1.0)
    umbilic = np.where(total > 0.0, 0.0, np.where(total < 0.0, 1.0, 0.5))
    return np.where(spread == 0.0, umbilic, si)


def quantize_si(si) -> np.ndarray:
    """Nearest of the nine bin centers {0, 0.125, ..., 1} for each shape
    index; midpoints round toward the saddle (0.5). Raises ValueError for a
    value outside [0, 1]."""
    si = np.asarray(si, dtype=np.float64)
    outside = ~((si >= 0.0) & (si <= 1.0))
    if outside.any():
        raise ValueError(f"shape index must lie in [0, 1], got {si[outside].flat[0]}")
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
        return quantize_si(shape_index(p_min, p_max))
    return hk_classify(p_min * p_max, 0.5 * (p_min + p_max), zero_eps)


# Vertices per batched fit. A fit holds one block's neighbourhoods at a time,
# so its memory grows with the block size times the widest neighbourhood.
_FIT_BLOCK = 128

# Smallest certified lower bound on sigma_min / sigma_max of a fit's basis
# that the normal equations may solve. lstsq's rank rule drops a singular
# value only below max(m, 10) * eps of the largest, under 1e-13 for any
# neighbourhood of fewer than 450 points, so a certified basis has full rank
# by a wide margin and its least-squares solution is the unique one. Below
# the bound, the SVD decides the rank.
_CERTIFIED_CONDITION = 1e-4


def _neighbours(tree: cKDTree, centres, radius: float):
    """(indices, counts): the points of ``tree`` within ``radius`` of each of
    ``centres``, as one index array ordered centre after centre and by
    increasing point index within each centre, and the count per centre."""
    pairs = cKDTree(centres).sparse_distance_matrix(tree, radius, output_type="ndarray")
    keys = np.sort(pairs["i"] * tree.n + pairs["j"])
    return keys % tree.n, np.bincount(keys // tree.n, minlength=len(centres))


def principal_curvatures(points: np.ndarray, tree: cKDTree, vertex_idx, radius: float,
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
    counts = tree.query_ball_point(points[vertex_idx], r=radius, return_length=True)
    order = np.lexsort((vertex_idx, counts))
    order = order[counts[order] >= 10]  # the rest stay invalid
    coords = np.ascontiguousarray(points.T)
    for start in range(0, order.shape[0], _FIT_BLOCK):
        block = order[start:start + _FIT_BLOCK]
        vertices = vertex_idx[block]
        p_min[block], p_max[block], valid[block] = _fit_block(
            coords, vertices, *_neighbours(tree, points[vertices], radius), toward)
    return p_min, p_max, valid


def _fit_block(coords, vertices, indices, counts, toward):
    """Principal curvatures at each of ``vertices`` from its ``counts`` entry
    of ``indices`` (see _neighbours); ``coords`` holds the cloud one row per
    axis, so both index its columns. Returns (p_min, p_max, valid).

    The neighborhood covariance gives a local frame (normal = smallest
    principal axis, oriented along ``toward``); the height field over the
    tangent plane is fit with a full cubic bivariate polynomial by least
    squares (_certified_lstsq, else _svd_lstsq), and the Weingarten map is
    assembled from the fit's first- and second-order coefficients at the
    origin. Neighbourhoods are padded to a common width with the vertex
    itself, so a padded slot's offset is exactly 0 and so is every monomial
    there but the constant, which the padding mask zeroes: padded slots add
    nothing to the covariances and the fits, whose sums follow the order of
    ``indices``.
    """
    mask = np.arange(max(int(counts.max()), 10)) < counts[:, None]
    idx = np.repeat(vertices[:, None], mask.shape[1], axis=1)
    idx[mask] = indices
    # (vertex, neighbour) planes: the x, y and z offsets from the vertex, then
    # the ten monomials of _weingarten's order; the constant one, the padding
    # mask, is shared, so planes[:4] and planes[3:] are each one operand.
    planes = np.empty((13, *mask.shape))
    np.take(coords, idx, axis=1, out=planes[:3])
    planes[:3] -= coords[:, vertices, None]
    planes[3] = mask
    rel = planes[:3].transpose(1, 0, 2)

    # Sums of 1, x, y, z and their products: the covariance about the mean is
    # sum rel rel^T - s s^T / n with s the offset sum, without a centred copy.
    sums = planes[:4].transpose(1, 0, 2) @ planes[:4].transpose(1, 2, 0)
    total = sums[:, 3, :3]
    _, eigvecs = np.linalg.eigh(sums[:, :3, :3] - total[:, :, None] * total[:, None, :]
                                / counts[:, None, None])
    normal = eigvecs[:, :, 0]
    normal = np.where((normal @ toward < 0)[:, None], -normal, normal)
    squares = np.square(planes[:3])
    scale = np.maximum(np.sqrt((squares[0] + squares[1] + squares[2]).max(axis=1)), 1e-12)
    # Rows u, v (largest, middle axis) and height along the normal, in units
    # of the scale.
    frame = np.stack([eigvecs[:, :, 2], eigvecs[:, :, 1], normal], axis=1) / scale[:, None, None]
    np.matmul(frame[:, :2], rel, out=planes[4:6].transpose(1, 0, 2))
    z = (frame[:, 2:] @ rel)[:, 0]
    # Cubes as products, since np.power calls libm pow element by element.
    u, v, uu, uv, vv = planes[4], planes[5], planes[6], planes[7], planes[8]
    np.multiply(u, u, out=uu)
    np.multiply(u, v, out=uv)
    np.multiply(v, v, out=vv)
    np.multiply(uu, u, out=planes[9])
    np.multiply(uu, v, out=planes[10])
    np.multiply(uv, v, out=planes[11])
    np.multiply(vv, v, out=planes[12])
    basis = planes[3:].transpose(1, 2, 0)  # (vertex, neighbor, monomial)

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


def _lower_inverse(chol):
    """L^-1 of each lower-triangular L in the stack ``chol``, one row at a
    time by forward substitution; exactly lower-triangular. A zero pivot, or
    an inverse too large for a float, leaves entries that are not finite."""
    lower = np.ascontiguousarray(chol.transpose(1, 2, 0))  # (row, column, matrix)
    inv = np.zeros(lower.shape)
    eye = np.eye(lower.shape[0])[:, :, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(lower.shape[0]):
            # Row i of L L^-1 = I: L[i, :i] L^-1[:i] + L[i, i] L^-1[i] = e_i.
            known = np.einsum("jm,jcm->cm", lower[i, :i], inv[:i])
            np.divide(eye[i] - known, lower[i, i], out=inv[i])
    return inv.transpose(2, 0, 1)


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
    inv_chol = _lower_inverse(chol)
    # An L^-1 that is not finite gives a bound of 0 or NaN: not certified.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 1.0 / np.sqrt(np.square(inv_chol).sum(axis=(1, 2))
                              * np.trace(gram, axis1=1, axis2=2))
    certified = factored & (bound >= _CERTIFIED_CONDITION)
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


@functools.cache
def _store_salt() -> bytes:
    """Everything a stored field depends on besides its inputs: this module's
    source and the numpy and scipy versions. No helper of the fit can be left
    out, at a price: any edit to the module, even one that changes no fit,
    renames every entry, so the next 3-d extract fits each frame again."""
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


def _frame_field(points, marks, config: CurvatureConfig, toward, store):
    """(sizes, members, p_min, p_max, valid) of one frame: the vertex count
    of each landmark region, each region's vertices (region after region) as
    positions in the sorted union of the regions, and the field over it.

    With a ``store`` directory the field is read from the entry keyed by
    _field_key, and fitted and written there (fileio.write_atomic) when the
    entry is missing or damaged; without one it is always fitted.
    """
    tree = cKDTree(points)
    members, sizes = _neighbours(tree, marks, config.landmark_region_radius)
    union, members = np.unique(members, return_inverse=True)
    field = None
    if store is not None:
        path = Path(store) / f"{_field_key(points, marks, config, toward)}.npy"
        field = _load_field(path, union.shape[0])
    if field is None:
        field = principal_curvatures(points, tree, union, config.neighborhood_radius, toward)
        if store is not None:
            entry = io.BytesIO()
            np.save(entry, np.stack(field).astype(np.float64), allow_pickle=False)
            path.parent.mkdir(parents=True, exist_ok=True)
            fileio.write_atomic(path, entry.getvalue())
    return (sizes, members, *field)


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
    regions, and each kind bins every region of the frame in one pass.
    ``store``, a directory, keeps each frame's fit across calls (see
    _frame_field), so other kinds and zero_eps values reuse it. The first
    region, in subset then frame order, of fewer than 10 vertices or valid
    estimates is a ValueError.
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
    n_marks = len(subset)
    fits = {}  # frame -> (region sizes, valid estimates per region, kind -> bin counts)
    for t in dict.fromkeys(frame_ids):
        sizes, members, p_min, p_max, valid = _frame_field(
            sample.clouds[t].points, sample.landmarks3d[t][list(subset)], config, toward_v,
            store)
        region = np.repeat(np.arange(n_marks), sizes)[valid[members]]
        members = members[valid[members]]
        fits[t] = (sizes, np.bincount(region, minlength=n_marks), {k: np.bincount(
            region * 9 + _vertex_bins(k, p_min, p_max, config.zero_eps)[members],
            minlength=9 * n_marks).reshape(n_marks, 9) for k in kinds})

    sizes, n_ok, counts = zip(*(fits[t] for t in frame_ids))
    sizes, n_ok = np.stack(sizes, axis=1), np.stack(n_ok, axis=1)  # (landmark, frame)
    bad = (sizes < 10) | (n_ok < 10)
    if bad.any():
        j, f = np.unravel_index(np.argmax(bad), bad.shape)
        problem = (f" has {sizes[j, f]} points, need >= 10" if sizes[j, f] < 10
                   else f": only {n_ok[j, f]} vertices had a valid estimate")
        raise ValueError(f"landmark {subset[j]} (frame {frame_ids[f]}): landmark region at "
                         f"{sample.landmarks3d[frame_ids[f]][subset[j]].tolist()}{problem}")

    # Per kind, landmark blocks of (frame, bin) frequencies scaled by the landmark's weight.
    parts = [weights[:, None, None] * (np.stack([c[k] for c in counts], axis=1)
                                       / n_ok[:, :, None]) for k in kinds]
    return FeatureVector(np.concatenate([p.ravel() for p in parts]), tag=f"3d-{kind}")
