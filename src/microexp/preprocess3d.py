"""Point-cloud preprocessing: denoising, nose-tip localization, spherical
face cropping, and rigid registration of frame sequences.

Clouds are in meters, in sensor coordinates with +z pointing away from the
camera (so the nose tip is the minimum-z point by default). Every frame of a
sequence is aligned to the first frame with point-to-point ICP and the same
transform is applied to that frame's landmarks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

FACE_CROP_RADIUS = 0.1  # meters, spherical crop around the nose tip

# Nose-tip robustness constants: depth slab behind the extremum, and the
# density test that rejects isolated speckle points.
NOSE_SLAB = 0.002
NOSE_DENSITY_RADIUS = 0.005
NOSE_MIN_NEIGHBORS = 5


@dataclass(frozen=True)
class PointCloudFrame:
    """Unordered 3-d points in meters."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, mask_or_idx) -> "PointCloudFrame":
        """Sub-cloud by boolean mask or index array, order preserved."""
        return PointCloudFrame(self.points[mask_or_idx])


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (proper, det = +1) plus translation, p -> R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise ValueError("rotation matrix is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation matrix must have det +1 (no reflection)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.rotation.T + self.translation

    def apply_cloud(self, frame: PointCloudFrame) -> PointCloudFrame:
        return PointCloudFrame(self.apply(frame.points))

    def compose(self, inner: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying ``inner`` first, then self."""
        return RigidTransform(self.rotation @ inner.rotation,
                              self.rotation @ inner.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


def denoise(frame: PointCloudFrame, k: int = 8, sigma_mult: float = 2.0) -> PointCloudFrame:
    """Statistical outlier removal.

    Drops points whose mean distance to their k nearest neighbors exceeds
    mean + sigma_mult * std of that statistic over the cloud. Never adds
    points; order is preserved.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = len(frame)
    if n == 0:
        raise ValueError("cannot denoise an empty cloud")
    if n < k + 1:
        raise ValueError(f"cloud has {n} points, need at least k+1={k + 1}")
    tree = cKDTree(frame.points)
    dists, _ = tree.query(frame.points, k=k + 1)  # first neighbor is the point itself
    mean_dist = dists[:, 1:].mean(axis=1)
    threshold = mean_dist.mean() + sigma_mult * mean_dist.std()
    return frame.select(mean_dist <= threshold)


def find_nose_tip(frame: PointCloudFrame, tip_at: str = "min") -> np.ndarray:
    """Locate the nose tip as the robust depth extremum of a face cloud.

    Points need NOSE_MIN_NEIGHBORS neighbors within NOSE_DENSITY_RADIUS to
    count (rejects speckle); among the surviving points, those within
    NOSE_SLAB of the extremal z form the tip slab, and the slab point
    nearest the slab centroid is returned.

    tip_at selects whether the tip is the minimum-z or maximum-z point
    (depends on the sensor's depth-axis convention).
    """
    if tip_at not in ("min", "max"):
        raise ValueError(f"tip_at must be 'min' or 'max', got {tip_at!r}")
    n = len(frame)
    if n == 0:
        raise ValueError("cannot find nose tip of an empty cloud")

    tree = cKDTree(frame.points)
    counts = tree.query_ball_point(frame.points, r=NOSE_DENSITY_RADIUS, return_length=True)
    dense = counts >= NOSE_MIN_NEIGHBORS + 1  # ball count includes the point itself
    if not np.any(dense):
        raise ValueError("no dense region found; cloud looks like speckle")

    pts = frame.points[dense]
    z = pts[:, 2]
    if tip_at == "min":
        slab = z <= z.min() + NOSE_SLAB
    else:
        slab = z >= z.max() - NOSE_SLAB
    slab_pts = pts[slab]
    if slab_pts.shape[0] > 0.5 * pts.shape[0]:
        warnings.warn("depth slab covers most of the cloud; nose-tip localization "
                      "is unreliable on near-planar geometry", stacklevel=2)
    centroid = slab_pts.mean(axis=0)
    nearest = np.argmin(np.linalg.norm(slab_pts - centroid, axis=1))
    return slab_pts[nearest].copy()


def spherical_crop(frame: PointCloudFrame, center, radius: float) -> PointCloudFrame:
    """Keep exactly the points with ||p - center|| <= radius, order preserved."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    c = np.asarray(center, dtype=np.float64).reshape(3)
    dist = np.linalg.norm(frame.points - c, axis=1)
    return frame.select(dist <= radius)


def _best_fit_rigid(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping paired source points onto target
    (cross-covariance SVD, reflection-corrected)."""
    src_mean = source.mean(axis=0)
    tgt_mean = target.mean(axis=0)
    h = (source - src_mean).T @ (target - tgt_mean)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    # Re-orthonormalize to keep the RigidTransform invariants airtight.
    uu, _, vv = np.linalg.svd(r)
    r = uu @ vv
    t = tgt_mean - r @ src_mean
    return RigidTransform(r, t)


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    residual: float  # mean closest-point distance after alignment
    converged: bool
    n_iter: int
    residual_history: tuple[float, ...] = field(default=())


def icp_align(moving: PointCloudFrame, fixed: PointCloudFrame,
              max_iter: int = 50, tol: float = 1e-6, *, tree: cKDTree | None = None) -> IcpResult:
    """Point-to-point ICP aligning ``moving`` onto ``fixed``.

    Correspondences come from a nearest-neighbor spatial index over the
    fixed cloud; each iteration refits the absolute transform with the
    closed-form cross-covariance solution. Stops when the mean residual
    change drops below ``tol`` or after ``max_iter`` iterations; an
    iteration that would increase the residual is rejected, so the recorded
    residual history is non-increasing and the best transform so far is
    returned. A prebuilt KD-tree over fixed.points may be passed to amortize
    repeated alignments onto the same frame.
    """
    if len(moving) < 50 or len(fixed) < 50:
        raise ValueError("ICP needs at least 50 points in each cloud")

    if tree is None:
        tree = cKDTree(fixed.points)
    src = moving.points
    transform = RigidTransform.identity()

    dists, idx = tree.query(src)
    residual = float(dists.mean())
    history = [residual]
    converged = False
    n_iter = 0

    for n_iter in range(1, max_iter + 1):
        candidate = _best_fit_rigid(src, fixed.points[idx])
        moved = candidate.apply(src)
        dists, new_idx = tree.query(moved)
        new_residual = float(dists.mean())
        if new_residual > residual:
            # Mean-distance objective would rise: keep the best so far.
            converged = True
            break
        transform = candidate
        idx = new_idx
        improvement = residual - new_residual
        residual = new_residual
        history.append(residual)
        if improvement < tol:
            converged = True
            break

    return IcpResult(transform=transform, residual=residual, converged=converged,
                     n_iter=n_iter, residual_history=tuple(history))


@dataclass(frozen=True)
class RegisteredSequence:
    clouds: tuple[PointCloudFrame, ...]
    landmarks: tuple[np.ndarray, ...] | None
    transforms: tuple[RigidTransform, ...]
    residuals: tuple[float, ...]
    converged: tuple[bool, ...]


def register_sequence(clouds, landmarks3d=None, max_iter: int = 50,
                      tol: float = 1e-6) -> RegisteredSequence:
    """Align every frame to the first frame and carry landmarks along.

    Frame 0 keeps the identity transform; each later frame gets the ICP
    transform of (frame_t -> frame_0), applied both to its cloud and to its
    landmark points.
    """
    clouds = list(clouds)
    if len(clouds) < 2:
        raise ValueError("sequence registration needs at least 2 frames")
    if landmarks3d is not None:
        landmarks3d = [np.asarray(lm, dtype=np.float64) for lm in landmarks3d]
        if len(landmarks3d) != len(clouds):
            raise ValueError("one landmark array per frame required")

    aligned_clouds = [clouds[0]]
    aligned_marks = [landmarks3d[0]] if landmarks3d is not None else None
    transforms = [RigidTransform.identity()]
    residuals = [0.0]
    converged = [True]

    tree = cKDTree(clouds[0].points)  # every frame aligns onto frame 0
    for t in range(1, len(clouds)):
        result = icp_align(clouds[t], clouds[0], max_iter=max_iter, tol=tol, tree=tree)
        transforms.append(result.transform)
        residuals.append(result.residual)
        converged.append(result.converged)
        aligned_clouds.append(result.transform.apply_cloud(clouds[t]))
        if aligned_marks is not None:
            aligned_marks.append(result.transform.apply(landmarks3d[t]))

    return RegisteredSequence(
        clouds=tuple(aligned_clouds),
        landmarks=tuple(aligned_marks) if aligned_marks is not None else None,
        transforms=tuple(transforms),
        residuals=tuple(residuals),
        converged=tuple(converged),
    )
