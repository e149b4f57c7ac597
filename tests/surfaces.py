"""Analytic test surfaces with exact curvature oracles.

Sphere, plane, cylinder and face-proxy point clouds, each with the exact
principal curvatures of the noiseless surface at every sample site. The
face proxy is ``microexp.synth.FaceGeometry``, the height field the dataset
generator samples; its closed-form curvatures and nose tip live here, where
only tests use them.

Surfaces live in sensor coordinates (+z away from the camera, surfaces
bulging toward -z), so they exercise the same orientation conventions as
the real pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from microexp.preprocess3d import PointCloudFrame
from microexp.synth import _DEFAULT_FACE_BUMPS, FaceGeometry

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SurfaceSample:
    """A sampled analytic surface with its exact per-point curvature oracle."""

    cloud: PointCloudFrame
    principal: np.ndarray  # (N, 2): exact (p_min, p_max) of the noiseless surface
    meta: dict


def _rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _fibonacci_directions(n: int, u_min: float) -> np.ndarray:
    """Area-uniform lattice of unit directions with z-component in
    [-1, -u_min] (a cap around the -z pole; u_min = -1 gives the full
    sphere)."""
    i = np.arange(n) + 0.5
    u = 1.0 - (1.0 - u_min) * i / n  # u in (u_min, 1), area-uniform
    phi = 2.0 * math.pi * i / _GOLDEN
    s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), -u])


def _sphere_surface(params: dict, n_points: int, rng: np.random.Generator):
    radius = params.get("radius", 0.05)
    center = np.asarray(params.get("center", (0.0, 0.0, 0.4 + radius)), dtype=float)
    cap_deg = params.get("cap_deg", 360.0)
    if cap_deg >= 360.0:
        dirs = _fibonacci_directions(n_points, -1.0) @ _random_rotation(rng).T
    else:
        dirs = _fibonacci_directions(n_points, math.cos(math.radians(cap_deg / 2.0)))
        dirs = dirs @ _rotation_about_z(rng.uniform(0.0, 2.0 * math.pi)).T
    points = center + radius * dirs
    # Outward normal = dirs; it faces the sensor where its z-component is <= 0,
    # and the orientation convention flips the curvature sign on the far side.
    kappa = np.where(dirs[:, 2] <= 0.0, -1.0 / radius, 1.0 / radius)
    principal = np.column_stack([kappa, kappa])
    meta = {"kind": "sphere", "radius": radius, "center": center, "cap_deg": cap_deg}
    return points, principal, meta


def _plane_surface(params: dict, n_points: int, rng: np.random.Generator):
    size = params.get("size", 0.12)
    z0 = params.get("z", 0.4)
    xy = rng.uniform(-size / 2.0, size / 2.0, size=(n_points, 2))
    points = np.column_stack([xy, np.full(n_points, z0)])
    principal = np.zeros((n_points, 2))
    return points, principal, {"kind": "plane", "size": size, "z": z0}


def _cylinder_surface(params: dict, n_points: int, rng: np.random.Generator):
    radius = params.get("radius", 0.05)
    length = params.get("length", 0.12)
    arc_deg = params.get("arc_deg", 120.0)
    z0 = params.get("z", 0.4)
    half_arc = math.radians(arc_deg) / 2.0
    x = rng.uniform(-length / 2.0, length / 2.0, n_points)
    phi = rng.uniform(-half_arc, half_arc, n_points)
    points = np.column_stack([x, radius * np.sin(phi), z0 + radius * (1.0 - np.cos(phi))])
    # Curved direction bulges toward the sensor: (-1/r, 0); flat along the axis.
    principal = np.column_stack([np.full(n_points, -1.0 / radius), np.zeros(n_points)])
    return points, principal, {"kind": "cylinder", "radius": radius,
                               "length": length, "arc_deg": arc_deg}


def principal_curvatures(geometry: FaceGeometry, x, y) -> np.ndarray:
    """Exact (p_min, p_max) of the face height field with the normal oriented
    toward the sensor."""
    _, zx, zy, zxx, zxy, zyy = geometry.height_and_derivs(x, y)
    w2 = 1.0 + zx * zx + zy * zy
    w = np.sqrt(w2)
    k = (zxx * zyy - zxy * zxy) / (w2 * w2)
    h_up = ((1.0 + zy * zy) * zxx - 2.0 * zx * zy * zxy + (1.0 + zx * zx) * zyy) / (2.0 * w2 * w)
    h = -h_up  # flip: normal toward the sensor, not toward +z
    root = np.sqrt(np.clip(h * h - k, 0.0, None))
    return np.column_stack([np.atleast_1d(h - root), np.atleast_1d(h + root)])


def nose_tip(geometry: FaceGeometry) -> np.ndarray:
    """Analytic minimum of the face height field (grid-refined)."""
    a, b, _ = geometry.axes
    grid = np.linspace(-0.6, 0.6, 241)
    gx, gy = np.meshgrid(grid * a, grid * b)
    z = geometry.height(gx, gy)
    i = np.unravel_index(np.argmin(z), z.shape)
    return np.array([gx[i], gy[i], z[i]])


def _face_surface(params: dict, n_points: int, rng: np.random.Generator):
    geometry = params.get("geometry")
    if geometry is None:
        geometry = FaceGeometry(bumps=_DEFAULT_FACE_BUMPS)
    xy = geometry.sample_xy(n_points, rng)
    z = geometry.height(xy[:, 0], xy[:, 1])
    points = np.column_stack([xy, z])
    principal = principal_curvatures(geometry, xy[:, 0], xy[:, 1])
    meta = {"kind": "face_proxy", "geometry": geometry, "nose_tip": nose_tip(geometry)}
    return points, principal, meta


_SURFACES = {
    "sphere": _sphere_surface,
    "plane": _plane_surface,
    "cylinder": _cylinder_surface,
    "face_proxy": _face_surface,
}


def make_surface(kind: str, params: dict | None = None, n_points: int = 1000,
                 noise_sigma: float = 0.0, seed: int = 0) -> SurfaceSample:
    """Sample an analytic surface and return it with its curvature oracle.

    The oracle holds the exact principal curvatures of the noiseless surface
    at each sample site; ``noise_sigma`` adds isotropic Gaussian jitter to
    the returned points only.
    """
    if kind not in _SURFACES:
        raise ValueError(f"unknown surface kind {kind!r}; use one of {sorted(_SURFACES)}")
    if n_points < 100:
        raise ValueError(f"need at least 100 points, got {n_points}")
    rng = np.random.default_rng(seed)
    points, principal, meta = _SURFACES[kind](params or {}, n_points, rng)
    if noise_sigma > 0.0:
        points = points + noise_sigma * rng.standard_normal(points.shape)
    return SurfaceSample(cloud=PointCloudFrame(points), principal=principal, meta=meta)
