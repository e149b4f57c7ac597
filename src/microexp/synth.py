"""Synthetic data: analytic surfaces with exact curvature oracles, and a
seeded 2D+3D dataset generator standing in for recorded samples.

Surfaces live in sensor coordinates (+z away from the camera, surfaces
bulging toward -z), so they exercise the same orientation conventions as
the real pipeline. The face proxy is a half-ellipsoid height field with
Gaussian bumps (a static nose bump plus class-dependent expression bumps),
which gives exact closed-form principal curvatures everywhere.

49-point landmark layout used throughout (indices into the markup):
  0-4   left brow, 5-9 right brow
  10-13 nose bridge (top to bottom), 14-18 nose base (left to right)
  19-24 left eye (19 outer corner, 22 inner corner)
  25-30 right eye (25 inner corner, 28 outer corner)
  31-48 mouth (31 left corner, 37 right corner, outer ring then inner ring)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (NonObjectiveClass, ObjectiveClass, SampleData, SampleRecord)
from .preprocess2d import FrameVolume
from .preprocess3d import PointCloudFrame

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


@dataclass(frozen=True)
class FaceGeometry:
    """Half-ellipsoid face with Gaussian bumps, as a height field z(x, y)."""

    axes: tuple[float, float, float] = (0.065, 0.09, 0.05)  # (a, b, c) meters
    z_front: float = 0.4
    bumps: tuple[tuple[float, float, float, float], ...] = ()  # (bx, by, amp, width)
    domain_margin: float = 0.2  # keep 1 - (x/a)^2 - (y/b)^2 >= margin (avoids the rim)

    def height_and_derivs(self, x, y):
        """z, z_x, z_y, z_xx, z_xy, z_yy of the face height field."""
        a, b, c = self.axes
        g = 1.0 - (x / a) ** 2 - (y / b) ** 2
        s = np.sqrt(np.clip(g, 1e-12, None))
        z = self.z_front + c * (1.0 - s)
        zx = c * x / (a * a * s)
        zy = c * y / (b * b * s)
        zxx = (c / (a * a)) * (1.0 / s + x * x / (a * a * s ** 3))
        zyy = (c / (b * b)) * (1.0 / s + y * y / (b * b * s ** 3))
        zxy = c * x * y / (a * a * b * b * s ** 3)
        for bx, by, amp, w in self.bumps:
            dx, dy = x - bx, y - by
            e = amp * np.exp(-(dx * dx + dy * dy) / (2.0 * w * w))
            z = z - e
            zx = zx + e * dx / (w * w)
            zy = zy + e * dy / (w * w)
            zxx = zxx + e * (1.0 - dx * dx / (w * w)) / (w * w)
            zyy = zyy + e * (1.0 - dy * dy / (w * w)) / (w * w)
            zxy = zxy - e * dx * dy / (w ** 4)
        return z, zx, zy, zxx, zxy, zyy

    def height(self, x, y):
        return self.height_and_derivs(x, y)[0]

    def principal_curvatures(self, x, y) -> np.ndarray:
        """Exact (p_min, p_max) with the normal oriented toward the sensor."""
        _, zx, zy, zxx, zxy, zyy = self.height_and_derivs(x, y)
        w2 = 1.0 + zx * zx + zy * zy
        w = np.sqrt(w2)
        k = (zxx * zyy - zxy * zxy) / (w2 * w2)
        h_up = ((1.0 + zy * zy) * zxx - 2.0 * zx * zy * zxy + (1.0 + zx * zx) * zyy) / (2.0 * w2 * w)
        h = -h_up  # flip: normal toward the sensor, not toward +z
        root = np.sqrt(np.clip(h * h - k, 0.0, None))
        return np.column_stack([np.atleast_1d(h - root), np.atleast_1d(h + root)])

    def sample_xy(self, n_points: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform-area rejection sampling of (x, y) over the face domain."""
        a, b, _ = self.axes
        grid = np.linspace(-1.0, 1.0, 41)
        gx, gy = np.meshgrid(grid * a, grid * b)
        inside = 1.0 - (gx / a) ** 2 - (gy / b) ** 2 >= self.domain_margin
        _, zx, zy, _, _, _ = self.height_and_derivs(gx[inside], gy[inside])
        w_max = float(np.sqrt(1.0 + zx ** 2 + zy ** 2).max()) * 1.05

        out = np.empty((n_points, 2))
        have = 0
        while have < n_points:
            cand = rng.uniform(-1.0, 1.0, size=(2 * (n_points - have) + 16, 2))
            cand = cand * np.array([a, b])
            g = 1.0 - (cand[:, 0] / a) ** 2 - (cand[:, 1] / b) ** 2
            cand = cand[g >= self.domain_margin]
            if cand.shape[0] == 0:
                continue
            _, zx, zy, _, _, _ = self.height_and_derivs(cand[:, 0], cand[:, 1])
            area = np.sqrt(1.0 + zx ** 2 + zy ** 2)
            keep = cand[rng.uniform(0.0, 1.0, cand.shape[0]) < area / w_max]
            take = min(keep.shape[0], n_points - have)
            out[have : have + take] = keep[:take]
            have += take
        return out

    def nose_tip(self) -> np.ndarray:
        """Analytic minimum of the height field (grid-refined)."""
        a, b, _ = self.axes
        grid = np.linspace(-0.6, 0.6, 241)
        gx, gy = np.meshgrid(grid * a, grid * b)
        z = self.height(gx, gy)
        i = np.unravel_index(np.argmin(z), z.shape)
        return np.array([gx[i], gy[i], z[i]])


_DEFAULT_FACE_BUMPS = (
    (0.0, 0.0, 0.012, 0.010),       # nose
    (-0.022, -0.040, 0.004, 0.012),  # left brow ridge
    (0.022, -0.040, 0.004, 0.012),   # right brow ridge
)


def _face_surface(params: dict, n_points: int, rng: np.random.Generator):
    geometry = params.get("geometry")
    if geometry is None:
        geometry = FaceGeometry(bumps=_DEFAULT_FACE_BUMPS)
    xy = geometry.sample_xy(n_points, rng)
    z = geometry.height(xy[:, 0], xy[:, 1])
    points = np.column_stack([xy, z])
    principal = geometry.principal_curvatures(xy[:, 0], xy[:, 1])
    meta = {"kind": "face_proxy", "geometry": geometry, "nose_tip": geometry.nose_tip()}
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


# --- synthetic dataset ----------------------------------------------------

# Class presets: AU set, labels consistent with the default taxonomies, the
# face-local centers of the expression bumps, and the 2-d blob motion
# direction used when the 2-d stream carries class signal.
_CLASS_PRESETS = (
    {"aus": frozenset({6, 12}), "objective": ObjectiveClass.HAPPINESS,
     "nonobjective": NonObjectiveClass.POSITIVE,
     "bump_at": ((-0.020, 0.040), (0.020, 0.040)), "motion": (1.0, 0.0)},
    {"aus": frozenset({1, 2}), "objective": ObjectiveClass.SURPRISE,
     "nonobjective": NonObjectiveClass.SURPRISE,
     "bump_at": ((-0.022, -0.040), (0.022, -0.040)), "motion": (0.0, -1.0)},
    {"aus": frozenset({4}), "objective": ObjectiveClass.ANGER,
     "nonobjective": NonObjectiveClass.NEGATIVE,
     "bump_at": ((0.0, -0.035),), "motion": (-1.0, 0.0)},
    {"aus": frozenset({9}), "objective": ObjectiveClass.SADNESS,
     "nonobjective": NonObjectiveClass.NEGATIVE,
     "bump_at": ((-0.014, 0.012), (0.014, 0.012)), "motion": (0.0, 1.0)},
)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic 2D+3D dataset generator."""

    n_subjects: int = 5
    samples_per_subject: int = 6
    n_classes: int = 2
    signal: str = "3d"        # which stream carries class signal: 2d | 3d | both
    noise_2d: float = 2.0     # gray levels
    noise_3d: float = 0.0002  # meters
    n_points: int = 1400
    frame_size: tuple[int, int] = (48, 48)  # (H, W)
    n_frames: int = 9
    frame_rate: float = 60.0
    bump_amp: float = 0.008   # meters, expression bump amplitude at apex
    bump_width: float = 0.009
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.n_classes <= len(_CLASS_PRESETS):
            raise ValueError(f"n_classes must lie in 2..{len(_CLASS_PRESETS)}")
        if self.signal not in ("2d", "3d", "both"):
            raise ValueError(f"signal must be 2d, 3d or both, got {self.signal!r}")
        if self.n_subjects < 1 or self.samples_per_subject < 1:
            raise ValueError("need at least one subject and one sample per subject")
        if self.n_frames < 3:
            raise ValueError("need at least 3 frames for onset/apex/offset")


def build_landmark_template(a: float, b: float) -> np.ndarray:
    """49 face-local (x, y) landmark positions on a face of half-extent (a, b)."""
    pts = []
    for i in range(5):  # left brow, outer to inner
        pts.append((-0.55 * a + i * 0.10 * a, -0.45 * b))
    for i in range(5):  # right brow, inner to outer
        pts.append((0.15 * a + i * 0.10 * a, -0.45 * b))
    for i in range(4):  # nose bridge
        pts.append((0.0, -0.30 * b + i * 0.09 * b))
    for i in range(5):  # nose base
        pts.append((-0.15 * a + i * 0.075 * a, 0.10 * b))
    left_eye_y = -0.25 * b
    pts += [(-0.50 * a, left_eye_y), (-0.42 * a, left_eye_y - 0.03 * b),
            (-0.36 * a, left_eye_y - 0.03 * b), (-0.30 * a, left_eye_y),
            (-0.36 * a, left_eye_y + 0.03 * b), (-0.42 * a, left_eye_y + 0.03 * b)]
    pts += [(0.30 * a, left_eye_y), (0.36 * a, left_eye_y - 0.03 * b),
            (0.42 * a, left_eye_y - 0.03 * b), (0.50 * a, left_eye_y),
            (0.42 * a, left_eye_y + 0.03 * b), (0.36 * a, left_eye_y + 0.03 * b)]
    mouth_y = 0.45 * b
    for i in range(12):  # outer mouth ring
        ang = 2.0 * math.pi * i / 12.0
        pts.append((-0.30 * a * math.cos(ang), mouth_y + 0.10 * b * math.sin(ang)))
    for i in range(6):  # inner mouth ring
        ang = 2.0 * math.pi * i / 6.0
        pts.append((-0.18 * a * math.cos(ang), mouth_y + 0.05 * b * math.sin(ang)))
    template = np.array(pts)
    assert template.shape == (49, 2)
    return template


def _landmarks_to_pixels(template: np.ndarray, a: float, b: float,
                         height: int, width: int) -> np.ndarray:
    """Map face-local landmarks to pixel coordinates: inner eye corners land
    near (0.35 W, 0.35 H) and (0.65 W, 0.35 H)."""
    sx = 0.5 * width / a
    sy = 0.55 * height / b
    eye_y = -0.25 * b
    px = 0.5 * width + template[:, 0] * sx
    py = 0.35 * height + (template[:, 1] - eye_y) * sy
    return np.column_stack([px, py])


def _temporal_window(t: int, n_frames: int) -> float:
    """0 at onset and offset, 1 at the apex (middle frame)."""
    return math.sin(math.pi * t / (n_frames - 1))


def _render_frame(height: int, width: int, blob_xy, rng: np.random.Generator,
                  noise: float, phase: float) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    img = 120.0 + 40.0 * np.sin(2.0 * math.pi * (xs / width + 0.3 * ys / height) + phase)
    img += 60.0 * np.exp(-((xs - blob_xy[0]) ** 2 + (ys - blob_xy[1]) ** 2) / (2.0 * 6.0 ** 2))
    if noise > 0.0:
        img += noise * rng.standard_normal(img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def make_dataset(spec: SynthSpec):
    """Generate (records, samples) with class signal in the 2-d stream, the
    3-d stream, or both, per ``spec.signal``. Deterministic given the seed."""
    root_seq = np.random.SeedSequence(spec.seed)
    subject_seqs = root_seq.spawn(spec.n_subjects)

    height, width = spec.frame_size
    n_frames = spec.n_frames
    apex = (n_frames - 1) // 2

    records: list[SampleRecord] = []
    samples: list[SampleData] = []

    for s in range(spec.n_subjects):
        subj_rng = np.random.default_rng(subject_seqs[s])
        axes = (0.065 * (1.0 + 0.04 * subj_rng.uniform(-1, 1)),
                0.090 * (1.0 + 0.04 * subj_rng.uniform(-1, 1)),
                0.050 * (1.0 + 0.04 * subj_rng.uniform(-1, 1)))
        z_front = 0.4 + 0.01 * subj_rng.uniform(-1, 1)
        texture_phase = subj_rng.uniform(0.0, 2.0 * math.pi)
        template = build_landmark_template(axes[0], axes[1])
        pixels = _landmarks_to_pixels(template, axes[0], axes[1], height, width)

        sample_seqs = subject_seqs[s].spawn(spec.samples_per_subject)
        for i in range(spec.samples_per_subject):
            rng = np.random.default_rng(sample_seqs[i])
            cls = i % spec.n_classes
            preset = _CLASS_PRESETS[cls]

            record = SampleRecord(
                subject_id=f"{s + 1:02d}",
                sample_id=f"{s + 1}_{i + 1}",
                onset=0, apex=apex, offset=n_frames - 1,
                aus=preset["aus"],
                objective_label=preset["objective"],
                nonobjective_label=preset["nonobjective"],
            )

            # 3-d stream: fixed sample sites, per-frame deformed height field.
            base_geo = FaceGeometry(axes=axes, z_front=z_front, bumps=_DEFAULT_FACE_BUMPS)
            xy = base_geo.sample_xy(spec.n_points, rng)
            if spec.signal in ("3d", "both"):
                class_bumps = preset["bump_at"]
            else:
                class_bumps = ((0.0, 0.02),)  # same generic pulse for every class
            clouds = []
            landmarks3d = []
            for t in range(n_frames):
                amp = spec.bump_amp * _temporal_window(t, n_frames)
                bumps = _DEFAULT_FACE_BUMPS + tuple(
                    (bx, by, amp, spec.bump_width) for bx, by in class_bumps)
                geo = FaceGeometry(axes=axes, z_front=z_front, bumps=bumps)
                z = geo.height(xy[:, 0], xy[:, 1])
                pts = np.column_stack([xy, z])
                if spec.noise_3d > 0.0:
                    pts = pts + spec.noise_3d * rng.standard_normal(pts.shape)
                clouds.append(PointCloudFrame(pts))
                lm_z = geo.height(template[:, 0], template[:, 1])
                landmarks3d.append(np.column_stack([template, lm_z]))

            # 2-d stream: drifting blob over a static texture.
            if spec.signal in ("2d", "both"):
                motion = np.asarray(preset["motion"])
            else:
                motion = np.array([1.0, 0.0])  # class-independent dynamics
            start = np.array([0.5 * width, 0.62 * height]) + rng.uniform(-1.5, 1.5, 2)
            frames = []
            for t in range(n_frames):
                blob = start + 5.0 * _temporal_window(t, n_frames) * motion
                frames.append(_render_frame(height, width, blob, rng,
                                            spec.noise_2d, texture_phase))
            video = FrameVolume(np.stack(frames))

            samples.append(SampleData(
                video=video,
                clouds=tuple(clouds),
                landmarks2d=tuple(pixels.copy() for _ in range(n_frames)),
                landmarks3d=tuple(landmarks3d),
            ))
            records.append(record)

    return records, samples
