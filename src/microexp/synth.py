"""Synthetic data: a seeded 2D+3D dataset generator standing in for
recorded samples.

Clouds live in sensor coordinates (+z away from the camera, the face
bulging toward -z), the same orientation conventions as the real pipeline.
The face is a half-ellipsoid height field with Gaussian bumps (a static
nose bump plus class-dependent expression bumps). Each sample's labels come
from its AU set through the FACS tables of ``dataset``.

49-point landmark layout used throughout (indices into the markup):
  0-4   left brow, 5-9 right brow
  10-13 nose bridge (top to bottom), 14-18 nose base (left to right)
  19-24 left eye (19 outer corner, 22 inner corner)
  25-30 right eye (25 inner corner, 28 outer corner)
  31-48 mouth (31 left corner, 37 right corner, outer ring then inner ring)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SampleData, SampleRecord, nonobjective_label, objective_label
from .preprocess2d import FrameVolume
from .preprocess3d import PointCloudFrame


@dataclass(frozen=True)
class FaceGeometry:
    """Half-ellipsoid face with Gaussian bumps, as a height field z(x, y)."""

    axes: tuple[float, float, float] = (0.065, 0.09, 0.05)  # (a, b, c) meters
    z_front: float = 0.4
    bumps: tuple[tuple[float, float, float, float], ...] = ()  # (bx, by, amp, width)
    domain_margin: float = 0.2  # keep 1 - (x/a)^2 - (y/b)^2 >= margin (avoids the rim)

    def height(self, x, y):
        """z of the face height field."""
        a, b, c = self.axes
        s = np.sqrt(np.clip(1.0 - (x / a) ** 2 - (y / b) ** 2, 1e-12, None))
        z = self.z_front + c * (1.0 - s)
        for bx, by, amp, w in self.bumps:
            dx, dy = x - bx, y - by
            z = z - amp * np.exp(-(dx * dx + dy * dy) / (2.0 * w * w))
        return z

    def height_and_derivs(self, x, y):
        """z, z_x, z_y, z_xx, z_xy, z_yy of the face height field; z is
        ``height(x, y)``."""
        a, b, c = self.axes
        s = np.sqrt(np.clip(1.0 - (x / a) ** 2 - (y / b) ** 2, 1e-12, None))
        z = self.height(x, y)
        zx = c * x / (a * a * s)
        zy = c * y / (b * b * s)
        zxx = (c / (a * a)) * (1.0 / s + x * x / (a * a * s ** 3))
        zyy = (c / (b * b)) * (1.0 / s + y * y / (b * b * s ** 3))
        zxy = c * x * y / (a * a * b * b * s ** 3)
        for bx, by, amp, w in self.bumps:
            dx, dy = x - bx, y - by
            e = amp * np.exp(-(dx * dx + dy * dy) / (2.0 * w * w))
            zx = zx + e * dx / (w * w)
            zy = zy + e * dy / (w * w)
            zxx = zxx + e * (1.0 - dx * dx / (w * w)) / (w * w)
            zyy = zyy + e * (1.0 - dy * dy / (w * w)) / (w * w)
            zxy = zxy - e * dx * dy / (w ** 4)
        return z, zx, zy, zxx, zxy, zyy

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


_DEFAULT_FACE_BUMPS = (
    (0.0, 0.0, 0.012, 0.010),       # nose
    (-0.022, -0.040, 0.004, 0.012),  # left brow ridge
    (0.022, -0.040, 0.004, 0.012),   # right brow ridge
)


# Class presets: AU set, the face-local centers of the expression bumps, and
# the 2-d blob motion direction used when the 2-d stream carries class
# signal. A sample's labels are those the FACS tables give its AU set.
_CLASS_PRESETS = (
    {"aus": frozenset({6, 12}), "bump_at": ((-0.020, 0.040), (0.020, 0.040)),
     "motion": (1.0, 0.0)},
    {"aus": frozenset({1, 2}), "bump_at": ((-0.022, -0.040), (0.022, -0.040)),
     "motion": (0.0, -1.0)},
    {"aus": frozenset({4}), "bump_at": ((0.0, -0.035),), "motion": (-1.0, 0.0)},
    {"aus": frozenset({9}), "bump_at": ((-0.014, 0.012), (0.014, 0.012)),
     "motion": (0.0, 1.0)},
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
        if self.n_points < 1:
            raise ValueError(f"n_points must be at least 1, got {self.n_points}")
        for name in ("noise_2d", "noise_3d"):  # 0 means none
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")


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


def make_dataset(spec: SynthSpec, subject: int | None = None):
    """Generate (records, samples) with class signal in the 2-d stream, the
    3-d stream, or both, per ``spec.signal``. Deterministic given the seed.

    ``subject=None`` returns every subject. ``subject=s`` returns subject
    ``s``'s samples alone, bit-identical to their slice of the whole
    dataset: each subject draws from its own child of the seed. A subject
    outside ``0 .. n_subjects - 1`` is a ValueError.
    """
    if subject is None:
        subjects = range(spec.n_subjects)
    elif 0 <= subject < spec.n_subjects:
        subjects = (subject,)
    else:
        raise ValueError(f"subject must lie in 0..{spec.n_subjects - 1}, got {subject}")
    root_seq = np.random.SeedSequence(spec.seed)
    subject_seqs = root_seq.spawn(spec.n_subjects)

    height, width = spec.frame_size
    n_frames = spec.n_frames
    apex = (n_frames - 1) // 2

    records: list[SampleRecord] = []
    samples: list[SampleData] = []

    for s in subjects:
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
                objective_label=objective_label(preset["aus"]),
                nonobjective_label=nonobjective_label(preset["aus"]),
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
