"""On-disk formats: binary PGM frame directories, ASCII PLY point clouds,
landmark CSVs, feature-vector files, and the flat key=value config format.

All writers are deterministic (fixed ordering and float formatting) so a
rerun with the same inputs produces byte-identical files.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .lbptop import FeatureVector
from .preprocess2d import FrameVolume
from .preprocess3d import PointCloudFrame


# --- PGM ---------------------------------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    img = np.asarray(image)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-d uint8 image")
    h, w = img.shape
    with Path(path).open("wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) image with maxval 255."""
    data = Path(path).read_bytes()
    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with optional '#' comment lines; pixel data starts one byte after maxval.
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM file: magic {tokens[0]!r}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, got maxval {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).copy()


def write_volume(directory, volume: FrameVolume) -> None:
    """Write a volume as zero-padded frame_%04d.pgm files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t in range(volume.n_frames):
        write_pgm(directory / f"frame_{t:04d}.pgm", volume.data[t])


def read_volume(directory) -> FrameVolume:
    directory = Path(directory)
    paths = sorted(directory.glob("frame_*.pgm"))
    if not paths:
        raise FileNotFoundError(f"no frame_*.pgm files in {directory}")
    return FrameVolume(np.stack([read_pgm(p) for p in paths]))


# --- PLY ---------------------------------------------------------------

_PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex {n}\n"
               "property float x\nproperty float y\nproperty float z\nend_header\n")


def write_ply(path, cloud: PointCloudFrame) -> None:
    """Write a cloud as ASCII PLY with float32 x, y, z vertex properties.

    Each coordinate is written as ``%.9g`` of its float32 value: 9 significant
    digits round-trip float32 exactly.
    """
    pts32 = np.asarray(cloud.points, dtype=np.float32).astype(np.float64)
    body = ("%.9g %.9g %.9g\n" * len(pts32)) % tuple(pts32.ravel().tolist())
    Path(path).write_text(_PLY_HEADER.format(n=len(pts32)) + body, encoding="ascii")


def read_ply(path) -> PointCloudFrame:
    """Read an ASCII PLY with x, y, z float vertex properties.

    Vertex rows may carry extra columns; only the first three are read.
    """
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    n_vertex = None
    body_at = None
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            n_vertex = int(parts[2])
        elif parts and parts[0] == "format" and parts[1] != "ascii":
            raise ValueError(f"{path}: only ASCII PLY supported")
        elif parts == ["end_header"]:
            body_at = i + 1
            break
    if n_vertex is None or body_at is None:
        raise ValueError(f"{path}: missing vertex element or end_header")
    rows = lines[body_at : body_at + n_vertex]
    if len(rows) != n_vertex:
        raise ValueError(f"{path}: expected {n_vertex} vertex rows, found {len(rows)}")
    if not rows:
        return PointCloudFrame(np.empty((0, 3)))
    try:
        points = np.loadtxt(rows, dtype=np.float64, ndmin=2, usecols=(0, 1, 2), comments=None)
        if len(points) != n_vertex:
            raise ValueError("blank vertex rows")  # loadtxt skips them
    except ValueError as exc:
        _raise_bad_vertex_row(path, rows, body_at + 1)
        raise ValueError(f"{path}: {exc}") from exc
    # parse through the declared float32 property type, then widen
    return PointCloudFrame(points.astype(np.float32).astype(np.float64))


def _raise_bad_vertex_row(path, rows, first_line_no) -> None:
    """Raise a ValueError naming the first vertex row that is short or not numeric."""
    for line_no, row in enumerate(rows, start=first_line_no):
        fields = row.split()
        if len(fields) < 3:
            raise ValueError(f"{path}:{line_no}: vertex row needs x y z, got {row!r}")
        try:
            [float(v) for v in fields[:3]]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric vertex row {row!r}") from None


def cloud_path(directory, t: int) -> Path:
    """The file of frame ``t``'s cloud in a cloud-sequence directory."""
    return Path(directory) / f"cloud_{t:04d}.ply"


def write_cloud_sequence(directory, clouds) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t, cloud in enumerate(clouds):
        write_ply(cloud_path(directory, t), cloud)


# --- landmarks ----------------------------------------------------------

_LANDMARK_HEADER = {2: "frame,idx,x,y", 3: "frame,idx,x,y,z"}


def write_landmarks(path, per_frame, dims: int) -> None:
    """Write per-frame landmark arrays as CSV rows frame,idx,x,y[,z].

    Coordinates are written as ``repr`` of their float64 value, the shortest
    text that reads back to the same float.
    """
    row = "%d,%d" + ",%r" * dims + "\n"
    blocks = [_LANDMARK_HEADER[dims] + "\n"]
    for t, marks in enumerate(per_frame):
        coords = np.asarray(marks, dtype=np.float64)[:, :dims].tolist()
        blocks.append((row * len(coords)) % tuple(
            v for j, xyz in enumerate(coords) for v in (t, j, *xyz)))
    Path(path).write_text("".join(blocks), encoding="utf-8")


def read_landmarks(path, dims: int) -> list[np.ndarray]:
    """Per-frame (n, dims) landmark arrays, frames and rows in index order.

    Raises ValueError naming the file and line for a row without exactly
    ``2 + dims`` fields, a non-integer frame or idx, a non-numeric
    coordinate, or a repeated (frame, idx) pair.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    expected = _LANDMARK_HEADER[dims]
    if not lines or lines[0].strip() != expected:
        raise ValueError(f"{path}: expected header {expected!r}")
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        return []
    row_type = np.dtype([("frame", np.int64), ("idx", np.int64), ("xyz", np.float64, (dims,))])
    try:
        table = np.loadtxt(rows, dtype=row_type, delimiter=",", ndmin=1, comments=None)
        order = np.lexsort((table["idx"], table["frame"]))
        frame, idx = table["frame"][order], table["idx"][order]
        if np.any((frame[1:] == frame[:-1]) & (idx[1:] == idx[:-1])):
            raise ValueError("repeated (frame, idx)")
    except ValueError as exc:
        _raise_bad_landmark_row(path, lines, dims)
        raise ValueError(f"{path}: {exc}") from exc
    coords = table["xyz"][order]
    starts = np.flatnonzero(frame[1:] != frame[:-1]) + 1
    return np.split(coords, starts)


def _raise_bad_landmark_row(path, lines, dims) -> None:
    """Raise a ValueError naming the first malformed or repeated landmark row."""
    seen: dict[tuple[int, int], int] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2 + dims:
            raise ValueError(f"{path}:{line_no}: expected {2 + dims} fields "
                             f"{_LANDMARK_HEADER[dims]}, got {len(fields)}")
        try:
            key = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{path}:{line_no}: frame and idx must be integers, "
                             f"got {line!r}") from None
        try:
            [float(v) for v in fields[2:]]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric coordinate in {line!r}") from None
        if key in seen:
            raise ValueError(f"{path}:{line_no}: frame {key[0]} idx {key[1]} "
                             f"repeats line {seen[key]}")
        seen[key] = line_no


# --- feature vectors ------------------------------------------------------

def write_text_atomic(path, text: str) -> None:
    """Write ``text`` (UTF-8) to a temporary file in the same directory, then
    rename it onto ``path``: an interrupted write leaves no partial file there."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_feature_csv(path, feature: FeatureVector) -> None:
    """One CSV row: tag,config_fingerprint,v0,v1,... (values as float64 repr),
    written atomically (``write_text_atomic``)."""
    values = ",".join(map(repr, feature.values.tolist()))
    write_text_atomic(path, f"{feature.tag},{feature.fingerprint},{values}\n")


def read_feature_csv(path) -> FeatureVector:
    text = Path(path).read_text(encoding="utf-8").strip()
    parts = text.split(",")
    if len(parts) < 3:
        raise ValueError(f"{path}: not a feature CSV row")
    return FeatureVector(np.array(list(map(float, parts[2:]))),
                         tag=parts[0], fingerprint=parts[1])


# --- flat config ----------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``dotted.key=value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_config(values: dict[str, str]) -> str:
    return "\n".join(f"{k}={values[k]}" for k in sorted(values)) + "\n"


def load_config(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def save_config(path, values: dict[str, str]) -> None:
    Path(path).write_text(format_config(values), encoding="utf-8")
