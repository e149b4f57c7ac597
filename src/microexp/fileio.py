"""On-disk formats: binary PGM frame directories, ASCII PLY point clouds,
landmark CSVs, feature-vector files, and the flat key=value config format.

All writers are deterministic (fixed ordering and float formatting) so a
rerun with the same inputs produces byte-identical files.
"""

from __future__ import annotations

import os
import tempfile
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
    """Read a binary PGM (P5) image with maxval 255; a ValueError's message
    starts with the path."""
    try:
        return _parse_pgm(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_pgm(data: bytes) -> np.ndarray:
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
    if len(data) - pos < h * w:
        raise ValueError(f"pixel data of a {w} x {h} image needs {h * w} bytes, "
                         f"found {max(len(data) - pos, 0)}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).copy()


def write_volume(directory, volume: FrameVolume) -> None:
    """Write a volume as zero-padded frame_%04d.pgm files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t in range(volume.n_frames):
        write_pgm(directory / f"frame_{t:04d}.pgm", volume.data[t])


def read_volume(directory) -> FrameVolume:
    """The frames ``frame_0000.pgm`` ... ``frame_<n-1>.pgm`` of ``directory``;
    a gap in the numbering is a ValueError naming the first missing file."""
    directory = Path(directory)
    paths = sorted(directory.glob("frame_*.pgm"))
    if not paths:
        raise FileNotFoundError(f"no frame_*.pgm files in {directory}")
    for t, path in enumerate(paths):
        if path.name != f"frame_{t:04d}.pgm":
            raise ValueError(f"missing frame file: {directory / f'frame_{t:04d}.pgm'}")
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


def _read_lines(path, encoding: str) -> list[str]:
    """The lines of a text file; a byte outside ``encoding`` is a ValueError naming the file."""
    try:
        return Path(path).read_bytes().decode(encoding).splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_ply(path) -> PointCloudFrame:
    """Read an ASCII PLY with x, y, z float vertex properties.

    Vertex rows may carry extra columns; only the first three are read.
    """
    lines = _read_lines(path, "ascii")
    if not lines or lines[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    n_vertex = None
    body_at = None
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            if len(parts) != 3 or not parts[2].isdigit():
                raise ValueError(f"{path}:{line_no}: expected 'element vertex <count>', "
                                 f"got {line!r}")
            n_vertex = int(parts[2])
        elif parts[:1] == ["format"] and parts[1:2] != ["ascii"]:
            raise ValueError(f"{path}:{line_no}: only ASCII PLY supported, got {line!r}")
        elif parts == ["end_header"]:
            body_at = line_no
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
    text that reads back to the same float. A frame without landmarks is a
    ValueError naming the path and the frame, raised before the file is
    opened: it would leave a gap in the frame numbers that ``read_landmarks``
    refuses.
    """
    row = "%d,%d" + ",%r" * dims + "\n"
    blocks = [_LANDMARK_HEADER[dims] + "\n"]
    for t, marks in enumerate(per_frame):
        coords = np.asarray(marks, dtype=np.float64)[:, :dims].tolist()
        if not coords:
            raise ValueError(f"{path}: frame {t} holds no landmarks")
        blocks.append((row * len(coords)) % tuple(
            v for j, xyz in enumerate(coords) for v in (t, j, *xyz)))
    Path(path).write_text("".join(blocks), encoding="utf-8")


def read_landmarks(path, dims: int) -> list[np.ndarray]:
    """Per-frame (n, dims) landmark arrays, frames and rows in index order.

    Raises ValueError naming the file and line for a row without exactly
    ``2 + dims`` fields, a non-integer frame or idx, a non-numeric
    coordinate, a repeated (frame, idx) pair, or a pair out of place: frames
    must run 0, 1, 2, ... and so must each frame's indices.
    """
    lines = _read_lines(path, "utf-8")
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
        same = frame[1:] == frame[:-1]
        steps = np.where(same, idx[1:] == idx[:-1] + 1,
                         (frame[1:] == frame[:-1] + 1) & (idx[1:] == 0))
        if frame[0] != 0 or idx[0] != 0 or not steps.all():
            raise ValueError("repeated or skipped (frame, idx)")
    except ValueError as exc:
        _raise_bad_landmark_row(path, lines, dims)
        raise ValueError(f"{path}: {exc}") from exc
    coords = table["xyz"][order]
    return np.split(coords, np.flatnonzero(~same) + 1)


def _raise_bad_landmark_row(path, lines, dims) -> None:
    """Raise a ValueError naming the first malformed or repeated landmark row,
    or else the first (frame, idx) out of place."""
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
    last = None
    for key in sorted(seen):
        expected = ((0, 0) if last is None else (last[0], last[1] + 1) if key[0] == last[0]
                    else (last[0] + 1, 0))
        if key != expected:
            raise ValueError(f"{path}:{seen[key]}: expected frame {expected[0]} idx "
                             f"{expected[1]}, got frame {key[0]} idx {key[1]}")
        last = key


# --- feature vectors ------------------------------------------------------

# The process umask, read once: a temporary file from mkstemp is private
# (0600), and write_atomic gives it the mode a plain open would have.
_UMASK = os.umask(0)
os.umask(_UMASK)


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (a str as UTF-8) to a new temporary file in ``path``'s
    directory, then rename it onto ``path``: neither a concurrent reader nor
    an interrupted write sees a partial file under that name."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    tmp = Path(tmp)
    try:
        os.chmod(tmp, 0o666 & ~_UMASK)
        if isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# write_feature_csv formats this many values at a time, so the repr strings
# of one chunk, not of a whole 19 200-value LBP-TOP row, are alive at once.
_FEATURE_CHUNK = 1024


def write_feature_csv(path, feature: FeatureVector) -> None:
    """One CSV row: tag,config_fingerprint,v0,v1,... (values as float64 repr),
    written atomically (``write_atomic``)."""
    values = feature.values
    chunks = (",".join(map(repr, values[i:i + _FEATURE_CHUNK].tolist()))
              for i in range(0, len(values), _FEATURE_CHUNK))
    write_atomic(path, f"{feature.tag},{feature.fingerprint},{','.join(chunks)}\n")


def read_feature_csv(path) -> FeatureVector:
    """The feature row of ``path``; a ValueError's message starts with the path."""
    try:
        return _parse_feature_row(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_feature_row(text: str) -> FeatureVector:
    parts = text.strip().split(",", 2)
    if len(parts) < 3 or not parts[2]:
        raise ValueError("not a feature CSV row")
    try:
        # Parsed in C; comments=None, so '#' is no comment but a bad cell.
        values = np.loadtxt([parts[2]], delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"non-numeric feature value ({exc})") from None
    return FeatureVector(values, tag=parts[0], fingerprint=parts[1])


# --- flat config ----------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``dotted.key=value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_config(values: dict[str, str]) -> str:
    return "\n".join(f"{k}={values[k]}" for k in sorted(values)) + "\n"


def load_config(path) -> dict[str, str]:
    """The pairs of a config file; a ValueError's message starts with the path."""
    try:
        return parse_config_text(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ValueError(f"{path}: {exc}") from None


def save_config(path, values: dict[str, str]) -> None:
    Path(path).write_text(format_config(values), encoding="utf-8")
