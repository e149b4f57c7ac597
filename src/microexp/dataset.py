"""Sample data model: annotation index, AU label taxonomies and inter-coder
reliability.

The annotation index is a CSV file with header
``subject,sample,onset,apex,offset,aus,objective,nonobjective`` where the
``aus`` column is a ``+``-joined list of FACS action-unit numbers (e.g.
``4+5+7``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import fileio
from .preprocess2d import FrameVolume
from .preprocess3d import PointCloudFrame

INDEX_HEADER = ["subject", "sample", "onset", "apex", "offset", "aus", "objective", "nonobjective"]


class IndexFormatError(ValueError):
    """Malformed annotation index row or header."""


class ObjectiveClass(str, Enum):
    HAPPINESS = "Happiness"
    SURPRISE = "Surprise"
    ANGER = "Anger"
    DISGUST = "Disgust"
    SADNESS = "Sadness"
    OTHERS = "Others"


class NonObjectiveClass(str, Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    SURPRISE = "Surprise"
    OTHERS = "Others"


def parse_aus(text: str) -> frozenset[int]:
    """Parse a '+'-joined AU string like '1+2' into a set of AU numbers."""
    text = text.strip()
    if not text:
        return frozenset()
    codes = set()
    for token in text.split("+"):
        token = token.strip()
        try:
            code = int(token)
        except ValueError:
            raise IndexFormatError(f"bad action unit {token!r} in {text!r}") from None
        if code < 1:
            raise IndexFormatError(f"action unit numbers start at 1, got {code}")
        codes.add(code)
    return frozenset(codes)


def format_aus(aus) -> str:
    return "+".join(str(a) for a in sorted(aus))


@dataclass(frozen=True)
class SampleRecord:
    """One micro-expression sample's annotation row."""

    subject_id: str
    sample_id: str
    onset: int
    apex: int
    offset: int
    aus: frozenset[int]
    objective_label: ObjectiveClass
    nonobjective_label: NonObjectiveClass

    def __post_init__(self):
        # Each id names one directory of a sample tree, which a rewrite removes.
        for name in ("subject_id", "sample_id"):
            part = getattr(self, name)
            if part in ("", ".", "..") or "/" in part:
                raise ValueError(f"{name} must be one directory name, got {part!r}")
        if min(self.onset, self.apex, self.offset) < 0:
            raise ValueError("frame indices must be non-negative")
        if not (self.onset <= self.apex <= self.offset):
            raise ValueError(
                f"need onset <= apex <= offset, got {self.onset}, {self.apex}, {self.offset}"
            )
        aus = frozenset(int(a) for a in self.aus)
        if any(a < 1 for a in aus):
            raise ValueError("action unit numbers start at 1")
        object.__setattr__(self, "aus", aus)


@dataclass(frozen=True)
class SampleData:
    """Raw media for one sample: video frames, clouds, per-frame landmarks.

    ``clouds`` and the landmarks are None for a sample read for its video
    frames only; a sample read for some frames' clouds holds None in place
    of each other frame's cloud.
    """

    video: FrameVolume
    clouds: tuple[PointCloudFrame | None, ...] | None
    landmarks2d: tuple[np.ndarray, ...] | None  # per frame, (49, 2) pixels
    landmarks3d: tuple[np.ndarray, ...] | None  # per frame, (49, 3) meters

    def __post_init__(self):
        if self.clouds is not None:
            object.__setattr__(self, "clouds", tuple(self.clouds))
            if len(self.clouds) != self.video.n_frames:
                raise ValueError("need exactly one cloud per video frame")
        for name in ("landmarks2d", "landmarks3d"):
            marks = getattr(self, name)
            if marks is None:
                continue
            marks = tuple(np.asarray(m, dtype=np.float64) for m in marks)
            if len(marks) != self.video.n_frames:
                raise ValueError(f"{name} must have one entry per frame")
            for m in marks:
                if m.shape[0] != 49:
                    raise ValueError(f"{name} entries must have exactly 49 points")
            object.__setattr__(self, name, marks)


def load_index(path) -> list[SampleRecord]:
    """Read the annotation index CSV into SampleRecords, order preserved. A
    malformed index, or one that is not UTF-8, raises an IndexFormatError
    whose message starts with the path."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        try:
            return read_index(fh)
        except (IndexFormatError, UnicodeDecodeError) as exc:
            raise IndexFormatError(f"{path}: {exc}") from None


def read_index(fh) -> list[SampleRecord]:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise IndexFormatError("index file is empty") from None
    if [h.strip() for h in header] != INDEX_HEADER:
        raise IndexFormatError(f"bad index header {header!r}")

    records = []
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(INDEX_HEADER):
            raise IndexFormatError(f"row {row_no}: expected {len(INDEX_HEADER)} columns, got {len(row)}")
        subject, sample, onset, apex, offset, aus, objective, nonobjective = (c.strip() for c in row)
        try:
            onset_i, apex_i, offset_i = int(onset), int(apex), int(offset)
        except ValueError:
            raise IndexFormatError(f"row {row_no}: frame indices must be integers") from None
        try:
            record = SampleRecord(
                subject_id=subject,
                sample_id=sample,
                onset=onset_i,
                apex=apex_i,
                offset=offset_i,
                aus=parse_aus(aus),
                objective_label=ObjectiveClass(objective),
                nonobjective_label=NonObjectiveClass(nonobjective),
            )
        except ValueError as exc:
            raise IndexFormatError(f"row {row_no}: {exc}") from None
        records.append(record)
    return records


def save_index(records, path) -> None:
    """Write records back out in the index CSV format (UTF-8, LF endings),
    atomically (``fileio.write_atomic``): an interrupted write leaves no short index."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(INDEX_HEADER)
    for r in records:
        writer.writerow([
            r.subject_id, r.sample_id, str(r.onset), str(r.apex), str(r.offset),
            format_aus(r.aus), r.objective_label.value, r.nonobjective_label.value,
        ])
    fileio.write_atomic(path, buf.getvalue())


# The objective table, read literally row by row (including the rows that
# look typeset-shifted in the source material). Its combinations are all
# distinct, so an exact lookup gives the class of the one row that names a set.
_OBJECTIVE_ROWS = {
    ObjectiveClass.HAPPINESS: "6 | 12 | 6+12 | 6+7+12 | 7+12",
    ObjectiveClass.SURPRISE: "1+2 | 5 | 25 | 1+2+25 | 25+26 | 5+24",
    ObjectiveClass.ANGER: "23 | 4 | 4+7 | 4+5 | 4+5+7",
    ObjectiveClass.DISGUST: "17+24 | 4+6+7 | 4+38",
    ObjectiveClass.SADNESS: "10 | 9 | 4+9 | 4+40 | 4+5+40 | 4+7+9 | 4+9+17 | 4+7+10 | 4+5+7+9 | 7+10",
}
_OBJECTIVE = {parse_aus(combo): label
              for label, row in _OBJECTIVE_ROWS.items() for combo in row.split("|")}

# The objective classes whose combinations the non-objective Negative row
# repeats (the objective table has no fear row).
_NEGATIVE = {ObjectiveClass.ANGER, ObjectiveClass.DISGUST, ObjectiveClass.SADNESS}


def objective_label(aus) -> ObjectiveClass:
    """Objective emotion class for an AU set: its row's class, else Others."""
    return _OBJECTIVE.get(frozenset(aus), ObjectiveClass.OTHERS)


def nonobjective_label(aus) -> NonObjectiveClass:
    """Non-objective emotion class for an AU set: Positive for a happiness
    combination, Negative for an anger, disgust or sadness one, Surprise for
    any other set holding AU 2 or 25 (the printed "at least 1+2, 25 or 2"
    rows), else Others."""
    aus = frozenset(aus)
    objective = objective_label(aus)
    if objective is ObjectiveClass.HAPPINESS:
        return NonObjectiveClass.POSITIVE
    if objective in _NEGATIVE:
        return NonObjectiveClass.NEGATIVE
    if aus & {2, 25}:
        return NonObjectiveClass.SURPRISE
    return NonObjectiveClass.OTHERS


def coder_reliability(coder1, coder2) -> float:
    """Agreement ratio between two coders' AU sets:
    2 * |agreed AUs| / (total AUs scored by both coders together).
    """
    c1, c2 = frozenset(coder1), frozenset(coder2)
    total = len(c1) + len(c2)
    if total == 0:
        raise ValueError("reliability is undefined when both coders scored no AUs")
    return 2 * len(c1 & c2) / total
