"""Sample data model: annotation index, AU label taxonomies, duration rule,
and inter-coder reliability.

The annotation index is a CSV file with header
``subject,sample,onset,apex,offset,aus,objective,nonobjective`` where the
``aus`` column is a ``+``-joined list of FACS action-unit numbers (e.g.
``4+5+7``). AU-combination-to-emotion tables are plain-text rule files, one
class per line, ``CLASS: 6+12 | 6+7+12 | ...``; a combination prefixed with
``>=`` matches any AU set containing it ("at least" semantics), otherwise
the match is exact. Rules are applied in file order, first match wins, and
anything unmatched falls through to Others.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

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


@dataclass(frozen=True)
class DurationRule:
    """Micro-expression duration bounds, in milliseconds."""

    max_total_ms: float = 500.0
    max_onset_ms: float = 260.0


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
    """Read the annotation index CSV into SampleRecords, order preserved."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        return read_index(fh)


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
    """Write records back out in the index CSV format (UTF-8, LF endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(INDEX_HEADER)
    for r in records:
        writer.writerow([
            r.subject_id, r.sample_id, str(r.onset), str(r.apex), str(r.offset),
            format_aus(r.aus), r.objective_label.value, r.nonobjective_label.value,
        ])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def validate_duration(record: SampleRecord, frame_rate: float,
                      rule: DurationRule = DurationRule()) -> bool:
    """True iff the sample satisfies the micro-expression duration condition:
    total duration under the total bound OR onset phase under the onset bound.
    """
    if not frame_rate > 0:
        raise ValueError("frame rate must be positive")
    total_s = (record.offset - record.onset) / frame_rate
    onset_s = (record.apex - record.onset) / frame_rate
    return total_s < rule.max_total_ms / 1000.0 or onset_s < rule.max_onset_ms / 1000.0


@dataclass(frozen=True)
class AuRule:
    """One AU-combination row of a labeling table."""

    label: str
    combination: frozenset[int]
    at_least: bool = False  # subset match instead of exact equality

    def matches(self, aus: frozenset[int]) -> bool:
        if self.at_least:
            return aus >= self.combination
        return aus == self.combination


@dataclass(frozen=True)
class MappingTable:
    """Ordered first-match-wins AU-combination rules with a fallback class."""

    rules: tuple[AuRule, ...]
    fallback: str = "Others"

    def classify(self, aus) -> str:
        aus = frozenset(aus)
        for rule in self.rules:
            if rule.matches(aus):
                return rule.label
        return self.fallback

    @classmethod
    def from_text(cls, text: str, fallback: str = "Others") -> "MappingTable":
        rules = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ValueError(f"line {line_no}: expected 'CLASS: combos', got {raw!r}")
            label, combos = line.split(":", 1)
            label = label.strip()
            for combo in combos.split("|"):
                combo = combo.strip()
                if not combo:
                    continue
                at_least = combo.startswith(">=")
                if at_least:
                    combo = combo[2:].strip()
                rules.append(AuRule(label=label, combination=parse_aus(combo), at_least=at_least))
        return cls(rules=tuple(rules), fallback=fallback)

    @classmethod
    def from_file(cls, path, fallback: str = "Others") -> "MappingTable":
        return cls.from_text(Path(path).read_text(encoding="utf-8"), fallback=fallback)


# Default objective table, read literally row by row (including the rows
# that look typeset-shifted in the source material); swap in a corrected
# rule file if a different taxonomy is wanted.
DEFAULT_OBJECTIVE_MAPPING = """\
Happiness: 6 | 12 | 6+12 | 6+7+12 | 7+12
Surprise: 1+2 | 5 | 25 | 1+2+25 | 25+26 | 5+24
Anger: 23 | 4 | 4+7 | 4+5 | 4+5+7
Disgust: 17+24 | 4+6+7 | 4+38
Sadness: 10 | 9 | 4+9 | 4+40 | 4+5+40 | 4+7+9 | 4+9+17 | 4+7+10 | 4+5+7+9 | 7+10
"""

# Non-objective table. Positive mirrors the happiness combinations; Negative
# is the union of the anger/disgust/sadness combinations (no fear rows exist
# in the objective table); Surprise rows carry "at least" semantics.
DEFAULT_NONOBJECTIVE_MAPPING = """\
Positive: 6 | 12 | 6+12 | 6+7+12 | 7+12
Negative: 23 | 4 | 4+7 | 4+5 | 4+5+7 | 17+24 | 4+6+7 | 4+38 | 10 | 9 | 4+9 | 4+40 | 4+5+40 | 4+7+9 | 4+9+17 | 4+7+10 | 4+5+7+9 | 7+10
Surprise: >=1+2 | >=25 | >=2
"""

DEFAULT_OBJECTIVE_TABLE = MappingTable.from_text(DEFAULT_OBJECTIVE_MAPPING)
DEFAULT_NONOBJECTIVE_TABLE = MappingTable.from_text(DEFAULT_NONOBJECTIVE_MAPPING)


def objective_label(aus, table: MappingTable = DEFAULT_OBJECTIVE_TABLE) -> ObjectiveClass:
    """Objective emotion class for an AU set (first matching rule, else Others)."""
    return ObjectiveClass(table.classify(aus))


def nonobjective_label(aus, table: MappingTable = DEFAULT_NONOBJECTIVE_TABLE) -> NonObjectiveClass:
    """Non-objective emotion class for an AU set."""
    return NonObjectiveClass(table.classify(aus))


def coder_reliability(coder1, coder2) -> float:
    """Agreement ratio between two coders' AU sets:
    2 * |agreed AUs| / (total AUs scored by both coders together).
    """
    c1, c2 = frozenset(coder1), frozenset(coder2)
    total = len(c1) + len(c2)
    if total == 0:
        raise ValueError("reliability is undefined when both coders scored no AUs")
    return 2 * len(c1 & c2) / total
