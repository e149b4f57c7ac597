"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install()`` replaces each function in ``TARGETS`` at the place where
the calling code looks it up, so the program itself is unchanged. Every call
then records a span (name, layer, start, end, parent) in memory; the
benchmark writes the spans out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field


def _path_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


def _icp_iters(args, kwargs, result):
    return {"n_iter": int(result.n_iter)}


def _feature_dim(args, kwargs, result):
    features = kwargs.get("features", args[0] if args else ())
    first = features[0]
    return {"feature_dim": len(getattr(first, "values", first))}


# (module, attribute looked up by the caller, span name, attribute hook).
# cli binds lbp_top_histogram, mean_difference_weights and make_dataset by
# name, so those are replaced in cli; learn.cross_val_proba looks up train as
# a module global; fileio's sequence readers look up read_ply/read_pgm the
# same way.
TARGETS = (
    ("microexp.cli", "make_dataset", "synth.make_dataset", None),
    ("microexp.fileio", "write_ply", "fileio.write_ply", _path_bytes),
    ("microexp.fileio", "read_ply", "fileio.read_ply", _path_bytes),
    ("microexp.fileio", "read_pgm", "fileio.read_pgm", None),
    ("microexp.fileio", "write_pgm", "fileio.write_pgm", None),
    ("microexp.fileio", "read_landmarks", "fileio.read_landmarks", None),
    ("microexp.fileio", "write_landmarks", "fileio.write_landmarks", None),
    ("microexp.fileio", "read_feature_csv", "fileio.read_feature_csv", None),
    ("microexp.fileio", "write_feature_csv", "fileio.write_feature_csv", None),
    ("microexp.preprocess2d", "warp_volume", "preprocess2d.warp_volume", None),
    ("microexp.preprocess2d", "crop_face", "preprocess2d.crop_face", None),
    ("microexp.preprocess3d", "denoise", "preprocess3d.denoise", None),
    ("microexp.preprocess3d", "find_nose_tip", "preprocess3d.find_nose_tip", None),
    ("microexp.preprocess3d", "register_sequence", "preprocess3d.register_sequence", None),
    ("microexp.preprocess3d", "icp_align", "preprocess3d.icp_align", _icp_iters),
    ("microexp.cli", "lbp_top_histogram", "lbptop.lbp_top_histogram", None),
    ("microexp.cli", "mean_difference_weights", "lbptop.mean_difference_weights", None),
    ("microexp.curvature3d", "sequence_feature", "curvature3d.sequence_feature", None),
    ("microexp.learn", "train", "learn.train", _feature_dim),
    ("microexp.learn", "cross_val_proba", "learn.cross_val_proba", None),
    ("microexp.learn", "fuse", "learn.fuse", None),
    ("microexp.learn", "metrics", "learn.metrics", None),
    ("microexp.cli", "read_sample_tree", "cli.read_sample_tree", None),
    ("microexp.cli", "extract_sample_feature", "cli.extract_sample_feature", None),
)

LAYERS = ("synth", "fileio", "preprocess2d", "preprocess3d", "lbptop", "curvature3d",
          "learn", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        # Command spans ("cmd.extract_2d") belong to the cli layer.
        head = self.name.split(".", 1)[0]
        return "cli" if head == "cmd" else head

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=len(self.spans), name=name, start=time.perf_counter(), parent=parent)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if hook is not None:
                    s.attrs.update(hook(args, kwargs, result))
            return result
        return traced

    @contextlib.contextmanager
    def install(self):
        """Replace every target while the block runs; always restore."""
        saved = []
        try:
            for module_name, attr, name, hook in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: children outside parents, negative self time."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.name}#{s.id} ends before it starts")
        if s.parent is not None:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.name}#{s.id} lies outside its parent {p.name}#{p.id}")
    for sid, t in self_times(spans).items():
        if t < 0:
            problems.append(f"span {by_id[sid].name}#{sid} has negative self time {t}")
    return problems


def summarize(spans: list[Span]) -> dict[str, float]:
    """Busy time, calls and self time per span name, layer and command.

    Spans under a ``setup`` root only contribute ``synth.make_dataset.s``: the
    per-layer figures describe the timed commands.
    """
    by_id = {s.id: s for s in spans}

    def root(s):
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    own = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        r = root(s)
        if r.name == "setup":
            if s.name == "synth.make_dataset":
                out["synth.make_dataset.s"] = out.get("synth.make_dataset.s", 0.0) + s.duration
                out["synth.self_s"] += own[s.id]
            continue
        out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + s.duration
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        if s.name.startswith("cmd."):
            out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own[s.id]
        if s.layer in LAYERS:
            out[f"{s.layer}.self_s"] += own[s.id]
        for key, value in s.attrs.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
    return out


def to_json(spans: list[Span], t0: float) -> list[dict]:
    return [{"id": s.id, "name": s.name, "layer": s.layer, "parent": s.parent,
             "start": s.start - t0, "end": s.end - t0, **s.attrs} for s in spans]
