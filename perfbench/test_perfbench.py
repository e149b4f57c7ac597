"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from microexp.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def make_run(tmp_path: Path, name: str, seed: int, tag: str) -> run.Run:
    work = tmp_path / tag
    work.mkdir()
    return run.Run(WORKLOADS[name], seed, work, cli_main)


@pytest.fixture(scope="module")
def traced_output():
    """One short traced run of preprocess-2d: (printed lines, spans)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "preprocess-2d", "--seed", "5", "--seconds", "0.1",
                       "--trace", "1"])
    assert rc == 0, buf.getvalue()
    spans = json.loads((run.ROOT / ".perfbench_work" / "results" /
                        "preprocess-2d-seed5-trace1-spans.json").read_text(encoding="utf-8"))
    return buf.getvalue().splitlines(), spans


def test_same_seed_same_inputs(tmp_path):
    a = make_run(tmp_path, "pipeline-3d", 7, "a")
    b = make_run(tmp_path, "pipeline-3d", 7, "b")
    c = make_run(tmp_path, "pipeline-3d", 8, "c")
    for r in (a, b, c):
        r.setup()
    assert tree_bytes(a.data) == tree_bytes(b.data)
    assert tree_bytes(a.data) != tree_bytes(c.data)


def test_declared_metrics_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_printed_metrics_are_declared(traced_output):
    lines, _ = traced_output
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_spans_nest_and_self_times_are_non_negative(traced_output):
    _, spans = traced_output
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            own[s["parent"]] -= s["end"] - s["start"]
    assert min(own.values()) >= 0
    assert {s["layer"] for s in spans} >= {"fileio", "preprocess3d", "lbptop", "learn", "cli"}


def test_tracer_restores_targets():
    import microexp.cli
    import microexp.learn
    before = (microexp.cli.read_sample_tree, microexp.learn.train)
    tracer = tracing.Tracer()
    with tracer.install():
        assert microexp.learn.train is not before[1]
    assert (microexp.cli.read_sample_tree, microexp.learn.train) == before


def test_computed_counters_repeat(tmp_path):
    counters = []
    for tag in ("a", "b"):
        r = make_run(tmp_path, "sweep-kfold", 3, tag)
        r.setup()
        counters.append(checks.computed_counters(r.workload, r.cfg, r.data, r.out))
    assert counters[0] == counters[1]
    n = 6  # 3 subjects x 2 samples: one 2d feature and two 3d-si radii per sample
    assert counters[0]["cli.sweep.distinct_features"] == 3 * n
    assert counters[0]["curvature3d.fit_redundancy"] > 1.0


def test_feature_checks_catch_corruption(tmp_path):
    r = make_run(tmp_path, "sweep-kfold", 4, "a")
    r.setup()
    kinds = ["3d-si", "3d-hk", "3d-sihk"]
    for kind in kinds:
        r.command(("extract", "--kind", kind))
    records = checks.read_index(r.out / "preprocessed" / "index.csv")
    clean = checks.Report()
    checks.check_features(clean, r.out, kinds, r.cfg, records)
    assert clean.problems == [] and clean.attempted == 2 * len(kinds) * len(records)

    path = r.out / "features" / "3d-sihk" / records[0]["subject"] / f"{records[0]['sample']}.csv"
    tag, fingerprint, _, rest = path.read_text(encoding="utf-8").split(",", 3)
    path.write_text(f"{tag},{fingerprint},123.0,{rest}", encoding="utf-8")
    broken = checks.Report()
    checks.check_features(broken, r.out, kinds, r.cfg, records)
    assert any("motion weights" in p for p in broken.problems)
    assert any("not 3d-si followed by 3d-hk" in p for p in broken.problems)
