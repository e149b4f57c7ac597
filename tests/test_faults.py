"""The failure contract of the batch commands, checked through ``main``: one
table, faults as rows and commands as columns. Each cell copies a tiny run
tree (after synth, preprocess, the four extracts and eval), makes one fault
and runs one command. It checks the exit code: preprocess skips a sample it
cannot read (1 of 4, so 3), a fault another command meets exits 2, and a
fault in a file the command does not read exits 0 with the undamaged
tree's outputs. It checks that the message (stderr, or the manifest's
``skipped:`` reason) names the faulty path exactly once. And it checks what
is left: refused inputs leave run.out (data.root for synth) byte for byte;
a failure after the start leaves none of the command's outputs, old or new;
sweep keeps the rows of the points it finished, and once the fault is
mended, its rerun leaves the bytes of an uninterrupted sweep.

Samples 01/1_1 to 02/2_2 have nine frames: onset 0, apex 4, offset 8.
``{tree}`` is data/ under preprocess and out/preprocessed/ otherwise.
"""

import errno
import json
import os
import re
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from microexp import dataset, fileio
from microexp.cli import RunConfig, feature_fingerprint, main

CONFIG = {"synth.subjects": "2", "synth.samples": "2", "synth.points": "700",
          "lbp.radii": "1,1,2", "lbp.blocks": "2,2"}
KINDS = ("2d", "3d-si", "3d-hk", "3d-sihk")
EXTRACTS = tuple(f"extract-{kind}" for kind in KINDS)
ARGV = {"synth": ["synth"], "preprocess": ["preprocess"], "eval": ["eval"], "sweep": ["sweep"],
        **{f"extract-{kind}": ["extract", "--kind", kind] for kind in KINDS}}
# What each command writes whole or not at all.
OUTPUTS = {"synth": ["data/index.csv"],
           "preprocess": ["out/preprocessed/index.csv", "out/preprocessed/manifest.json"],
           "eval": ["out/results.csv", "out/eval_details.json"],
           **{f"extract-{kind}": [f"out/features/{kind}"] for kind in KINDS}}
ROWS = 7  # sweep.csv rows per grid point: four kinds, three fused pairs


def run(root: Path, command: str) -> int:
    argv = [*ARGV[command], "--config", str(root / "run.cfg"), "--root", str(root / "data"),
            "--out", str(root / "out")]
    return main(argv + (["--grid", str(root / "grid.txt")] if command == "sweep" else []))


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("faults")
    fileio.save_config(root / "run.cfg", CONFIG)
    (root / "grid.txt").write_text("curv.radius=0.02|0.025\n", encoding="utf-8")
    for command in ("synth", "preprocess", *EXTRACTS, "eval"):
        assert run(root, command) == 0
    built = files(root)
    yield root
    assert files(root) == built  # no cell wrote through a hard link


@pytest.fixture(scope="module")
def uninterrupted(tree, tmp_path_factory) -> bytes:
    """sweep.csv of a sweep of a copy of the tree that no fault stops."""
    root = tmp_path_factory.mktemp("uninterrupted") / "run"
    shutil.copytree(tree, root, copy_function=os.link)
    assert run(root, "sweep") == 0
    assert sweep_points(root) == ["0.02"] * ROWS + ["0.025"] * ROWS
    return (root / "out" / "sweep.csv").read_bytes()


def files(path: Path) -> dict:
    """The bytes of ``path``, or of every file under it, by relative path."""
    if path.is_file():
        return {".": path.read_bytes()}
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}


def outputs(root: Path, command: str) -> dict:
    return {(name, rel): data for name in OUTPUTS[command] if (root / name).exists()
            for rel, data in files(root / name).items()}


def sweep_points(root: Path) -> list[str]:
    """The grid value leading each row of sweep.csv, none an error row."""
    header, *rows = (root / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert header == "curv.radius,radius,features,protocol,accuracy,f1"
    assert not [row for row in rows if ",error," in row]
    return [row.split(",")[0] for row in rows]


def at(template: str, damage: Callable[[Path], object], named: str | None = None):
    """The fault ``damage`` makes at ``template``; it names that path, or ``named``."""
    def make(root: Path, command: str) -> Path:
        where = {"root": root, "out": root / "out",
                 "tree": root / ("data" if command == "preprocess" else "out/preprocessed"),
                 "target": root / ("data" if command == "synth" else "out")}
        damage(Path(template.format(**where)))
        return Path((named or template).format(**where))
    return make


def edit(change: Callable[[bytes], bytes]) -> Callable[[Path], None]:
    """Rewrite the file as a new file: the old one may be linked to the tree."""
    def damage(path: Path) -> None:
        data = path.read_bytes()
        path.unlink()
        path.write_bytes(change(data))
    return damage


def line(n: int, text: bytes) -> Callable[[Path], None]:
    return edit(lambda data: b"".join(text + b"\n" if i == n else row
                                      for i, row in enumerate(data.splitlines(True))))


def other_fingerprint(data: bytes) -> bytes:
    """The feature row under the fingerprint its kind has at curv.radius=0.025."""
    tag, _, values = data.split(b",", 2)
    cfg = RunConfig.from_dict({**CONFIG, "curv.radius": "0.025"})
    return b",".join([tag, feature_fingerprint(cfg, tag.decode()).encode(), values])


def into_file(path: Path) -> None:
    shutil.rmtree(path)
    path.write_text("a file, not a directory\n", encoding="utf-8")


def older_manifest(data: bytes) -> bytes:
    """The manifest of a version that had the key landmarks.inner_eye_left:
    the key in its config, and another fingerprint."""
    manifest = json.loads(data)
    manifest["config"]["landmarks.inner_eye_left"] = "22"
    manifest["fingerprint"] = "0ce77d42aca2"
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def frames_all_spans_differ(cfg_path: Path) -> None:
    """curv.frames=all in the run's config, and 01/1_1's offset cut from 8 to
    6 in the preprocessed index: its feature would have 7 frames, the others 9."""
    edit(lambda cfg: cfg + b"curv.frames=all\n")(cfg_path)
    edit(lambda data: data.replace(b"\n01,1_1,0,4,8,", b"\n01,1_1,0,4,6,"))(
        cfg_path.parent / "out" / "preprocessed" / "index.csv")


def final_rename(dst: Path, command: str) -> bool:
    """The rename that writes the command's last output; in a sweep, the
    rewrite of sweep.csv that adds the second point's rows."""
    if command == "sweep":
        return dst.name == "sweep.csv" and dst.exists() and len(dst.read_bytes().splitlines()) > 1
    return dst.name == {"synth": "index.csv", "preprocess": "manifest.json",
                        "eval": "results.csv"}.get(command, "2_2.csv")


def cold_store(root: Path, command: str) -> None:
    """Extracts fit on an empty curvature store; sweep fits curv.radius=0.025 anew."""
    if command != "sweep":
        shutil.rmtree(root / "out" / "cache")


class Fault(NamedTuple):
    commands: tuple[str, ...]
    make: Callable[[Path, str], Path | None] | None  # (tree copy, command) -> the path to name
    reason: str | None  # the reader's message, a regex over {path} and {out}; None: any
    sample: str | None = None  # a sample file's fault: the sample
    reads: tuple[str, ...] = ()  # ... and the commands that read the file
    refused: bool = False  # refused before any work
    renames: Callable[[Path, str], bool] | None = None  # (destination, command) that fails
    finished: int = 0  # sweep points done before the fault stops the sweep


TREE_READERS = (*EXTRACTS, "eval", "sweep")
CLOUDS = ("preprocess", *EXTRACTS[1:], "sweep")  # the readers of a curvature frame's cloud
FRAMES = ("preprocess", *EXTRACTS, "sweep")


def sample_file(sample: str, name: str, damage, reason: str, reads, named=None) -> Fault:
    return Fault(("preprocess", *TREE_READERS), at(f"{{tree}}/{sample}/{name}", damage, named and
                                                    f"{{tree}}/{sample}/{named}"),
                 reason, sample, reads)


def feature_file(kind: str, damage, reason: str) -> Fault:
    return Fault(("eval",), at(f"{{out}}/features/{kind}/02/2_2.csv", damage), reason)


ENOSPC = r"\[Errno 28\] No space left on device: '[^']*' -> '{path}'"
MISMATCH = r"{{path}}: feature {},\w+ does not match the config \({},\w+\); run extract again"
OTHER_KEYS = (r"{{path}} was preprocessed under other preprocess keys than the config \({}\); "
              r"run preprocess again with this config")
CUT = edit(lambda data: data[:len(data) // 2])
FAULTS = {
    "cloud-missing": sample_file("01/1_1", "clouds/cloud_0004.ply", Path.unlink,
                                 "missing cloud file: {path}", CLOUDS),
    "cloud-cut": sample_file("01/1_1", "clouds/cloud_0004.ply", CUT,
                             r"{path}: expected \d+ vertex rows, found \d+", CLOUDS),
    "cloud-non-numeric": sample_file("01/1_1", "clouds/cloud_0004.ply", line(7, b"0.1 abc 0.2"),
                                     r"{path}:8: non-numeric vertex row '0\.1 abc 0\.2'", CLOUDS),
    "cloud-count-missing": sample_file("01/1_1", "clouds/cloud_0004.ply",
                                       line(2, b"element vertex"), "{path}:3: expected 'element "
                                       "vertex <count>', got 'element vertex'", CLOUDS),
    "cloud-count-non-integer": sample_file("01/1_1", "clouds/cloud_0004.ply",
                                           line(2, b"element vertex abc"), "{path}:3: expected "
                                           "'element vertex <count>', got 'element vertex abc'",
                                           CLOUDS),
    "cloud-not-ascii": sample_file("01/1_1", "clouds/cloud_0004.ply",
                                   edit(lambda data: data + b"\xe9"), r"{path}: 'ascii' codec "
                                   r"can't decode byte 0xe9 in position \d+: ordinal not in "
                                   r"range\(128\)", CLOUDS),
    # Frame 1 is neither onset nor apex: only preprocess reads its cloud.
    "cloud-unread-damaged": sample_file("01/1_1", "clouds/cloud_0001.ply", line(0, b"x"),
                                        "{path}: not a PLY file", ("preprocess",)),
    # Frame and landmark faults hit the last sample, after the others' files were written.
    "frame-missing": sample_file("02/2_2", "frames/frame_0004.pgm", Path.unlink,
                                 "missing frame file: {path}", FRAMES),
    "frame-missing-last": sample_file("02/2_2", "frames/frame_0008.pgm", Path.unlink,
                                      "{path}: 8 frames, but the index puts the offset at frame 8",
                                      FRAMES, named="frames"),
    "frame-cut": sample_file("02/2_2", "frames/frame_0004.pgm", CUT,
                             r"{path}: pixel data of a \d+ x \d+ image needs \d+ bytes, found \d+",
                             FRAMES),
    "landmarks-missing": sample_file("02/2_2", "landmarks2d.csv", Path.unlink,
                                     "missing landmark file: {path}", CLOUDS),
    "landmarks-non-numeric": sample_file("02/2_2", "landmarks3d.csv", line(1, b"0,0,abc,0.5,0.5"),
                                         "{path}:2: non-numeric coordinate in '0,0,abc,0.5,0.5'",
                                         CLOUDS),
    "landmarks-not-utf8": sample_file("02/2_2", "landmarks3d.csv", line(1, b"0,0,\xff,0.5,0.5"),
                                      r"{path}: 'utf-8' codec can't decode byte 0xff in position "
                                      r"\d+: invalid start byte", CLOUDS),
    "landmarks-cut": sample_file("02/2_2", "landmarks3d.csv",  # at a row: 4 frames and a part
                                 edit(lambda data: b"".join(data.splitlines(True)[:221])),
                                 "{path}: landmarks of 5 frames, but the video has 9", CLOUDS),
    "landmarks-cut-frame": sample_file("02/2_2", "landmarks3d.csv",  # 8 frames and 20 rows
                                       edit(lambda data: b"".join(
                                           data.splitlines(True)[:1 + 8 * 49 + 20])),
                                       "{path}: frame 8 has 20 landmarks, not 49", CLOUDS),
    "index-malformed": Fault(("preprocess", *TREE_READERS),
                             at("{tree}/index.csv", line(2, b"01,1_2,0,4,8,1+2,Surprise")),
                             "{path}: row 3: expected 8 columns, got 7", refused=True),
    "synth-interrupted": Fault(("preprocess",), at("{tree}/index.csv", Path.unlink),
                               r"\[Errno 2\] No such file or directory: '{path}'", refused=True),
    "preprocess-interrupted": Fault(TREE_READERS, at("{tree}/manifest.json", lambda path: [
        path.unlink(), path.with_name("index.csv").unlink()]),
        "missing {path}: run preprocess first", refused=True),
    "preprocessed-missing": Fault(TREE_READERS, at("{tree}", shutil.rmtree,
                                                   named="{tree}/manifest.json"),
                                  "missing {path}: run preprocess first", refused=True),
    "index-missing": Fault(TREE_READERS, at("{tree}/index.csv", Path.unlink),
                           "missing {path}: run preprocess again", refused=True),
    # The tree was preprocessed under clean.k=8.
    "other-keys": Fault(TREE_READERS, at("{root}/run.cfg", edit(lambda cfg: cfg + b"clean.k=3\n"),
                                         named="{tree}"),
                        OTHER_KEYS.format(r"clean\.k=8, not 3"), refused=True),
    "removed-key": Fault(TREE_READERS, at("{tree}/manifest.json", edit(older_manifest),
                                          named="{tree}"),
                         OTHER_KEYS.format(r"landmarks\.inner_eye_left=22 \(no longer a key\)"),
                         refused=True),
    "frames-all-spans-differ": Fault(EXTRACTS[1:], at("{root}/run.cfg", frames_all_spans_differ,
                                                      named="{tree}/index.csv"),
                                     r"extract 3d-\S+: {path}: curv\.frames=all needs one "
                                     r"onset-to-offset span in every sample, not 01/1_1 "
                                     r"\(frames 0\.\.6\) and 02/2_2 \(frames 0\.\.8\); "
                                     r"use curv\.frames=onset-apex"),
    "feature-missing": feature_file("3d-si", Path.unlink,
                                    "missing 3d-si feature file {path}: run extract first"),
    "feature-not-a-row": feature_file("2d", edit(lambda data: b"2d-lbptop,abc\n"),
                                      "damaged feature file {path}: not a feature CSV row: "
                                      "run extract again"),
    "feature-nan": feature_file("2d", edit(lambda data: data.rstrip() + b",nan\n"),
                                "damaged feature file {path}: feature values must be finite: "
                                "run extract again"),
    "feature-length": feature_file("2d", edit(lambda data: data.rstrip() + b",0.5\n"),
                                   r"{path}: 3073 feature values, but "
                                   r"{out}/features/2d/01/1_1\.csv has 3072"),
    "feature-other-keys": feature_file("3d-sihk", edit(other_fingerprint),
                                       MISMATCH.format("3d-sihk", "3d-sihk")),
    "feature-other-kind": feature_file(
        "3d-hk", lambda path: path.unlink() or shutil.copyfile(
            path.parents[2] / "3d-si/02/2_2.csv", path),
        MISMATCH.format("3d-si", "3d-hk")),
    "output-unwritable": Fault(tuple(ARGV), at("{target}", into_file), None, refused=True),
    "rename-fails": Fault(("synth", "preprocess", *EXTRACTS, "eval", "sweep"), None, ENOSPC,
                          renames=final_rename, finished=1),
    "store-rename-fails": Fault((*EXTRACTS[1:], "sweep"), cold_store,
                                r"extract 3d-\S+ 01/1_1: " + ENOSPC,
                                renames=lambda dst, command: dst.suffix == ".npy", finished=1),
    # sweep.csv is written whole after each point: only an older version tore it.
    "sweep-csv-torn": Fault(("sweep",), at("{out}/sweep.csv", lambda path: path.write_text(
        "curv.radius,radius,features,protocol,accuracy,f1\n0.02,-,2d,lo", encoding="utf-8")),
        "{path} does not end in a newline: an older sweep was cut while writing it; "
        "delete it or use another run.out", refused=True),
    "sweep-csv-not-utf8": Fault(("sweep",), at("{out}/sweep.csv", lambda path: path.write_bytes(
        b"curv.radius,radius,features,protocol,accuracy,f1\n\xff\n")),
        "{path}: 'utf-8' codec can't decode byte 0xff in position 49: invalid start byte",
        refused=True),
}
CELLS = [(name, command) for name, fault in FAULTS.items() for command in fault.commands]


@pytest.mark.parametrize("name, command", CELLS, ids=[f"{n}-{c}" for n, c in CELLS])
def test_fault_matrix(tree, uninterrupted, tmp_path, monkeypatch, capsys, name, command):
    fault, root, failed = FAULTS[name], tmp_path / "run", []
    # Files are hard links to the tree's; synth and preprocess rewrite theirs in place.
    shutil.copytree(tree, root, copy_function=os.link)
    for sub in {"synth": ["data"], "preprocess": ["out/preprocessed"]}.get(command, []):
        shutil.rmtree(root / sub)
        shutil.copytree(tree / sub, root / sub)
    if fault.renames:
        real = os.replace

        def replace(src, dst):
            if not failed and fault.renames(Path(dst), command):
                failed.append(Path(dst))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(src), None, str(dst))
            return real(src, dst)

        monkeypatch.setattr(fileio.os, "replace", replace)
    path = fault.make(root, command) if fault.make else None
    target = root / ("data" if command == "synth" else "out")
    before = files(target)
    code, err = run(root, command), capsys.readouterr().err
    path = failed[0] if fault.renames else path
    reason = (fault.reason or ".*").format(path=re.escape(str(path)),
                                           out=re.escape(str(root / "out")))
    assert not list(root.rglob(".*.tmp"))

    pre = root / "out" / "preprocessed"
    if fault.sample and command == "preprocess":  # the sample is skipped, the others kept
        assert code == 3
        samples = json.loads((pre / "manifest.json").read_text())["samples"]
        status = samples.pop(fault.sample)
        assert re.fullmatch(f"skipped: {reason}", status) and status.count(str(path)) == 1
        assert set(samples.values()) == {"ok"}
        kept = [f"{r.subject_id}/{r.sample_id}" for r in dataset.load_index(pre / "index.csv")]
        assert kept == list(samples)
        for sample in kept:
            assert files(pre / sample) == files(tree / "out" / "preprocessed" / sample)
    elif fault.sample and command not in fault.reads:  # the file is not read
        assert (code, err) == (0, "")
        if command == "sweep":
            assert sweep_points(root) == ["0.02"] * ROWS + ["0.025"] * ROWS
        else:
            assert outputs(root, command) == outputs(tree, command) != {}
    else:
        where = ""
        if fault.sample:  # named by the kind the command reads the file for
            kind = next(k for k in KINDS if f"extract-{k}" in fault.reads)
            where = f"extract {command[8:] if command in EXTRACTS else kind} {fault.sample}: "
        assert (code, err.count(str(path))) == (2, 1)
        assert re.fullmatch(f"data error: {where}{reason}\n", err), err
        if fault.refused:
            assert files(target) == before
        elif command == "sweep":
            assert sweep_points(root) == ["0.02"] * ROWS * fault.finished
            # Mended, a rerun finishes the sweep as if it had never stopped.
            finished = (root / "out" / "sweep.csv").read_bytes()
            monkeypatch.undo()
            if fault.sample:
                shutil.rmtree(pre / fault.sample)
                shutil.copytree(tree / "out" / "preprocessed" / fault.sample, pre / fault.sample)
            assert run(root, "sweep") == 0
            resumed = (root / "out" / "sweep.csv").read_bytes()
            assert resumed.startswith(finished) and resumed == uninterrupted
        else:
            assert outputs(root, command) == {}
            if command == "synth":  # preprocess refuses the tree the failed synth left
                assert run(root, "preprocess") == 2
                assert str(root / "data" / "index.csv") in capsys.readouterr().err
