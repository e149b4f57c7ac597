import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from microexp import fileio
from microexp.lbptop import FeatureVector
from microexp.preprocess2d import FrameVolume
from microexp.preprocess3d import PointCloudFrame

from .oracles import (read_feature_csv_reference, read_landmarks_reference,
                      read_ply_reference, write_feature_csv_reference,
                      write_landmarks_reference, write_ply_reference)

# float32 edge values: signed zero, the smallest subnormal, the smallest
# normal, near the largest finite, inexact decimals, and 2**24 + 1 (not a
# float32, so the cast rounds it).
EDGE_FLOATS = (0.0, -0.0, 1e-45, 1.17549435e-38, 3.4e38, 0.1, 1 / 3, 16777217.0)
edge = st.sampled_from(EDGE_FLOATS + tuple(-v for v in EDGE_FLOATS))
# random float64 inside the float32 range, so the PLY float32 cast stays finite
in_float32_range = st.floats(min_value=-3.4e38, max_value=3.4e38)
ply_values = st.one_of(edge, in_float32_range, st.floats(width=32, allow_nan=False,
                                                         allow_infinity=False))
csv_values = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fileio_oracle")


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (24, 31), dtype=np.uint8)
        path = tmp_path / "f.pgm"
        fileio.write_pgm(path, img)
        assert np.array_equal(fileio.read_pgm(path), img)

    def test_header_with_comment(self, tmp_path):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        raw = b"P5\n# a comment\n4 4\n255\n" + img.tobytes()
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        assert np.array_equal(fileio.read_pgm(path), img)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n4 4\n255\n" + bytes(16))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a binary PGM file: magic b'P2'")):
            fileio.read_pgm(path)

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n4 4\n255\n" + bytes(8), "pixel data of a 4 x 4 image needs 16 bytes, found 8"),
        (b"", "not a binary PGM file: magic b''"),
        (b"P5\n48 x", "invalid literal for int() with base 10: b'x'"),
        (b"P5\n4 4\n65535\n" + bytes(32), "only 8-bit PGM supported, got maxval 65535"),
    ], ids=["truncated pixels", "empty", "non-integer header", "maxval 65535"])
    def test_errors_start_with_the_path(self, tmp_path, raw, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            fileio.read_pgm(path)

    def test_volume_round_trip(self, tmp_path, rng):
        vol = FrameVolume(rng.integers(0, 256, (3, 16, 16), dtype=np.uint8))
        fileio.write_volume(tmp_path / "frames", vol)
        files = sorted((tmp_path / "frames").glob("*.pgm"))
        assert [f.name for f in files] == ["frame_0000.pgm", "frame_0001.pgm", "frame_0002.pgm"]
        back = fileio.read_volume(tmp_path / "frames")
        assert np.array_equal(back.data, vol.data)


class TestPly:
    def test_round_trip_float32_exact(self, tmp_path, rng):
        pts = rng.standard_normal((50, 3)) * 0.1
        cloud = PointCloudFrame(pts)
        path = tmp_path / "c.ply"
        fileio.write_ply(path, cloud)
        back = fileio.read_ply(path)
        assert np.array_equal(back.points, pts.astype(np.float32).astype(np.float64))

    def test_header_structure(self, tmp_path):
        cloud = PointCloudFrame(np.zeros((2, 3)))
        path = tmp_path / "c.ply"
        fileio.write_ply(path, cloud)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 2" in lines
        assert "property float x" in lines

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "e.ply"
        fileio.write_ply(path, PointCloudFrame(np.empty((0, 3))))
        assert len(fileio.read_ply(path)) == 0

    def test_not_ply_rejected(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ValueError):
            fileio.read_ply(path)

    def test_sequence_round_trip(self, tmp_path, rng):
        clouds = [PointCloudFrame(rng.standard_normal((10, 3))) for _ in range(3)]
        fileio.write_cloud_sequence(tmp_path / "clouds", clouds)
        back = [fileio.read_ply(fileio.cloud_path(tmp_path / "clouds", t)) for t in range(3)]
        for cloud, read in zip(clouds, back):
            assert np.array_equal(read.points, cloud.points.astype(np.float32))


class TestPlyAgainstOracle:
    """The whole-array PLY writer/reader against the per-value originals."""

    @given(points=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3)),
                             elements=ply_values))
    def test_writer_bytes_and_reader_bits(self, scratch, points):
        fast, slow = scratch / "fast.ply", scratch / "slow.ply"
        fileio.write_ply(fast, PointCloudFrame(points))
        write_ply_reference(slow, PointCloudFrame(points))
        assert fast.read_bytes() == slow.read_bytes()
        assert _same_bits(fileio.read_ply(fast).points, read_ply_reference(fast).points)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "normals.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "property float nx\nproperty float ny\nproperty float nz\n"
                        "end_header\n"
                        "0.1 -0 1e-45 0 0 1\n"
                        "  16777217\t-3.4e38 0.333333343 1 0 0\n"
                        "-1.17549435e-38 2.5 -123.456 0 1 0 7\n")
        fast = fileio.read_ply(path).points
        assert fast.shape == (3, 3)
        assert _same_bits(fast, read_ply_reference(path).points)
        assert np.signbit(fast[0, 1])

    def test_empty_cloud(self, tmp_path):
        fast, slow = tmp_path / "fast.ply", tmp_path / "slow.ply"
        empty = PointCloudFrame(np.empty((0, 3)))
        fileio.write_ply(fast, empty)
        write_ply_reference(slow, empty)
        assert fast.read_bytes() == slow.read_bytes()
        assert _same_bits(fileio.read_ply(fast).points, read_ply_reference(fast).points)

    def test_pinned_text(self, tmp_path):
        # recorded from the per-value writer
        pts = np.array([[0.1, -0.0, 1e-45], [1 / 3, 16777217.0, 3.4e38],
                        [-1.17549435e-38, 2.5, -123.456]])
        path = tmp_path / "p.ply"
        fileio.write_ply(path, PointCloudFrame(pts))
        assert path.read_text() == (
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0.100000001 -0 1.40129846e-45\n"
            "0.333333343 16777216 3.39999995e+38\n"
            "-1.17549435e-38 2.5 -123.456001\n")


class TestLandmarksAgainstOracle:
    """The whole-array landmark writer/reader against the per-value originals."""

    @given(data=st.data(), dims=st.sampled_from((2, 3)))
    def test_writer_bytes_and_reader_bits(self, scratch, data, dims):
        per_frame = data.draw(st.lists(
            hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(dims)),
                       elements=csv_values), max_size=4))
        fast, slow = scratch / "fast.csv", scratch / "slow.csv"
        empty = [t for t, marks in enumerate(per_frame) if not len(marks)]
        if empty:
            # its file would read back short, or not at all (a gap in the frames)
            with pytest.raises(ValueError, match=re.escape(
                    f"{fast}: frame {empty[0]} holds no landmarks") + "$"):
                fileio.write_landmarks(fast, per_frame, dims=dims)
            return
        fileio.write_landmarks(fast, per_frame, dims=dims)
        write_landmarks_reference(slow, per_frame, dims=dims)
        assert fast.read_bytes() == slow.read_bytes()
        got = fileio.read_landmarks(fast, dims=dims)
        want = read_landmarks_reference(fast, dims=dims)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert _same_bits(a, b)

    def test_unordered_rows_sorted_like_oracle(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("frame,idx,x,y\n1,1,0.5,-0.0\n\n0,1,1e-45,2\n1,0,3,4\n0,0,5,6\n")
        got = fileio.read_landmarks(path, dims=2)
        want = read_landmarks_reference(path, dims=2)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert _same_bits(a, b)

    def test_pinned_text(self, tmp_path):
        # recorded from the per-value writer
        per_frame = [np.array([[0.1, -0.0, 1 / 3], [1e-300, 12345.678, -2.5]]),
                     np.array([[16777217.0, 5e-324, 1.7976931348623157e308],
                               [-0.1, 2.0, 1e22]])]
        path = tmp_path / "lm.csv"
        fileio.write_landmarks(path, per_frame, dims=3)
        assert path.read_text() == (
            "frame,idx,x,y,z\n"
            "0,0,0.1,-0.0,0.3333333333333333\n"
            "0,1,1e-300,12345.678,-2.5\n"
            "1,0,16777217.0,5e-324,1.7976931348623157e+308\n"
            "1,1,-0.1,2.0,1e+22\n")


class TestFeatureCsvAgainstOracle:
    @given(values=hnp.arrays(np.float64, st.integers(1, 40), elements=csv_values))
    def test_writer_bytes_and_reader_bits(self, scratch, values):
        fv = FeatureVector(values, tag="3d-si", fingerprint="0123abcd")
        fast, slow = scratch / "fast.csv", scratch / "slow.csv"
        fileio.write_feature_csv(fast, fv)
        write_feature_csv_reference(slow, fv)
        assert fast.read_bytes() == slow.read_bytes()
        got, want = fileio.read_feature_csv(fast), read_feature_csv_reference(fast)
        assert (got.tag, got.fingerprint) == (want.tag, want.fingerprint)
        assert _same_bits(got.values, want.values)

    # Around the 1024-value chunks of the writer, and one LBP-TOP row.
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049, 19200])
    def test_writer_bytes_at_chunk_edges(self, tmp_path, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        fv = FeatureVector(values, tag="2d-lbptop", fingerprint="0123abcd")
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        fileio.write_feature_csv(fast, fv)
        write_feature_csv_reference(slow, fv)
        assert fast.read_bytes() == slow.read_bytes()
        if n == 0:
            assert fast.read_bytes() == b"2d-lbptop,0123abcd,\n"


class TestMalformedRows:
    """Malformed rows fail with a ValueError naming the file and the line."""

    @pytest.mark.parametrize("body, line, message", [
        ("0,0,1,2,3\n0,1,1,2\n", 3, "expected 5 fields"),
        ("0,0,1,2,3,4\n", 2, "expected 5 fields"),
        ("0.5,0,1,2,3\n", 2, "frame and idx must be integers"),
        ("0,a,1,2,3\n", 2, "frame and idx must be integers"),
        ("0,0,1,x,3\n", 2, "non-numeric coordinate"),
        ("0,0,1,2,3\n\n0,1,1,2,3\n0,0,4,5,6\n", 5, "frame 0 idx 0 repeats line 2"),
        # Frames run 0, 1, 2, ... and so do each frame's indices.
        ("0,0,1,2,3\n2,0,1,2,3\n", 3, "expected frame 1 idx 0, got frame 2 idx 0"),
        ("1,0,1,2,3\n", 2, "expected frame 0 idx 0, got frame 1 idx 0"),
        ("0,0,1,2,3\n0,1,1,2,3\n1,1,4,5,6\n", 4, "expected frame 1 idx 0, got frame 1 idx 1"),
        ("0,2,1,2,3\n0,0,1,2,3\n", 2, "expected frame 0 idx 1, got frame 0 idx 2"),
    ])
    def test_landmark_rows(self, tmp_path, body, line, message):
        path = tmp_path / "landmarks3d.csv"
        path.write_text("frame,idx,x,y,z\n" + body)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ") + ".*" + message):
            fileio.read_landmarks(path, dims=3)

    @pytest.mark.parametrize("row, message", [
        ("t,fp,0.5,abc,0.25\n", "non-numeric feature value"),
        ("t,fp,0.5,,0.25\n", "non-numeric feature value"),
        ("t,fp,0.5,0.25#1\n", "non-numeric feature value"),
        ("t,fp,0.5\n0.25\n", "non-numeric feature value"),
        ("t,fp,\n", "not a feature CSV row"),
        ("t,fp,0.5,nan\n", "feature values must be finite"),
    ])
    def test_feature_rows(self, tmp_path, row, message):
        path = tmp_path / "s1_1.csv"
        path.write_text(row)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            fileio.read_feature_csv(path)

    @pytest.mark.parametrize("rows, line, message", [
        ("1 2 3\n1 2\n", 9, "vertex row needs x y z"),
        ("1 2 3\n\n", 9, "vertex row needs x y z"),
        ("1 2 3\n1 b 3\n", 9, "non-numeric vertex row"),
    ])
    def test_ply_rows(self, tmp_path, rows, line, message):
        path = tmp_path / "cloud_0000.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                        "property float y\nproperty float z\nend_header\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ") + message):
            fileio.read_ply(path)

    # Every header fault is a ValueError naming the file and the line, which
    # the batch commands report; an IndexError would escape them.
    @pytest.mark.parametrize("header_line, line, message", [
        ("element vertex", 3, "expected 'element vertex <count>', got 'element vertex'"),
        ("element vertex abc", 3, "expected 'element vertex <count>', got 'element vertex abc'"),
        ("element vertex -2", 3, "expected 'element vertex <count>', got 'element vertex -2'"),
        ("element vertex 2 3", 3, "expected 'element vertex <count>', got 'element vertex 2 3'"),
        ("format", 2, "only ASCII PLY supported, got 'format'"),
        ("format binary_little_endian 1.0", 2,
         "only ASCII PLY supported, got 'format binary_little_endian 1.0'"),
    ], ids=["count-missing", "count-non-integer", "count-negative", "count-extra-field",
            "format-bare", "format-binary"])
    def test_ply_header(self, tmp_path, header_line, line, message):
        path = tmp_path / "cloud_0000.ply"
        header = ["ply", "format ascii 1.0", "element vertex 2", "property float x",
                  "property float y", "property float z", "end_header"]
        header[line - 1] = header_line
        path.write_text("\n".join(header) + "\n1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}") + "$"):
            fileio.read_ply(path)


class TestLandmarks:
    def test_round_trip_3d(self, tmp_path, rng):
        per_frame = [rng.standard_normal((49, 3)) for _ in range(2)]
        path = tmp_path / "lm3.csv"
        fileio.write_landmarks(path, per_frame, dims=3)
        back = fileio.read_landmarks(path, dims=3)
        for a, b in zip(per_frame, back):
            assert np.array_equal(a, b)  # repr round-trips float64 exactly

    def test_round_trip_2d(self, tmp_path, rng):
        per_frame = [rng.standard_normal((49, 2)) for _ in range(3)]
        path = tmp_path / "lm2.csv"
        fileio.write_landmarks(path, per_frame, dims=2)
        back = fileio.read_landmarks(path, dims=2)
        assert len(back) == 3
        assert np.array_equal(back[1], per_frame[1])

    @pytest.mark.parametrize("empty_at", [0, 1, 2])
    def test_frame_without_landmarks_refused_before_writing(self, tmp_path, empty_at):
        # An empty frame before another would leave a gap that read_landmarks
        # refuses; one at the end would read back as one frame fewer.
        per_frame = [np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))]
        per_frame[empty_at] = np.empty((0, 3))
        path = tmp_path / "lm.csv"
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: frame {empty_at} holds no landmarks") + "$"):
            fileio.write_landmarks(path, per_frame, dims=3)
        assert not path.exists()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "lm.csv"
        path.write_text("bad,header\n")
        with pytest.raises(ValueError):
            fileio.read_landmarks(path, dims=2)


class TestFeatures:
    def test_csv_round_trip_exact(self, tmp_path, rng):
        fv = FeatureVector(rng.standard_normal(64), tag="2d-lbptop", fingerprint="abc123")
        path = tmp_path / "f.csv"
        fileio.write_feature_csv(path, fv)
        back = fileio.read_feature_csv(path)
        assert back.tag == "2d-lbptop"
        assert back.fingerprint == "abc123"
        assert np.array_equal(back.values, fv.values)

    def test_csv_row_format(self, tmp_path):
        fv = FeatureVector(np.array([0.5, 0.25]), tag="t", fingerprint="fp")
        path = tmp_path / "f.csv"
        fileio.write_feature_csv(path, fv)
        assert path.read_text() == "t,fp,0.5,0.25\n"

    @pytest.mark.parametrize("existing", [False, True])
    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "f.csv"
        if existing:
            fileio.write_feature_csv(path, FeatureVector(np.array([1.0]), tag="t", fingerprint="old"))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = Path.write_text

        def torn(self, text, *args, **kwargs):
            real(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", torn)
        fv = FeatureVector(np.arange(100.0), tag="t", fingerprint="new")
        with pytest.raises(OSError, match="no space left"):
            fileio.write_feature_csv(path, fv)
        # Neither a torn file under the final name nor a temporary file is left.
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_writer_memory_is_bounded_by_chunks(self, tmp_path):
        # One LBP-TOP row: formatting all 19 200 reprs at once peaked at 5.5x
        # the row's length; one 1024-value chunk at a time, at 2.0x.
        fv = FeatureVector(np.random.default_rng(0).standard_normal(19200), tag="2d-lbptop",
                           fingerprint="0123abcd")
        path = tmp_path / "f.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fileio.write_feature_csv(path, fv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * path.stat().st_size


class TestConfig:
    def test_round_trip(self):
        values = {"lbp.radii": "1,1,4", "run.seed": "7", "data.root": "x/y"}
        text = fileio.format_config(values)
        assert fileio.parse_config_text(text) == values

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nlbp.overlap=0  # inline\n"
        assert fileio.parse_config_text(text) == {"lbp.overlap": "0"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            fileio.parse_config_text("not a pair\n")

    def test_file_round_trip(self, tmp_path):
        values = {"a.b": "1", "c.d": "x"}
        path = tmp_path / "cfg.txt"
        fileio.save_config(path, values)
        assert fileio.load_config(path) == values
