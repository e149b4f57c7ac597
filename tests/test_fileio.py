import numpy as np
import pytest

from microexp import fileio
from microexp.lbptop import FeatureVector
from microexp.preprocess2d import FrameVolume
from microexp.preprocess3d import PointCloudFrame


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
        with pytest.raises(ValueError):
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
        back = fileio.read_cloud_sequence(tmp_path / "clouds")
        assert len(back) == 3


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
