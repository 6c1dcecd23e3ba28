import json
import subprocess

import numpy as np
import pytest

from altismooth import blockio, make_trajectory


class TestBlockFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        block = rng.normal(0, 5, (104, 37))
        path = tmp_path / "block.blk"
        blockio.write_block(path, block)
        assert np.array_equal(blockio.read_block(path), block)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "tiny.blk"
        blockio.write_block(path, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        raw = path.read_bytes()
        assert raw[:4] == b"SSE1"
        assert int.from_bytes(raw[4:8], "little") == 3
        assert int.from_bytes(raw[8:12], "little") == 2
        assert len(raw) == 12 + 6 * 8
        assert np.frombuffer(raw[12:], dtype="<f8")[0] == 1.0  # row-major

    def test_file_is_header_then_samples(self, tmp_path):
        # the samples are written from the block's buffer, in C order and little-endian
        block = np.random.default_rng(1).normal(size=(104, 37))
        path = tmp_path / "b.blk"
        header = b"SSE1" + (104).to_bytes(4, "little") + (37).to_bytes(4, "little")
        for given in (block, np.asfortranarray(block), block.astype(">f8")):
            blockio.write_block(path, given)
            assert path.read_bytes() == header + block.tobytes()
        blockio.write_block(path, block[:, ::2])
        assert path.read_bytes()[12:] == np.ascontiguousarray(block[:, ::2]).tobytes()

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_empty_block_rejected_before_any_file(self, tmp_path, shape):
        # the writer rejects what the reader would, with the reader's message
        path = tmp_path / "empty.blk"
        message = rf"empty block header \({shape[0]} x {shape[1]}\)"
        with pytest.raises(ValueError, match=message):
            blockio.write_block(path, np.zeros(shape))
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"SSE1" + b"".join(n.to_bytes(4, "little") for n in shape))
        with pytest.raises(ValueError, match=message):
            blockio.read_block(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.blk"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            blockio.read_block(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.blk"
        blockio.write_block(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            blockio.read_block(path)

    @pytest.mark.parametrize("num_gates, num_signals", [(0, 4), (4, 0)])
    def test_empty_header_rejected(self, tmp_path, num_gates, num_signals):
        path = tmp_path / "empty.blk"
        path.write_bytes(blockio._HEADER.pack(blockio.MAGIC, num_gates, num_signals))
        with pytest.raises(ValueError, match="empty"):
            blockio.read_block(path)

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.blk"
        path.write_bytes(blockio._HEADER.pack(blockio.MAGIC, 2**32 - 1, 2**32 - 1)
                         + b"\x00" * 64)
        with pytest.raises(ValueError, match="truncated"):
            blockio.read_block(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.blk"
        blockio.write_block(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            blockio.read_block(path)

    def test_atomic_overwrite(self, tmp_path):
        path = tmp_path / "block.blk"
        blockio.write_block(path, np.ones((2, 2)))
        blockio.write_block(path, np.zeros((2, 2)))
        assert np.array_equal(blockio.read_block(path), np.zeros((2, 2)))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestTrajectoryCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        traj = make_trajectory("smooth-random", 64, swh_range=(3.4, 5.4),
                               tau_range=(14.3, 15.0), pu_range=(150.0, 190.0),
                               seed=5)
        path = tmp_path / "traj.csv"
        blockio.write_trajectory_csv(path, traj)
        swh, tau, pu = blockio.read_trajectory_csv(path)
        assert np.array_equal(swh, traj.swh)
        assert np.array_equal(tau, traj.tau)
        assert np.array_equal(pu, traj.pu)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,swh_m\n0,1.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            blockio.read_trajectory_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,swh_m,tau_m,pu\n")
        with pytest.raises(ValueError, match="empty"):
            blockio.read_trajectory_csv(path)


class TestReportsAndManifest:
    def test_report_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        blockio.write_report_csv(path, ["a", "b"], [{"a": 1, "b": 2.5}])
        assert path.read_text() == "a,b\n1,2.5\n"

    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        blockio.write_manifest(path, "generate", {"n": 5}, {"out": "x.blk"},
                               started=0.0, seeds={"master": 7})
        payload = json.loads(path.read_text())
        assert payload["subcommand"] == "generate"
        assert payload["args"] == {"n": 5}
        assert payload["seeds"] == {"master": 7}
        assert payload["outputs"] == {"out": "x.blk"}
        assert "package_version" in payload and "wallclock_seconds" in payload
        assert blockio.read_manifest(path) == payload

    def test_build_identifier_is_read_once(self, tmp_path, monkeypatch):
        calls = []

        def run(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n")

        monkeypatch.setattr(blockio.subprocess, "run", run)
        blockio._build_identifier.cache_clear()
        try:
            for name in ("a", "b"):
                blockio.write_manifest(tmp_path / f"{name}.json", "generate", {}, {}, started=0.0)
        finally:
            blockio._build_identifier.cache_clear()
        builds = [blockio.read_manifest(tmp_path / f"{name}.json")["build"] for name in "ab"]
        assert builds == ["abc1234", "abc1234"] and len(calls) == 1
