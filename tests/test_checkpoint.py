"""Checkpoint container: roundtrips, byte stability, mismatch rejection."""

import json
import os
import stat
import struct

import numpy as np
import pytest

from domusfm.checkpoint import (
    MAGIC,
    CheckpointError,
    atomic_write,
    load_into_groups,
    read_checkpoint,
    save_checkpoint,
)
from domusfm.nn import ParamGroup


def make_groups(seed=0):
    rng = np.random.default_rng(seed)
    enc = ParamGroup("encoder")
    enc.add("w", rng.normal(size=(4, 3)).astype(np.float32))
    enc.add("b", rng.normal(size=(3,)).astype(np.float32))
    head = ParamGroup("head", frozen=True)
    head.add("w", rng.normal(size=(3, 2)).astype(np.float32))
    return [enc, head]


class TestRoundtrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        groups = make_groups()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), groups, meta={"d": 3})
        loaded, meta = read_checkpoint(str(p1))
        assert meta == {"d": 3}
        save_checkpoint(str(p2), loaded, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_and_freeze_flags_survive(self, tmp_path):
        groups = make_groups()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), groups)
        loaded, _ = read_checkpoint(str(path))
        assert [g.name for g in loaded] == ["encoder", "head"]
        assert loaded[1].frozen and not loaded[0].frozen
        for orig, back in zip(groups, loaded):
            for name in orig.tensors:
                np.testing.assert_array_equal(orig[name].data, back[name].data)

    def test_header_lists_every_tensor_with_shape(self, tmp_path):
        import json
        import struct

        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_groups())
        blob = path.read_bytes()
        assert blob[:8] == MAGIC
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        names = {(g["name"], t["name"]): t["shape"]
                 for g in header["groups"] for t in g["tensors"]}
        assert names[("encoder", "w")] == [4, 3]
        assert names[("head", "w")] == [3, 2]


class TestLoadIntoModel:
    def test_load_restores_bytes(self, tmp_path):
        src = make_groups(seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), src)
        dst = make_groups(seed=2)
        load_into_groups(str(path), {g.name: g for g in dst})
        for a, b in zip(src, dst):
            assert a.state_bytes() == b.state_bytes()
            assert a.frozen == b.frozen

    def test_shape_mismatch_rejected_before_mutation(self, tmp_path):
        src = make_groups()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), src)
        dst = make_groups(seed=5)
        dst[1].tensors["w"].data = np.zeros((9, 9), dtype=np.float32)
        before = [g.state_bytes() for g in dst]
        with pytest.raises(CheckpointError, match="head/w"):
            load_into_groups(str(path), {g.name: g for g in dst})
        assert [g.state_bytes() for g in dst] == before

    def test_missing_group_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_groups())
        with pytest.raises(CheckpointError, match="missing"):
            load_into_groups(str(path), {})

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(str(path))


    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(MAGIC + b"\x00" * 4)
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(str(path))

    @pytest.mark.parametrize("header", [
        {"format": 1},
        {"format": 1, "groups": [{"name": "encoder", "tensors": []}]},
        {"format": 1, "groups": [{"name": "encoder", "frozen": False,
                                  "tensors": [{"name": "w", "dtype": "f4"}]}]},
        [1, 2],
    ], ids=["no_groups", "no_frozen", "no_shape", "not_an_object"])
    def test_header_missing_field_rejected(self, tmp_path, header):
        raw = json.dumps(header).encode()
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw)
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            read_checkpoint(str(path))


class TestAtomicWrite:
    @staticmethod
    def failing_chunks():
        yield b"partial "
        raise OSError("disk full")

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(OSError, match="disk full"):
            atomic_write(str(tmp_path / "m.ckpt"), self.failing_chunks())
        assert list(tmp_path.iterdir()) == []  # no target, no temp file
        target = tmp_path / "metrics.csv"
        atomic_write(str(target), [b"old"])
        with pytest.raises(OSError, match="disk full"):
            atomic_write(str(target), self.failing_chunks())
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"old"

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "new" / "out.csv"
        atomic_write(str(target), [b"a,", b"b\n"])
        assert target.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_mode_matches_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            atomic_write(str(tmp_path / "atomic.csv"), [b"x"])
            with open(tmp_path / "plain.csv", "wb") as fh:
                fh.write(b"x")
        finally:
            os.umask(previous)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("atomic.csv", "plain.csv")]
        assert modes[0] == modes[1] == 0o666 & ~umask
