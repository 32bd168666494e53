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
from domusfm.embeddings import fallback_table, load_table_tsv
from domusfm.event_encoder import ModelConfig
from domusfm.model import Model
from domusfm.nn import ParamGroup


def make_groups(seed=0):
    rng = np.random.default_rng(seed)
    enc = ParamGroup("encoder")
    enc.add("w", rng.normal(size=(4, 3)).astype(np.float32))
    enc.add("b", rng.normal(size=(3,)).astype(np.float32))
    head = ParamGroup("head")
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

    def test_values_survive(self, tmp_path):
        groups = make_groups()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), groups)
        loaded, _ = read_checkpoint(str(path))
        assert [g.name for g in loaded] == ["encoder", "head"]
        for orig, back in zip(groups, loaded):
            for name in orig.tensors:
                np.testing.assert_array_equal(orig[name].data, back[name].data)

    def test_older_header_with_frozen_flags_loads(self, tmp_path):
        # files from before the flag was dropped carry "frozen" per group
        groups = make_groups(seed=3)
        path, old = tmp_path / "m.ckpt", tmp_path / "old.ckpt"
        save_checkpoint(str(path), groups, meta={"d": 3})
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        assert all("frozen" not in g for g in header["groups"])
        for i, g in enumerate(header["groups"]):
            g["frozen"] = bool(i)
        raw = json.dumps(header, separators=(",", ":")).encode()
        old.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:])
        dst = make_groups(seed=4)
        assert load_into_groups(str(old), {g.name: g for g in dst}) == {"d": 3}
        assert [g.state_bytes() for g in dst] == [g.state_bytes() for g in groups]
        save_checkpoint(str(tmp_path / "again.ckpt"), dst, meta={"d": 3})
        assert (tmp_path / "again.ckpt").read_bytes() == blob

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

    def test_model_tensor_missing_from_checkpoint_rejected(self, tmp_path):
        # a deeper model would otherwise keep its extra tensors at random init
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_groups())
        dst = make_groups(seed=5)
        dst[0].add("extra", np.zeros(2, dtype=np.float32))
        before = [g.state_bytes() for g in dst]
        with pytest.raises(CheckpointError, match=r"encoder/\['extra'\] missing from checkpoint"):
            load_into_groups(str(path), {g.name: g for g in dst})
        assert [g.state_bytes() for g in dst] == before

    def test_config_mismatch_rejected_before_mutation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), make_groups(), meta={"config": {"heads": 2, "d": 3}})
        dst = make_groups(seed=5)
        before = [g.state_bytes() for g in dst]
        with pytest.raises(CheckpointError, match="heads=2, config says heads=1"):
            load_into_groups(str(path), {g.name: g for g in dst}, {"heads": 1, "d": 3})
        assert [g.state_bytes() for g in dst] == before
        # a key the checkpoint does not record is not compared
        load_into_groups(str(path), {g.name: g for g in dst}, {"d": 3, "layers": 7})

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
        {"format": 1, "groups": [{"name": "encoder"}]},
        {"format": 1, "groups": [{"name": "encoder",
                                  "tensors": [{"name": "w", "dtype": "f4"}]}]},
        [1, 2],
        {"format": 1, "groups": [], "meta": [1]},
        {"format": 1, "groups": [], "meta": {"config": 5}},
    ], ids=["no_groups", "no_tensors", "no_shape", "not_an_object", "meta_not_an_object",
            "config_not_an_object"])
    def test_header_missing_field_rejected(self, tmp_path, header):
        raw = json.dumps(header).encode()
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw)
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            read_checkpoint(str(path))


TABLE_ROWS = {"stove": [0.5, -0.25, 1.0, 0.0], "kitchen": [0.1, 0.2, -0.3, 0.4],
              "motion": [1.5, 0.0, -2.0, 0.25]}


def table_tsv(rows) -> bytes:
    return "\n".join(token + "\t" + "\t".join(repr(float(x)) for x in vec)
                     for token, vec in rows.items()).encode()


class TestTableFingerprint:
    """A checkpoint is refused under another table of the same dimension."""

    CONFIG = ModelConfig(d=8, heads=2, layers=1, harmonics=2, seconds_buckets=12)

    def saved(self, tmp_path, table):
        path = tmp_path / "m.ckpt"
        model = Model.init(self.CONFIG, table, seed=1)
        model.save(str(path))
        return path, model

    def test_other_table_of_same_dimension_refused(self, tmp_path):
        path, _ = self.saved(tmp_path, load_table_tsv(table_tsv(TABLE_ROWS)))
        changed = dict(TABLE_ROWS, stove=[0.5, -0.25, 1.0, 1e-9])
        other = Model.init(self.CONFIG, load_table_tsv(table_tsv(changed)), seed=2)
        before = other.state_bytes()
        with pytest.raises(CheckpointError, match="checkpoint was trained with table_sha256="):
            other.load(str(path))
        assert other.state_bytes() == before

    @pytest.mark.parametrize("saved_with", ["file", "fallback"])
    def test_file_and_fallback_tables_differ(self, tmp_path, saved_with):
        rows = {token: vec + vec for token, vec in TABLE_ROWS.items()}  # d_text 8 = d
        tables = {"file": load_table_tsv(table_tsv(rows)), "fallback": fallback_table(8)}
        path, _ = self.saved(tmp_path, tables[saved_with])
        loaded_with = "fallback" if saved_with == "file" else "file"
        other = Model.init(self.CONFIG, tables[loaded_with], seed=2)
        assert other.meta()["config"]["d_text"] == 8
        with pytest.raises(CheckpointError, match="table_sha256"):
            other.load(str(path))

    def test_same_table_loads_whatever_its_cache_and_row_order(self, tmp_path):
        table = load_table_tsv(table_tsv(TABLE_ROWS))
        table.lookup("unseen token")  # fills the lookup cache only
        path, model = self.saved(tmp_path, table)
        reordered = load_table_tsv(table_tsv(dict(reversed(TABLE_ROWS.items()))))
        assert reordered.fingerprint() == table.fingerprint()
        other = Model.init(self.CONFIG, reordered, seed=2)
        other.load(str(path))
        assert other.state_bytes() == model.state_bytes()

    def test_header_without_the_key_loads(self, tmp_path):
        path, model = self.saved(tmp_path, load_table_tsv(table_tsv(TABLE_ROWS)))
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        del header["meta"]["config"]["table_sha256"]
        raw = json.dumps(header, separators=(",", ":")).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:])
        changed = dict(TABLE_ROWS, motion=[0.0, 0.0, 0.0, 1.0])
        other = Model.init(self.CONFIG, load_table_tsv(table_tsv(changed)), seed=2)
        other.load(str(path))
        assert other.state_bytes() == model.state_bytes()


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
