"""CLI surface: config parsing, command flows, determinism, exit codes."""

import json

import pytest

from domusfm.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    home_spec_from_json,
    load_config,
    main,
)

HOME_SPEC = {
    "name": "demo",
    "rooms": ["kitchen", "bedroom"],
    "sensors": [
        {"id": "m_k", "sensor_type": "motion", "room": "kitchen"},
        {"id": "p_stove", "sensor_type": "power", "house_item": "stove",
         "room": "kitchen"},
        {"id": "m_b", "sensor_type": "motion", "room": "bedroom"},
        {"id": "b_bed", "sensor_type": "pressure", "house_item": "bed",
         "room": "bedroom"},
    ],
    "activities": [
        {"name": "cook", "visits": [{"room": "kitchen", "item": "stove",
                                     "dwell": [600, 1800]}],
         "hour_ranges": [[18, 20]]},
        {"name": "sleep", "visits": [{"room": "bedroom", "item": "bed",
                                      "dwell": [21600, 28800]}],
         "hour_ranges": [[22, 6]]},
        {"name": "breakfast", "visits": [{"room": "kitchen", "item": "stove",
                                          "dwell": [300, 900]}],
         "hour_ranges": [[6, 9]]},
    ],
    "noise_rate": 0.05,
    "duration_days": 6,
    "seed": 11,
}

TINY_CFG = """
seed = 3
model.d = 16
model.heads = 2
model.layers = 1
segmentation.n = 10
segmentation.overlap = 9
pretrain.batch_size = 16
pretrain.epochs_phase1 = 1
pretrain.epochs_phase2 = 1
pretrain.windows_per_dataset = 32
finetune.epochs = 2
finetune.batch_size = 16
protocol.pcts = 50
protocol.folds = 2
protocol.k = 5
protocol.seeds = 3
paths.out_dir = out
"""


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "home.json").write_text(json.dumps(HOME_SPEC))
    (tmp_path / "run.cfg").write_text(TINY_CFG)
    return tmp_path


def synth(workspace, out, seed=None):
    argv = ["synth", "--spec", "home.json", "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == EXIT_OK
    return workspace / out


class TestConfig:
    def test_defaults_and_overrides(self, workspace):
        config = load_config("run.cfg", ["model.d=32", "protocol.pcts=5,30"])
        assert config["model.d"] == 32
        assert config["protocol.pcts"] == [5.0, 30.0]
        assert config["model.heads"] == 2
        assert config["finetune.strategy"] == "full"  # default survives

    def test_unknown_key_rejected(self, workspace):
        (workspace / "bad.cfg").write_text("model.depth = 3\n")
        with pytest.raises(UsageError, match="unknown config key"):
            load_config("bad.cfg", [])

    def test_bad_set_rejected(self):
        with pytest.raises(UsageError, match="key=value"):
            load_config(None, ["model.d"])

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("DOMUS_SEED", "77")
        assert load_config(None, [])["seed"] == 77

    def test_comments_and_blank_lines(self, workspace):
        (workspace / "c.cfg").write_text("# comment\n\nseed = 9\n")
        assert load_config("c.cfg", [])["seed"] == 9

    def test_boolean_coercion(self):
        config = load_config(None, ["model.context_enabled=false"])
        assert config["model.context_enabled"] is False


class TestSynth:
    def test_writes_reparseable_file(self, workspace):
        from domusfm.ingest import parse_event_csv

        path = synth(workspace, "demo.csv")
        ds = parse_event_csv(path.read_bytes(), name="demo")
        assert len(ds.stream) > 50
        assert set(ds.activity_set) == {"breakfast", "cook", "sleep"}

    def test_same_seed_byte_identical(self, workspace):
        a = synth(workspace, "a.csv").read_bytes()
        b = synth(workspace, "b.csv").read_bytes()
        assert a == b

    def test_env_seed_changes_output(self, workspace, monkeypatch):
        a = synth(workspace, "a.csv").read_bytes()
        monkeypatch.setenv("DOMUS_SEED", "99")
        b = synth(workspace, "b.csv").read_bytes()
        assert a != b

    def test_invalid_spec_no_partial_file(self, workspace):
        bad = dict(HOME_SPEC, activities=[])
        (workspace / "bad.json").write_text(json.dumps(bad))
        assert main(["synth", "--spec", "bad.json", "--out", "never.csv"]) == EXIT_DATA
        assert not (workspace / "never.csv").exists()

    def test_missing_spec_is_data_error(self, workspace):
        assert main(["synth", "--spec", "ghost.json", "--out", "x.csv"]) == EXIT_DATA


class TestEmbedTableCheck:
    def test_valid_table(self, workspace, capsys):
        (workspace / "t.tsv").write_text("stove\t0.5\t1.0\nbed\t1.0\t0.0\n")
        assert main(["embed-table-check", "t.tsv"]) == EXIT_OK
        assert "d_text=2" in capsys.readouterr().out

    def test_invalid_table(self, workspace):
        (workspace / "t.tsv").write_text("stove\t0.5\nbed\t1.0\t0.0\n")
        assert main(["embed-table-check", "t.tsv"]) == EXIT_DATA


@pytest.fixture
def trained(workspace):
    for seed, name in ((1, "home1.csv"), (2, "home2.csv"), (7, "home3.csv")):
        synth(workspace, name, seed=seed)
    rc = main(["pretrain", "--config", "run.cfg",
               "--set", "paths.datasets=home1.csv,home2.csv"])
    assert rc == EXIT_OK
    return workspace


class TestPretrainCommand:
    def test_outputs_exist_and_loss_csv_shape(self, trained):
        assert (trained / "out" / "pretrained.ckpt").exists()
        lines = (trained / "out" / "pretrain_loss.csv").read_text().strip().split("\n")
        assert lines[0] == "phase,epoch,step,loss"
        phases = {line.split(",")[0] for line in lines[1:]}
        assert phases == {"1", "2"}
        # 32 windows/dataset x 2 datasets = 64 draws -> 4 batches of 16,
        # 1 epoch per phase: 4 steps x 2 phases
        assert len(lines) - 1 == 8

    def test_checkpoint_save_load_save_byte_identical(self, trained):
        from domusfm.checkpoint import read_checkpoint, save_checkpoint

        path = trained / "out" / "pretrained.ckpt"
        groups, meta = read_checkpoint(str(path))
        save_checkpoint(str(trained / "again.ckpt"), groups, meta)
        assert path.read_bytes() == (trained / "again.ckpt").read_bytes()

    def test_rerun_byte_identical(self, trained):
        first = (trained / "out" / "pretrained.ckpt").read_bytes()
        rc = main(["pretrain", "--config", "run.cfg",
                   "--set", "paths.datasets=home1.csv,home2.csv"])
        assert rc == EXIT_OK
        assert (trained / "out" / "pretrained.ckpt").read_bytes() == first


class TestEvalCommands:
    def test_eval_grid_and_determinism(self, trained):
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_OK
        first = (trained / "out" / "eval_metrics.csv").read_text()
        header = first.split("\n")[0]
        assert header == "dataset,task,pct,fold,seed,metric,value"
        assert "weighted_f1_control" in first
        assert main(argv) == EXIT_OK
        assert (trained / "out" / "eval_metrics.csv").read_text() == first

    def test_finetune_has_no_control(self, trained):
        argv = ["finetune", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_OK
        text = (trained / "out" / "finetune_metrics.csv").read_text()
        assert "weighted_f1" in text and "_control" not in text

    def test_dimension_mismatch_names_tensor(self, trained, capsys):
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--set", "model.d=32",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "shape mismatch" in err

    def test_context_disabled_flag_plumbs_through(self, trained):
        import time

        t0 = time.time()
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--set", "model.context_enabled=false",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_OK
        assert (trained / "out" / "eval_metrics.csv").exists()
        assert time.time() - t0 < 300  # synthetic fixture well under 5 minutes

    def test_unknown_held_out_rejected(self, trained):
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "mars"]
        assert main(argv) == EXIT_DATA

    def test_unknown_strategy_is_usage_error(self, trained, capsys):
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--set", "finetune.strategy=frozen_features",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1
        assert "head_only" in err and "full" in err and "Traceback" not in err
        assert not (trained / "out" / "eval_metrics.csv").exists()

    def test_missing_held_out_is_usage_error(self, trained):
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv",
                "--checkpoint", "out/pretrained.ckpt"]
        assert main(argv) == EXIT_USAGE


class TestBadCheckpoint:
    @pytest.fixture
    def homes(self, workspace):
        for seed, name in ((1, "home1.csv"), (2, "home2.csv"), (7, "home3.csv")):
            synth(workspace, name, seed=seed)
        return workspace

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    @pytest.mark.parametrize("blob", [
        b"DOMUSFM1\x00\x00\x00\x00",
        b"DOMUSFM1" + len(b'{"format":1}').to_bytes(8, "little") + b'{"format":1}',
    ], ids=["twelve_bytes", "header_without_groups"])
    def test_is_data_error(self, homes, capsys, command, blob):
        (homes / "bad.ckpt").write_bytes(blob)
        argv = [command, "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--checkpoint", "bad.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1
        assert "checkpoint" in err and "Traceback" not in err


class TestHomeSpecJson:
    def test_roundtrip_fields(self):
        spec = home_spec_from_json(json.dumps(HOME_SPEC).encode())
        assert spec.name == "demo"
        assert len(spec.sensors) == 4
        assert spec.activities[1].hour_ranges == ((22, 6),)
        assert spec.activities[0].visits[0].dwell == (600, 1800)

    def test_bad_json_rejected(self):
        from domusfm.ingest import ParseError

        with pytest.raises(ParseError, match="JSON"):
            home_spec_from_json(b"{nope")

    def test_missing_field_rejected(self):
        from domusfm.ingest import ParseError

        with pytest.raises(ParseError, match="field"):
            home_spec_from_json(json.dumps({"rooms": []}).encode())
