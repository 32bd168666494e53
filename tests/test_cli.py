"""CLI surface: config parsing, command flows, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from domusfm.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    command_config,
    home_spec_from_json,
    load_config,
    main,
    make_parser,
)
from domusfm.downstream import FinetuneSettings
from domusfm.evaluation import EvalProtocol, LodoConfig
from domusfm.event_encoder import ModelConfig
from domusfm.pretraining import PretrainConfig

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

    def test_defaults_are_the_dataclass_defaults(self):
        assert command_config(load_config(None, [])) == LodoConfig(
            model=ModelConfig(), protocol=EvalProtocol(),
            pretrain=PretrainConfig(), finetune=FinetuneSettings())

    def test_held_out_flag_overrides_the_key(self, workspace):
        (workspace / "h.cfg").write_text("protocol.held_out = home2\n")
        args = make_parser().parse_args(["eval", "--config", "h.cfg", "--checkpoint", "c",
                                         "--held-out", "home3"])
        config = load_config(args.config, args.set)
        assert command_config(config).protocol.held_out == "home3"
        assert command_config(load_config("h.cfg", [])).protocol.held_out == "home2"

    def test_readme_example_config_loads(self, workspace):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        (workspace / "readme.cfg").write_text(block)
        config = load_config("readme.cfg", [])
        assert config["paths.datasets"] == ["home1.csv", "home2.csv", "home3.csv"]
        assert command_config(config).protocol.held_out == "home3"


class TestBadConfigValues:
    """A value the config rejects is a usage error, found before any file is read."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "eval"])
    @pytest.mark.parametrize("override, needle", [
        ("protocol.pcts=abc", "protocol.pcts"),
        ("protocol.k=x", "protocol.k"),
        ("protocol.seeds=a", "protocol.seeds"),
        ("model.heads=3", "heads=3"),
        ("pretrain.temperature=0", "temperature"),
        ("pretrain.batch_size=1", "at least 2"),
        ("segmentation.overlap=30", "overlap=30"),
        ("pretrain.windows_per_dataset=-1", "windows_per_dataset"),
        ("finetune.batch_size=0", "batch_size=0"),
        ("finetune.lr=-1", "lr must be a finite number > 0, got -1.0"),
        ("pretrain.lr=0", "lr must be a finite number > 0, got 0.0"),
        ("pretrain.lr=nan", "got nan"),
        ("model.heads=0", "heads must be >= 1, got 0"),
        ("model.seconds_buckets=0", "seconds_buckets must be >= 1, got 0"),
        ("model.d=0", "d must be >= 1, got 0"),
        ("model.d=-8", "d must be >= 1, got -8"),
        ("pretrain.temperature=nan", "temperature"),
        ("pretrain.temperature=1e-39", "got 1e-39"),
        ("finetune.count_loss_weight=-1", "count_loss_weight"),
        ("finetune.count_loss_weight=nan", "count_loss_weight"),
    ])
    def test_is_usage_error(self, workspace, capsys, command, override, needle):
        # the dataset and checkpoint do not exist: reading them would exit 2
        argv = [command, "--config", "run.cfg", "--set", "paths.datasets=ghost.csv",
                "--set", override]
        if command != "pretrain":
            argv += ["--checkpoint", "ghost.ckpt", "--held-out", "ghost"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1 and "Traceback" not in err
        assert needle in err
        assert not (workspace / "out").exists()

    def test_bad_env_seed_is_usage_error(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("DOMUS_SEED", "abc")
        assert main(["synth", "--spec", "home.json", "--out", "x.csv"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1 and "Traceback" not in err
        assert "seed" in err and "'abc'" in err
        assert not (workspace / "x.csv").exists()


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

    @pytest.mark.parametrize("content", [None, "stove\t0.5\t1.0\nbed\tnan\t0.0\n"],
                             ids=["directory", "nan_value"])
    def test_unreadable_or_non_finite_is_data_error(self, workspace, capsys, content):
        path = workspace / "t.tsv"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        assert main(["embed-table-check", "t.tsv"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1 and "Traceback" not in err
        assert "t.tsv" in err if content is None else "line 2" in err


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


    def test_non_finite_loss_is_numeric_error(self, workspace):
        # the first step's update overflows the weights: the next loss is caught
        # before backward.
        # A subprocess, so stderr is what a shell sees (numpy's warnings included).
        (workspace / "home.json").write_text(json.dumps(dict(HOME_SPEC, duration_days=3)))
        for seed in (1, 2):
            synth(workspace, f"home{seed}.csv", seed=seed)
        argv = ["pretrain", "--set", "paths.datasets=home1.csv,home2.csv",
                "--set", "model.d=16", "--set", "model.heads=2",
                "--set", "segmentation.n=8", "--set", "segmentation.overlap=7",
                "--set", "pretrain.lr=1e30", "--set", "paths.out_dir=out"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run([sys.executable, "-m", "domusfm.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == EXIT_NUMERIC
        assert result.stderr.strip().split("\n")[-1] == (
            "numeric failure: non-finite pretraining loss at phase 1, epoch 0, step 1")
        assert "Traceback" not in result.stderr
        assert not (workspace / "out").exists()


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

    def test_seed_leaves_eval_alone_protocol_seeds_do_not(self, trained):
        # the checkpoint overwrites the model that `seed` initialises, and
        # fine-tuning takes its seeds from protocol.seeds
        def metrics(*overrides):
            argv = ["eval", "--config", "run.cfg",
                    "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                    "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
            for override in overrides:
                argv += ["--set", override]
            assert main(argv) == EXIT_OK
            return (trained / "out" / "eval_metrics.csv").read_bytes()

        first = metrics("seed=3")
        assert metrics("seed=5") == first
        assert metrics("protocol.seeds=4") != first

    def test_table_read_once_for_every_seed(self, trained, monkeypatch):
        # the controls of all seeds share the model's table; none re-reads it
        import domusfm.cli as cli

        reads = []
        monkeypatch.setattr(cli, "read_table", lambda path: reads.append(path))
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--set", "paths.embedding_table=t.tsv", "--set", "protocol.seeds=3,4",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_OK
        assert reads == ["t.tsv"]

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

    @pytest.mark.parametrize("override", ["model.heads=1", "model.layers=2"])
    def test_architecture_mismatch_names_key(self, trained, capsys, override):
        # heads leaves every tensor shape as it was, and layers=2 would leave
        # layer l1 at random init: both must be refused before evaluating
        key = override.split("=")[0].split(".")[1]
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--set", override,
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1 and "Traceback" not in err
        assert f"{key}=" in err
        assert not (trained / "out" / "eval_metrics.csv").exists()

    def test_other_table_of_same_dimension_is_data_error(self, trained, capsys):
        # the checkpoint was pretrained on the fallback table, d_text = model.d = 16
        rows = {"stove": [0.25] * 16, "kitchen": [-0.5] * 16}
        (trained / "t.tsv").write_text("\n".join(
            token + "\t" + "\t".join(map(str, vec)) for token, vec in rows.items()))
        argv = ["eval", "--config", "run.cfg",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv",
                "--set", "paths.embedding_table=t.tsv",
                "--checkpoint", "out/pretrained.ckpt", "--held-out", "home3"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1 and "Traceback" not in err
        assert "table_sha256=" in err
        assert not (trained / "out" / "eval_metrics.csv").exists()

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


class TestHeldOutLeftOutOfPretraining:
    """`pretrain` then `eval` from one config run `lodo_run`'s own steps."""

    @pytest.fixture
    def homes(self, workspace):
        from domusfm.benchmark import three_home_corpus
        from domusfm.ingest import write_event_csv

        corpus = three_home_corpus(days=2, seed=1)
        for ds in corpus:
            (workspace / f"{ds.name}.csv").write_bytes(write_event_csv(ds))
        with open(workspace / "run.cfg", "a") as fh:
            fh.write("protocol.held_out = home3\n")
        return corpus

    def test_pretrain_then_eval_equals_lodo_run(self, workspace, homes):
        from domusfm.evaluation import lodo_run

        every_home = "paths.datasets=home1.csv,home2.csv,home3.csv"
        assert main(["pretrain", "--config", "run.cfg", "--set", every_home]) == EXIT_OK
        assert main(["eval", "--config", "run.cfg", "--set", every_home,
                     "--checkpoint", "out/pretrained.ckpt"]) == EXIT_OK
        config = load_config("run.cfg", [])
        assert config["seed"] == 3 and config["protocol.seeds"] == [3]
        expected = lodo_run(homes, command_config(config)).to_csv().encode()
        assert (workspace / "out" / "eval_metrics.csv").read_bytes() == expected

    def test_pretrain_leaves_the_held_out_home_out(self, workspace, homes, capsys):
        def pretrain(datasets):
            argv = ["pretrain", "--config", "run.cfg", "--set", f"paths.datasets={datasets}"]
            assert main(argv) == EXIT_OK
            return ((workspace / "out" / "pretrained.ckpt").read_bytes(),
                    (workspace / "out" / "pretrain_loss.csv").read_bytes(),
                    capsys.readouterr().out)

        every_home = pretrain("home1.csv,home2.csv,home3.csv")
        assert "pretrained on ['home1', 'home2'];" in every_home[2]
        assert pretrain("home1.csv,home2.csv") == every_home

    def test_too_short_pretraining_dataset_is_data_error(self, workspace, homes, capsys):
        # 200 events is more than home1 has, fewer than home2 has; home3 is held out
        argv = ["pretrain", "--config", "run.cfg", "--set", "segmentation.n=200",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: datasets too short to segment: ['home1']\n"
        assert not (workspace / "out").exists()

    def test_too_short_dataset_is_one_line_in_a_shell(self, workspace, homes):
        # a subprocess, so stderr is what a shell sees, warnings included
        argv = ["pretrain", "--config", "run.cfg", "--set", "segmentation.n=200",
                "--set", "paths.datasets=home1.csv,home2.csv,home3.csv"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run([sys.executable, "-m", "domusfm.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == EXIT_DATA
        assert result.stderr == "error: datasets too short to segment: ['home1']\n"
        assert not (workspace / "out").exists()


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
        b"DOMUSFM1" + len(b'{"groups":[],"meta":[]}').to_bytes(8, "little")
        + b'{"groups":[],"meta":[]}',
    ], ids=["twelve_bytes", "header_without_groups", "meta_not_an_object"])
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
