"""Command-line surface.

Commands: ``synth`` (generate a synthetic corpus), ``pretrain`` (dual
contrastive pretraining to a checkpoint), ``finetune`` (fine-tune a
checkpoint on a held-out dataset across the protocol grid), ``eval`` (the
same grid plus a random-init control), ``embed-table-check`` (validate a TSV
embedding table).

Configuration is a plain-text file of dotted keys (``model.d = 64``);
``--set key=value`` flags override file values, and the ``DOMUS_SEED``
environment variable overrides the ``seed`` key and the spec seed of ``synth``
(``synth --seed`` wins). ``seed`` changes only what ``pretrain`` writes:
``finetune`` and ``eval`` load a checkpoint over the initialised model and take
their seeds from ``protocol.seeds``. ``pretrain`` leaves out the dataset
``protocol.held_out`` (``--held-out`` overrides it): the commands run the steps
of ``evaluation.lodo_run``. All outputs are written atomically (temp file +
rename). Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
A data file or output path the OS refuses (missing, a directory, under a file)
is a data error; a config file that cannot be read or decoded is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from dataclasses import fields, replace

from .checkpoint import CheckpointError, atomic_write
from .downstream import FinetuneSettings
from .embeddings import load_table_tsv
from .evaluation import (EvalProtocol, LodoConfig, MetricReport, grid_run, held_out_splits,
                         init_model, pretrain_backbone)
from .event_encoder import ModelConfig
from .ingest import (
    ActivityScript,
    Dataset,
    ParseError,
    SyntheticHomeSpec,
    SyntheticSensor,
    Visit,
    generate_synthetic_corpus,
    parse_event_csv,
    write_event_csv,
)
from .nn import NumericError
from .pretraining import PretrainConfig, loss_history_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


# Each config key that sets one dataclass field, which gives the key its default
# and checks its value. ``seed`` also seeds ``Model.init``, which a checkpoint then
# overwrites; fine-tuning takes its seeds from ``protocol.seeds``.
FIELDS: dict[str, tuple[type, str]] = {
    "seed": (PretrainConfig, "seed"),
    "model.d": (ModelConfig, "d"),
    "model.heads": (ModelConfig, "heads"),
    "model.layers": (ModelConfig, "layers"),
    "model.harmonics": (ModelConfig, "harmonics"),
    "model.seconds_buckets": (ModelConfig, "seconds_buckets"),
    "model.context_enabled": (ModelConfig, "context_enabled"),
    "segmentation.n": (ModelConfig, "n_window"),
    "segmentation.overlap": (LodoConfig, "overlap"),
    "pretrain.p_event_select": (PretrainConfig, "p_event_select"),
    "pretrain.p_event_mask": (PretrainConfig, "p_event_mask"),
    "pretrain.temperature": (PretrainConfig, "temperature"),
    "pretrain.batch_size": (PretrainConfig, "batch_size"),
    "pretrain.epochs_phase1": (PretrainConfig, "epochs_phase1"),
    "pretrain.epochs_phase2": (PretrainConfig, "epochs_phase2"),
    "pretrain.lr": (PretrainConfig, "lr"),
    "pretrain.windows_per_dataset": (PretrainConfig, "windows_per_dataset"),
    "finetune.strategy": (FinetuneSettings, "strategy"),
    "finetune.epochs": (FinetuneSettings, "epochs"),
    "finetune.batch_size": (FinetuneSettings, "batch_size"),
    "finetune.lr": (FinetuneSettings, "lr"),
    "finetune.count_loss_weight": (FinetuneSettings, "count_loss_weight"),
    "protocol.pcts": (EvalProtocol, "train_pcts"),
    "protocol.folds": (EvalProtocol, "folds"),
    "protocol.k": (EvalProtocol, "k_values"),
    "protocol.seeds": (EvalProtocol, "seeds"),
    "protocol.held_out": (EvalProtocol, "held_out"),
}


def _field_default(cls: type, name: str):
    default = next(f.default for f in fields(cls) if f.name == name)
    return list(default) if isinstance(default, tuple) else default


# The keys that set no dataclass field come last.
DEFAULTS: dict[str, object] = {
    **{key: _field_default(cls, name) for key, (cls, name) in FIELDS.items()},
    "paths.datasets": [],
    "paths.embedding_table": "",
    "paths.out_dir": "out",
}


def _number(key: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{key}: expected {noun}, got {raw!r}") from None


def _coerce(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise UsageError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, (int, float)):
        return _number(key, raw, type(default))
    if isinstance(default, list):
        if not raw:
            return []
        items = [part.strip() for part in raw.split(",")]
        if default and isinstance(default[0], (int, float)):
            return [_number(key, p, type(default[0])) for p in items]
        return items
    return raw


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Dotted-key config file plus --set overrides, on top of the defaults."""
    items = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}") from exc
        items = [(f"{path}:{lineno}", line.strip())
                 for lineno, line in enumerate(lines, start=1)
                 if line.strip() and not line.strip().startswith("#")]
    config = dict(DEFAULTS)
    for where, text in items + [("--set", item) for item in overrides]:
        key, eq, raw = text.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"{where}: expected key=value, got {text!r}")
        if key not in DEFAULTS:
            raise UsageError(f"{where}: unknown config key {key!r}")
        config[key] = _coerce(key, raw)
    seed = env_seed()
    if seed is not None:
        config["seed"] = seed
    return config


def env_seed() -> int | None:
    """The seed in ``DOMUS_SEED``, which overrides any other, or None if unset."""
    raw = os.environ.get("DOMUS_SEED")
    return None if raw is None else _coerce("seed", raw)


# -- config -> objects ---------------------------------------------------------


def command_config(config: dict) -> LodoConfig:
    """Every config object a command uses, built before any file is read.

    A value that a config dataclass rejects is a usage error, like a value of
    the wrong type.
    """
    kwargs: dict[type, dict] = defaultdict(dict)
    for key, (cls, name) in FIELDS.items():
        value = config[key]
        kwargs[cls][name] = tuple(value) if isinstance(value, list) else value
    try:
        return LodoConfig(model=ModelConfig(**kwargs[ModelConfig]),
                          protocol=EvalProtocol(**kwargs[EvalProtocol]),
                          pretrain=PretrainConfig(**kwargs[PretrainConfig]),
                          finetune=FinetuneSettings(**kwargs[FinetuneSettings]),
                          **kwargs[LodoConfig])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_datasets(config: dict) -> list[Dataset]:
    paths = config["paths.datasets"]
    if not paths:
        raise UsageError("paths.datasets is empty; list at least one event CSV")
    datasets = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, "rb") as fh:
                datasets.append(parse_event_csv(fh.read(), name=name))
        except OSError as exc:
            raise ParseError(f"cannot read dataset {path!r}: {exc}") from exc
    return datasets


def load_table(config: dict):
    path = config["paths.embedding_table"]
    return read_table(path) if path else None


def read_table(path: str):
    try:
        with open(path, "rb") as fh:
            return load_table_tsv(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read embedding table {path!r}: {exc}") from exc


# -- home spec JSON --------------------------------------------------------------


def home_spec_from_json(blob: bytes) -> SyntheticHomeSpec:
    """The home spec in a JSON document, its values as JSON gave them.

    Lists become tuples and nothing else is converted, so a value of the wrong
    type reaches ``SyntheticHomeSpec.validate``, whose message names its path.
    A missing required key, or a ``sensors``, ``activities`` or ``visits``
    value that is not a list of objects, is reported here by its path. An
    optional key that is absent keeps the dataclass default.
    """
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"home spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"home spec: expected a JSON object, got {doc!r}")
    sensors = tuple(
        SyntheticSensor(**_keys(s, p, ("id", "sensor_type"), ("house_item", "room")))
        for p, s in _objects(doc, "sensors", ""))
    activities = tuple(ActivityScript(
        visits=tuple(Visit(**_keys(v, q, ("room",), ("item", "dwell")))
                     for q, v in _objects(a, "visits", p)),
        **_keys(a, p, ("name", "hour_ranges"), ("weekday_weights",)),
    ) for p, a in _objects(doc, "activities", ""))
    return SyntheticHomeSpec(
        sensors=sensors, activities=activities, name=doc.get("name", "synthetic"),
        **_keys(doc, "", ("rooms",), ("noise_rate", "duration_days", "seed", "start")))


def _tuples(value):
    """``value`` with a list, and each list directly inside it, made a tuple."""
    if not isinstance(value, list):
        return value
    return tuple(tuple(v) if isinstance(v, list) else v for v in value)


def _keys(obj: dict, path: str, required: tuple, optional: tuple) -> dict:
    missing = [key for key in required if key not in obj]
    if missing:
        raise ParseError(f"{path}{missing[0]}: required field missing")
    return {key: _tuples(obj[key]) for key in required + optional if key in obj}


def _objects(obj: dict, key: str, path: str) -> list[tuple[str, dict]]:
    """(JSON path prefix, object) for each object listed under ``obj[key]``."""
    items = _keys(obj, path, (key,), ())[key]
    if not isinstance(items, tuple) or not all(isinstance(item, dict) for item in items):
        raise ParseError(f"{path}{key}: expected a list of objects, got {items!r}")
    return [(f"{path}{key}[{i}].", item) for i, item in enumerate(items)]


# -- commands --------------------------------------------------------------------


def cmd_synth(args) -> int:
    env = env_seed()  # a malformed DOMUS_SEED is an error even under --seed
    seed = env if args.seed is None else args.seed
    try:
        with open(args.spec, "rb") as fh:
            spec = home_spec_from_json(fh.read())
    except OSError as exc:
        print(f"error: cannot read spec {args.spec!r}: {exc}", file=sys.stderr)
        return EXIT_DATA
    if seed is not None:
        spec = replace(spec, seed=seed)
    dataset = generate_synthetic_corpus(spec)
    atomic_write(args.out, [write_event_csv(dataset)])
    print(f"wrote {args.out}: {len(dataset.stream)} events, "
          f"{len(dataset.sensors)} sensors, {len(dataset.activity_set)} activities")
    return EXIT_OK


def cmd_embed_table_check(args) -> int:
    table = read_table(args.table)
    print(f"ok: {len(table.vectors)} tokens (reserved included), d_text={table.d_text}")
    return EXIT_OK


def cmd_pretrain(args, config: dict) -> int:
    lodo = command_config(config)
    result = pretrain_backbone(load_datasets(config), lodo, load_table(config),
                               lodo.pretrain.seed)
    out_dir = config["paths.out_dir"]
    ckpt = os.path.join(out_dir, "pretrained.ckpt")
    result.model.save(ckpt)
    atomic_write(os.path.join(out_dir, "pretrain_loss.csv"),
                 [loss_history_csv(result.history).encode("utf-8")])
    final = (f"final loss {result.history[-1].loss:.4f}" if result.history
             else "no pretraining step ran")
    print(f"pretrained on {sorted(result.seen_datasets)}; {final}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _checkpoint_grid(args, config: dict, with_control: bool) -> int:
    lodo = replace(command_config(config), run_control=with_control)
    if not lodo.protocol.held_out:
        raise UsageError("--held-out (or protocol.held_out) is required")
    datasets = load_datasets(config)
    held_out, splits = held_out_splits(datasets, lodo)
    model = init_model(datasets, lodo, load_table(config), lodo.pretrain.seed)
    model.load(args.checkpoint)  # validates architecture and shapes before any mutation
    report = MetricReport()
    for seed in lodo.protocol.seeds:
        grid_run(report, model, held_out, splits, lodo, seed,
                 progress=(print if args.verbose else None))
    out_name = "eval_metrics.csv" if with_control else "finetune_metrics.csv"
    out_path = os.path.join(config["paths.out_dir"], out_name)
    atomic_write(out_path, [report.to_csv().encode("utf-8")])
    _print_aggregates(report)
    print(f"metrics: {out_path}")
    return EXIT_OK


def _print_aggregates(report: MetricReport):
    print(f"{'task':<10} {'pct':>5} {'metric':<24} {'mean':>8}")
    for row in report.aggregate():
        print(f"{row.task:<10} {row.pct:>5g} {row.metric:<24} {row.value:>8.4f}")


def cmd_finetune(args, config: dict) -> int:
    return _checkpoint_grid(args, config, with_control=False)


def cmd_eval(args, config: dict) -> int:
    return _checkpoint_grid(args, config, with_control=True)


# -- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def make_parser() -> _Parser:
    parser = _Parser(prog="domusfm",
                     description="Smart-home event-stream representation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus CSV from a home spec")
    p.add_argument("--spec", required=True, help="home spec JSON file")
    p.add_argument("--out", required=True, help="output event CSV path")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    for name in ("pretrain", "finetune", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="dotted-key config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value")
        p.add_argument("--verbose", action="store_true")
        if name != "pretrain":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--held-out", dest="set", action="append", metavar="NAME",
                           type=lambda name: f"protocol.held_out={name}",
                           help="same as --set protocol.held_out=NAME")

    p = sub.add_parser("embed-table-check", help="validate a TSV embedding table")
    p.add_argument("table")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "embed-table-check":
            return cmd_embed_table_check(args)
        config = load_config(args.config, args.set)
        if args.command == "pretrain":
            return cmd_pretrain(args, config)
        if args.command == "finetune":
            return cmd_finetune(args, config)
        return cmd_eval(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
