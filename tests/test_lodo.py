"""Small-scale end-to-end LODO integration (tiny model, two pretrain homes)."""

import dataclasses

import numpy as np
import pytest

from domusfm.benchmark import home_spec, three_home_corpus
from domusfm.downstream import FinetuneSettings, FinetuneStrategy
from domusfm.evaluation import EvalProtocol, LodoConfig, control_model, lodo_run
from domusfm.event_encoder import ModelConfig
from domusfm.ingest import generate_synthetic_corpus
from domusfm.model import Model
from domusfm.pretraining import PretrainConfig


def tiny_lodo_config(**protocol_overrides):
    protocol = dict(held_out="home3", train_pcts=(50,), folds=2, k_values=(5,),
                    seeds=(0,))
    protocol.update(protocol_overrides)
    return LodoConfig(
        model=ModelConfig(d=16, heads=2, layers=1, n_window=10),
        protocol=EvalProtocol(**protocol),
        pretrain=PretrainConfig(batch_size=16, epochs_phase1=1, epochs_phase2=1,
                                windows_per_dataset=32),
        finetune=FinetuneSettings(strategy=FinetuneStrategy.FULL, epochs=2,
                                  batch_size=16),
        overlap=9,
    )


@pytest.fixture(scope="module")
def corpus():
    return three_home_corpus(days=4, seed=1)


class TestLodoRun:
    def test_report_shape_and_no_leak(self, corpus):
        config = tiny_lodo_config()
        report = lodo_run(corpus, config)
        protocol = config.protocol
        adl_rows = [r for r in report.rows if r.metric == "weighted_f1"]
        assert len(adl_rows) == len(protocol.train_pcts) * protocol.folds * \
            len(protocol.seeds)
        assert {r.metric for r in report.rows} >= {"weighted_f1",
                                                   "weighted_f1_control", "f1"}
        assert all(r.dataset == "home3" for r in report.rows)
        assert all(0.0 <= r.value <= 1.0 for r in report.rows)

    def test_rerun_is_identical(self, corpus):
        config = tiny_lodo_config()
        a = lodo_run(corpus, config).to_csv()
        b = lodo_run(corpus, config).to_csv()
        assert a == b

    def test_unknown_held_out_rejected(self, corpus):
        config = tiny_lodo_config(held_out="home9")
        with pytest.raises(ValueError, match="home9"):
            lodo_run(corpus, config)

    def test_single_dataset_rejected(self, corpus):
        config = tiny_lodo_config()
        with pytest.raises(ValueError):
            lodo_run(corpus[2:], config)

    def test_duplicate_dataset_name_rejected(self, corpus):
        with pytest.raises(ValueError, match="two datasets are named 'home1'"):
            lodo_run(corpus + [corpus[0]], tiny_lodo_config())

    def test_too_short_pretraining_dataset_named(self, corpus):
        short = generate_synthetic_corpus(home_spec("home1", days=1, seed=1))
        config = tiny_lodo_config()
        config = dataclasses.replace(
            config, model=dataclasses.replace(config.model, n_window=len(short.stream) + 1),
            overlap=0)
        with pytest.raises(ValueError, match=r"too short to segment: \['home1'\]"):
            lodo_run([short, *corpus[1:]], config)

    def test_ablated_variant_runs(self, corpus):
        config = tiny_lodo_config(k_values=())
        config.model = dataclasses.replace(config.model, context_enabled=False)
        config.run_control = False
        report = lodo_run(corpus, config)
        assert any(r.metric == "weighted_f1" for r in report.rows)
        assert all(r.task == "adl" and "_control" not in r.metric
                   for r in report.rows)


class TestControlModel:
    def test_fresh_weights_shared_features(self, corpus):
        config = ModelConfig(d=16, heads=2, layers=1, n_window=10)
        model = Model.init(config, seed=3)
        model.add_stream_features(corpus[0].name, corpus[0].stream.events)
        control = control_model(model, seed=3)
        assert control.features is model.features
        assert control.config == model.config and control.table is model.table
        expected = Model.init(config, model.table, seed=3 + 104729)
        assert control.state_bytes() == expected.state_bytes() != model.state_bytes()


class TestModelPersistence:
    def test_save_load_restores_forward_outputs(self, tmp_path, corpus):
        from domusfm.segmentation import segment_events

        config = ModelConfig(d=16, heads=2, layers=1, n_window=10)
        model = Model.init(config, seed=4)
        ds = corpus[0]
        model.add_stream_features(ds.name, ds.stream.events)
        windows = segment_events(ds.stream, 10, 0, dataset=ds.name)[:3]
        _, pooled = model.window_tensors(windows)
        path = tmp_path / "m.ckpt"
        model.save(str(path))

        other = Model.init(config, seed=9)
        other.add_stream_features(ds.name, ds.stream.events)
        meta = other.load(str(path))
        assert meta["config"]["d"] == 16
        _, pooled2 = other.window_tensors(windows)
        np.testing.assert_array_equal(pooled.data, pooled2.data)

    def test_copy_isolates_parameters(self):
        model = Model.init(ModelConfig(d=16, heads=2, layers=1), seed=0)
        clone = model.copy()
        clone.event_params["fuse.b"].data[:] += 1.0
        assert model.state_bytes() != clone.state_bytes()


class TestBenchmarkCorpus:
    def test_three_homes_share_activities_not_sensors(self, corpus):
        names = [set(ds.sensors) for ds in corpus]
        assert names[0] & names[1] == set()
        assert names[0] & names[2] == set()
        activity_sets = {ds.activity_set for ds in corpus}
        assert len(activity_sets) == 1
        assert len(corpus[0].activity_set) >= 5

    def test_home_spec_validates(self):
        spec = home_spec("home2", days=3, seed=0)
        spec.validate()
        ds = generate_synthetic_corpus(spec)
        assert len(ds.stream) > 100
