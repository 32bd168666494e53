"""The benchmark tracer still reaches the names it rebinds in the package.

``perfbench/tracing.py`` labels spans by rebinding module and class attributes
of domusfm. Renaming one of them, or capturing it at import time, would break
only traced benchmark runs; this test catches that in the fast suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import toy_config
from domusfm import pretraining
from domusfm.benchmark import three_home_corpus
from domusfm.embeddings import fallback_table
from domusfm.model import Model
from domusfm.pretraining import PretrainConfig
from domusfm.segmentation import segment_events

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pretrain_spans_carry_phase_labels():
    tracing = load_tracing()
    config = toy_config(n_window=4)
    model = Model.init(config, fallback_table(config.text_dim()), seed=0)
    windows = {}
    for ds in three_home_corpus(days=1, seed=0)[:2]:
        model.add_stream_features(ds.name, ds.stream.events)
        windows[ds.name] = segment_events(ds.stream, 4, 3, dataset=ds.name)
    original = pretraining.augment_mask_attribute
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pretraining.augment_mask_attribute is not original
        pretraining.pretrain(windows, PretrainConfig(batch_size=8, epochs_phase1=1,
                                                     epochs_phase2=1,
                                                     windows_per_dataset=8), model)
    finally:
        tracer.uninstall()
    assert pretraining.augment_mask_attribute is original
    labelled = {(s[tracing.PHASE], s[tracing.NAME]) for s in tracer.spans}
    assert ("phase1", "event_encoder.forward") in labelled
    assert ("phase2", "context_encoder.forward") in labelled
    assert ("phase1", "nn.adam") in labelled and ("phase2", "nn.adam") in labelled
    assert ("phase2", "pretraining.infonce") in labelled
    assert ("phase1", "context_encoder.forward") not in labelled
    assert tracer.check_nesting() == []


def test_tape_nodes_of_a_toy_pretraining_loss():
    # the tape of each phase's contrastive loss keeps its size when ops change
    # what they save for backward; phase 2's two feed-forward blocks (one layer,
    # two views) are one node each
    tracing = load_tracing()
    config = toy_config(n_window=4)
    model = Model.init(config, fallback_table(config.text_dim()), seed=0)
    windows = []
    for ds in three_home_corpus(days=1, seed=0)[:2]:
        model.add_stream_features(ds.name, ds.stream.events)
        windows += segment_events(ds.stream, 4, 3, dataset=ds.name)[:4]
    counts = [tracing.tape_nodes(pretraining.contrastive_loss(
        model, windows, phase, PretrainConfig(batch_size=8), np.random.default_rng(0)))
        for phase in (1, 2)]
    assert counts == [134, 97]
