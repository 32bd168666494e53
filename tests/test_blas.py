"""Importing domusfm runs numpy's bundled OpenBLAS on one thread, so a run's bytes
do not depend on how many CPUs the host has."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from domusfm.allocator import BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent

_CORE = getattr(np, "_core", None) or np.core
pytestmark = pytest.mark.skipif(
    not hasattr(ctypes.CDLL(_CORE._multiarray_umath.__file__),
                "scipy_openblas_set_num_threads64_"),
    reason="numpy does not bundle scipy-openblas")

# A two-home pretrain at desk width, one epoch per phase: its GEMMs are large
# enough for OpenBLAS to split across threads.
PRETRAIN = """
import hashlib
from domusfm import Model, ModelConfig, PretrainConfig, pretrain, segment_events
from domusfm.benchmark import three_home_corpus
model = Model.init(ModelConfig(d=64, heads=4, layers=2, n_window=30), seed=0)
windows = {}
for ds in three_home_corpus(days=2, seed=0)[:2]:
    model.add_stream_features(ds.name, ds.stream.events)
    windows[ds.name] = segment_events(ds.stream, 30, 29, dataset=ds.name)
result = pretrain(windows, PretrainConfig(epochs_phase1=1, epochs_phase2=1,
                                          windows_per_dataset=64, seed=0), model)
print(hashlib.sha256(model.state_bytes()).hexdigest(), repr(result.history[-1].loss))
"""


def run(code: str, **env_extra) -> str:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(PYTHONPATH=str(ROOT / "src"), **env_extra)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


def test_pretrain_bytes_do_not_depend_on_thread_variables():
    assert run(PRETRAIN) == run(PRETRAIN, OPENBLAS_NUM_THREADS="1")


def test_thread_variables_set_by_the_user_are_kept():
    code = "from domusfm.allocator import pin_blas_threads; print(pin_blas_threads())"
    assert run(code) == "True"
    assert run(code, OPENBLAS_NUM_THREADS="2") == "False"
    assert run(code, OMP_NUM_THREADS="2") == "False"


def test_blas_threads_reports_the_effective_count():
    code = "import domusfm; from domusfm.allocator import blas_threads; print(blas_threads())"
    assert run(code) == "1"
    assert run(code, OPENBLAS_NUM_THREADS="2") == "2"
