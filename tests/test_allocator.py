"""Importing domusfm pins glibc's malloc thresholds, so large temporaries stay on the heap."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="mallopt thresholds are glibc's")

# Live blocks per pass (by default four of 2 MB, as a forward pass holds several
# activations at once); prints the page faults of 20 passes after a first round of 20.
CHURN = """
import resource, numpy as np
{prelude}
def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        live = [np.ones({words}) for _ in range({blocks})]
        del live
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults()
print(faults())
"""


def run(code: str, **env_extra) -> str:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(PYTHONPATH=str(ROOT / "src"), **env_extra)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_repeated_temporaries_do_not_fault(locale):
    # under glibc's own rule each pass grows the heap past the trim threshold
    # and gives it back: about 2 000 faults a pass, whatever the locale
    faults = int(run(CHURN.format(prelude="import domusfm", words=1 << 18, blocks=4),
                     LC_CTYPE=locale))
    assert faults < 512, f"{faults} page faults in 20 passes over 8 MB"


def test_pass_above_64_mb_keeps_its_pages():
    # five 16 MB blocks stay on the heap; a pretraining step frees 64 to 96 MB
    # at the heap top, and a 64 MB trim threshold gave it back every pass
    faults = int(run(CHURN.format(prelude="import domusfm", words=1 << 21, blocks=5)))
    assert faults < 512, f"{faults} page faults in 20 passes over 80 MB"


def test_thresholds_set_by_the_user_are_kept():
    code = "from domusfm.allocator import pin_malloc_thresholds; print(pin_malloc_thresholds())"
    assert run(code) == "True"
    assert run(code, MALLOC_TRIM_THRESHOLD_="1048576") == "False"
    assert run(code, GLIBC_TUNABLES="glibc.malloc.mmap_threshold=1048576") == "False"
