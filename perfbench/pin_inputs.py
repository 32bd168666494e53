"""Rewrite pinned_inputs.json: SHA-256 of every workload's input bytes for seed 0.

    python3 perfbench/pin_inputs.py

Every benchmark run regenerates the seed-0 inputs of its workload and fails
when their digests differ from the pinned ones, so that a change to the
synthesizer or to ``write_event_csv`` cannot silently change what the
benchmark measures. Run this only when such a change is intended, and say so
in the change that does it: results before and after are not comparable.
"""

from __future__ import annotations

import json

import run

if __name__ == "__main__":
    run.import_package()
    import workloads

    pins = {size_name: {name: {n: workloads.sha256(b) for n, b in
                               cls(size, run.DEFAULT_SEED, "").inputs(run.DEFAULT_SEED).items()}
                        for name, cls in workloads.WORKLOADS.items()}
            for size_name, size in workloads.SIZES.items() if size_name == "desk"}
    run.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.PINNED}")
