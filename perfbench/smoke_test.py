"""Smoke test of the benchmark itself, at the tiny size.

    python3 perfbench/smoke_test.py

For every workload it runs the benchmark untraced and traced and checks that
- every metric BENCHMARK.json names is printed, with its unit, in the table
  and in the final JSON line, and the run reports itself correct;
- the traced run wrote spans that nest inside their parents, with self time
  at most total time for every span;
- the traced run reports the unattributed share of its wall time;
- traced and untraced runs produce the same output digest.
Exits 1 and lists the failures when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "smoke"


def run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--out", str(OUT)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    tag = f"{workload}-tiny-seed3-trace{trace}"
    result_file = OUT / tag / "result.json"
    result = json.loads(result_file.read_text()) if result_file.exists() else {}
    return proc, result


def check_spans(path: Path) -> list[str]:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    if not spans:
        return [f"{path}: no spans"]
    child_time = [0.0] * len(spans)
    problems = []
    for s in spans:
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            child_time[s["parent"]] += s["end"] - s["start"]
            if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
                problems.append(f"{path}: span {s['id']} {s['name']} escapes "
                                f"its parent {parent['name']}")
    for s, children in zip(spans, child_time):
        total = s["end"] - s["start"]
        if not -1e-9 <= total - children <= total + 1e-9:
            problems.append(f"{path}: span {s['id']} {s['name']} self "
                            f"{total - children:.6f}s vs total {total:.6f}s")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.splitlines()
            final = json.loads(lines[-1])
            if not final["correct"] or final["failed"] or final["attempted"] < 1:
                problems.append(f"{label}: result line {lines[-1][:200]}")
            for m in spec[section]:
                got = final["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{label}: metric {m['name']} missing or wrong unit")
                printed = [ln.split() for ln in lines[:-1]]
                if [m["name"], m["unit"]] not in [[p[0], p[-1]] for p in printed if p]:
                    problems.append(f"{label}: table lacks {m['name']} [{m['unit']}]")
            digests[trace] = result.get("output_digest")
            if trace:
                tag = f"{workload}-tiny-seed3-trace1"
                problems += check_spans(OUT / tag / "spans.jsonl")
                if "trace.unattributed_share" not in final["metrics"]:
                    problems.append(f"{label}: unattributed share of wall_s not reported")
        if len(set(digests.values())) != 1 or None in digests.values():
            problems.append(f"{workload}: traced and untraced output digests differ: {digests}")
        print(f"{workload}: {'ok' if not problems else 'checked'}", flush=True)
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
