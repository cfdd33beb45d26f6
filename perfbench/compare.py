"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py perfbench/results/runs.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

A result file is the JSON-lines record file run.py appends to.  For each
workload the command prints every end-to-end metric's median and quartiles
over the untraced runs (with the quartile spread as a share of the median),
the tracing overhead (untraced against traced sequences per second), and,
from the traced runs, one line per layer of the form ``layer: a → b ms``.
Given two files, A is the base and B the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(path) -> dict:
    """(workload, trace) -> metric name -> list of values, one per run."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            bucket = runs[(record["workload"], record["trace"])]
            for name, metric in record["result"]["metrics"].items():
                bucket[name].append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    spread = (q3 - q1) / q2 if q2 else float("nan")
    return f"{_fmt(q2)} [{_fmt(q1)}, {_fmt(q3)}] spread {spread:.1%} n={len(values)}"


def report(files: list[str], out=sys.stdout) -> None:
    data = [load(f) for f in files]
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        if not any((workload, 0) in d or (workload, 1) in d for d in data):
            continue
        print(f"== {workload}", file=out)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            cells = []
            for d in data:
                values = d.get((workload, 0), {}).get(name)
                cells.append(_summary(values) if values else "-")
            line = f"  {name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%}): "
            line += "  ->  ".join(cells)
            if len(data) == 2 and all(d.get((workload, 0), {}).get(name) for d in data):
                a = statistics.median(data[0][(workload, 0)][name])
                b = statistics.median(data[1][(workload, 0)][name])
                line += f"  ({(b - a) / a:+.1%})"
            print(line, file=out)
        overhead = []
        for d in data:
            plain = d.get((workload, 0), {}).get("seq_per_s")
            traced = d.get((workload, 1), {}).get("trace.seq_per_s")
            if plain and traced:
                a, b = statistics.median(plain), statistics.median(traced)
                overhead.append(f"untraced {_fmt(a)} vs traced {_fmt(b)} seq/s ({(b - a) / a:+.1%})")
        if overhead:
            print("  tracing overhead: " + "  |  ".join(overhead), file=out)
        traced = [d.get((workload, 1), {}) for d in data]
        if any(traced):
            for metric in SPEC["per_layer"]:
                name = metric["name"]
                vals = [_fmt(statistics.median(t[name])) if t.get(name) else "-" for t in traced]
                print(f"  {name}: {' → '.join(vals)} {metric['unit']}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", help="one result file to summarise, or base and change")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two result files")
    report(args.files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
