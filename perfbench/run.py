"""skelact benchmark: one workload, one JSON line.

    python3 perfbench/run.py --workload train_b64 --seed 3 --seconds 25 --trace 0

Run it from the root of a skelact checkout.  A run is a few episodes, each
a fresh process (episode.py) that imports skelact from the checkout's
``src/``, runs the set-up path once and then the workload; the episodes run
one after another, never two at once.  Separate processes keep the memory
the training loop holds bounded per episode and make set-up time a median
over independent set-ups.

With ``--trace 0`` the last line of standard output carries every
end-to-end metric named in BENCHMARK.json; with ``--trace 1`` the public
functions of each module are wrapped with timing spans (see spans.py) and
the line carries every per-layer metric.  Each run also appends a full
record (metrics, checks, work census, the environment block) to ``--out``,
which compare.py reads.

Exit status: 0 when a result was printed, 2 when the checkout holds no
skelact source, 1 when an episode failed or overran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from envinfo import environment
from workloads import TRAIN_EPOCHS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EPISODES = 3
# a train_b64 episode times TRAIN_EPOCHS * 4 - 1 steps of about 0.65 s
TRAIN_EPISODE_S = (TRAIN_EPOCHS * 4 - 1) * 0.65
# every episode together must end well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0
# On train_b64 the spans must cover all but this share of the traced step;
# what they leave out is the loop's own batch slicing and tape set-up.
COVERAGE_SLACK = 0.02


def episode_plan(workload: str, seconds: float) -> tuple[int, float]:
    """(episode count, seconds each episode measures)."""
    if workload == "train_b64":
        return max(1, round(seconds / TRAIN_EPISODE_S)), TRAIN_EPISODE_S
    return EPISODES, seconds / EPISODES


def run_episodes(args, work_root: Path) -> list[dict]:
    count, seconds = episode_plan(args.workload, args.seconds)
    deadline = time.monotonic() + RUN_DEADLINE_S
    results = []
    for _ in range(count):
        cmd = [sys.executable, str(HERE / "episode.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(seconds),
               "--trace", str(args.trace), "--work-dir", str(work_root)]
        # run() kills the episode and waits for it if the deadline passes
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def aggregate(episodes: list[dict]) -> tuple[dict, dict, np.ndarray]:
    """End-to-end values, set-up phase medians and the pooled call times."""
    times = np.concatenate([np.asarray(e["times"], dtype=np.float64) for e in episodes])
    p50, p90 = np.percentile(times * 1000.0, [50, 90])
    phases = {k: statistics.median(e["phases"][k] for e in episodes) for k in episodes[0]["phases"]}
    e2e = {
        "seq_per_s": episodes[0]["seqs_per_call"] * len(times) / float(times.sum()),
        "call_ms_p50": float(p50),
        "call_ms_p90": float(p90),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in episodes),
        "loss_end": statistics.median(e["loss_end"] for e in episodes),
        "setup_s": phases["setup_s"],
    }
    return e2e, phases, times


def layer_values(episodes: list[dict], phases: dict, e2e: dict, times: np.ndarray) -> dict:
    """Per-layer values: per-call metrics weighted by each episode's calls."""
    weights = np.array([len(e["times"]) for e in episodes], dtype=np.float64)
    values = {name: float(np.average([e["layers"][name] for e in episodes], weights=weights))
              for name in episodes[0]["layers"]}
    values.update({k: v for k, v in phases.items() if k != "setup_s"})
    values["trace.seq_per_s"] = e2e["seq_per_s"]
    covered = sum(e["covered_s"] for e in episodes)
    values["trace.coverage_pct"] = 100.0 * covered / float(times.sum())
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "results" / "runs.jsonl"),
                        help="JSON-lines file each run appends its full record to")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skelact" / "__init__.py").is_file():
        print("no skelact source under src/ in this checkout", file=sys.stderr)
        return 2

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=out_path.parent))
    try:
        episodes = run_episodes(args, work_root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"episode failed: {exc}", file=sys.stderr)
        return 1
    finally:
        work_root.rmdir()

    e2e, phases, times = aggregate(episodes)
    correct = all(e["run_ok"] for e in episodes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "episodes": len(episodes),
        "timed_calls": len(times), "setup_phases": phases,
        "checks": [e["checks"] for e in episodes],
        "setup_checks": [e["setup_checks"] for e in episodes],
        "call_ms": [round(t * 1000.0, 3) for t in times],
    }
    if args.trace:
        values = layer_values(episodes, phases, e2e, times)
        record["census"] = episodes[0]["census"]
        record["self_ms"] = episodes[0]["self_ms"]
        if "census_check" in episodes[0]:
            record["census_check"] = episodes[0]["census_check"]
        if args.workload == "train_b64":
            share = values["trace.coverage_pct"] / 100.0
            covered = 1.0 - COVERAGE_SLACK <= share <= 1.0 + 1e-9
            record["span_coverage_within_slack"] = covered
            correct = correct and covered
        record["untraced_view"] = e2e
    else:
        values = e2e

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in metrics},
    }
    record["result"] = result
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
