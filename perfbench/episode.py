"""One episode of a workload, in a process of its own.

    python3 perfbench/episode.py --workload eval_b64 --seed 3 --seconds 8 --trace 0

Imports skelact from the checkout's ``src/``, runs the set-up path once,
then the workload, and prints one JSON object with the raw samples for
run.py to aggregate.  run.py starts the episodes one after another and
checks first that the checkout holds skelact's source.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from prepare import prepare
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("autograd", "checkpoint", "encoder", "model", "optim", "recognizer",
           "skeleton", "synth", "training")


def load_skelact():
    """Import skelact from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("skelact")
    if Path(package.__file__).resolve().parent != (src / "skelact").resolve():
        raise ImportError("skelact was imported from outside this checkout")
    modules = {name: importlib.import_module(f"skelact.{name}") for name in MODULES}
    return package, SimpleNamespace(**modules)


def census_check(sk, config, census: dict, seqs_per_call: int) -> dict:
    """Traced MACs per sequence against recognizer.count_flops.

    The two differ by the bone-path product in encoder.scale_bones, which
    count_flops leaves out; recorded as a finding, never asserted.
    """
    static = sk.recognizer.count_flops(config).total_macs
    traced = census["macs_per_call"] / seqs_per_call
    bone_path = census["macs_by_site"].get("encoder.scale_bones/matmul", 0.0) / seqs_per_call
    gap = traced - static
    return {"traced_macs_per_seq": traced, "count_flops_macs": static,
            "gap": gap, "scale_bones_matmul_macs_per_seq": bone_path,
            "gap_is_scale_bones_matmul": gap == bone_path}


def run_episode(workload: str, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    package, sk = load_skelact()
    prep = prepare(sk, seed, work_root)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(package)
    try:
        outcome = WORKLOADS[workload](sk, prep, seconds, tracer.reset if tracer else (lambda: None))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if outcome.verify is not None:
        outcome.verify()
    result = {
        "times": outcome.times,
        "seqs_per_call": outcome.seqs_per_call,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "run_ok": outcome.run_ok and prep.ok,
        "loss_end": outcome.loss_end,
        "peak_rss_mb": outcome.peak_rss_mb,
        "checks": outcome.checks,
        "setup_checks": prep.checks,
        "phases": prep.phases,
    }
    if tracer is not None:
        calls = len(outcome.times)
        result["layers"] = tracer.per_call(calls)
        result["covered_s"] = tracer.covered_self_time()
        result["census"] = tracer.census(calls)
        result["self_ms"] = tracer.self_times_ms(calls)
        if workload == "eval_b64":
            result["census_check"] = census_check(sk, prep.params.config, result["census"],
                                                  outcome.seqs_per_call)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True, help="directory for the set-up's scratch files")
    args = parser.parse_args(argv)
    result = run_episode(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.work_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
