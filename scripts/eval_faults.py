"""Minor page faults and system time per batched evaluation call.

    PYTHONPATH=src python scripts/eval_faults.py [--calls 20] [--batch 64] [--seed 0]

Builds the default 15-joint, 64-frame model and one batch of random
sequences, runs ``training._predict_classes`` on it once to warm up, then
reads ``getrusage(RUSAGE_SELF)`` around ``--calls`` more calls and prints the
minor faults, system time and wall time per call.  It uses only the public
model API and ``_predict_classes``, so it runs unchanged against any source
tree put first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import resource
import time

import numpy as np

from skelact import training
from skelact.model import ModelConfig, ModelParams
from skelact.synth import humanoid_topology


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.calls < 1 or args.batch < 1:
        parser.error("--calls and --batch must be positive")

    topology = humanoid_topology()
    config = ModelConfig(joints=topology.joint_count, classes=8, bones=topology.bones,
                         root=topology.root, labels=tuple(range(8)))
    params = ModelParams.build(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    data = (rng.normal(size=(args.batch, config.frames, config.joints, 3)) * 0.3).astype(np.float32)

    training._predict_classes(params, data, args.batch)  # warm-up: workspace and heap grow here
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for _ in range(args.calls):
        training._predict_classes(params, data, args.batch)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = args.calls
    print(f"batch={args.batch} calls={n} "
          f"minor_faults_per_call={(after.ru_minflt - before.ru_minflt) / n:.1f} "
          f"sys_ms_per_call={1000.0 * (after.ru_stime - before.ru_stime) / n:.2f} "
          f"user_ms_per_call={1000.0 * (after.ru_utime - before.ru_utime) / n:.2f} "
          f"wall_ms_per_call={1000.0 * wall / n:.2f}")


if __name__ == "__main__":
    main()
