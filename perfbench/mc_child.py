"""Runs the mc_size_power op list in a fresh process; prints one JSON line.

Started by ``run.py`` with one BLAS thread, so the Monte Carlo ops run on a
single thread. Passes over the fixed op list repeat while ``--seconds``
has not run out; at least one pass is made.

    python3 perfbench/mc_child.py --seed 1 --seconds 20
"""

import argparse
import json
from time import perf_counter

import inputs
from workloads import run_mc_list


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    ops = inputs.mc_ops(args.seed)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append(run_mc_list(ops))
    print(json.dumps({"passes": passes}))


if __name__ == "__main__":
    main()
