"""Record stored fingerprints: the reference outputs of each workload per seed.

    python3 perfbench/record.py --seeds 0-19 [--workload gs_roll_daily ...]

Each CLI workload's reference is its ``roll`` op at ``--workers 1``; the
Monte Carlo reference is one pass over its op list in this process. Entries
are merged into ``perfbench/fingerprints/<workload>.json`` and keyed by the
sha256 of the generated input, so a seed whose input changes is not
checked against a stale entry. Record only from a commit whose results are
trusted: every later run is checked against these values.
"""

import run  # first: sets the BLAS thread count before numpy loads

import argparse
import json
import sys

import fingerprint
import inputs
import workloads as wl


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_cli(w, seed: int, workdir, env) -> dict:
    data = w.make_csv(seed)
    csv_path = workdir / "input.csv"
    csv_path.write_bytes(data)
    ref = wl.run_child(wl.cli_cmd(w.argv(csv_path, seed, 1)), env, workdir)
    if ref.exit_code != 0:
        raise RuntimeError(f"{w.name} seed {seed}: {ref.stderr.decode()[-500:]}")
    return {"input_sha256": inputs.digest(data), "windows": fingerprint.roll_rows(ref.stdout)}


def record_mc(seed: int) -> dict:
    ops = inputs.mc_ops(seed)
    p = wl.run_mc_list(ops)
    if p["errors"]:
        raise RuntimeError(f"mc seed {seed}: {p['errors'][0]}")
    return {
        "input_sha256": inputs.digest(ops),
        "ops": p["results"],
        "rejections_5pct": fingerprint.rejections(ops, p["results"]),
    }


def _dumps(store: dict) -> str:
    """JSON with one seed per line, so a re-recorded seed is a one-line diff."""
    seeds = sorted(store["seeds"].items(), key=lambda kv: int(kv[0]))
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds)
    return (
        '{"recorded_with": ' + json.dumps(store["recorded_with"], sort_keys=True)
        + ',\n "seeds": {\n' + body + "\n }}\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="one seed or a range lo-hi")
    parser.add_argument("--workload", action="append", choices=wl.NAMES)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    env = wl.child_env(run.ROOT)
    fingerprint.STORE.mkdir(exist_ok=True)
    for name in args.workload or wl.NAMES:
        path = fingerprint.STORE / f"{name}.json"
        store = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
        store["recorded_with"] = run.environment()
        workdir = run.ROOT / ".perfbench_work" / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        for seed in _seeds(args.seeds):
            if name == wl.MC_WORKLOAD:
                store["seeds"][str(seed)] = record_mc(seed)
            else:
                store["seeds"][str(seed)] = record_cli(wl.CLI_WORKLOADS[name], seed, workdir, env)
            print(f"{name} seed {seed} recorded", flush=True)
        path.write_text(_dumps(store))


if __name__ == "__main__":
    main()
