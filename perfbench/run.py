"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's inputs from
the seed, times interpreter start-up to a ready ``tstrees.cli`` (untraced
runs only), then runs the workload in one fresh single-threaded worker
process and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs report the
end-to-end metrics, traced runs the per-layer metrics.  End-to-end times are
given at the reference interpreter speed (see ``speed.py``); the raw wall
times sit beside them in ``perfbench/_work/<workload>/report.json``.
Everything the run writes goes under ``perfbench/_work/``.

Exit codes: 0 with a result line, 1 when the worker failed, 2 when the
current directory is not a tstrees checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("racket-train", "long-predict", "racket-compare")
SETUP_LAUNCHES = 11
WORKER_TIMEOUT_S = 150
# A fresh interpreter imports the CLI under a speed sampler, then reports
# the sampler's figures so the launch can be rescaled to the reference speed.
READY = """import speed
with speed.SpeedSampler() as sampler:
    import tstrees.cli
    loop_us = sampler.loop_us()
print('ready', sampler.spent, loop_us, flush=True)
"""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(env: dict) -> tuple[float, float]:
    """Median seconds from launching a fresh interpreter until it has
    imported ``tstrees.cli`` and says so, as measured and at the reference
    speed; one untimed launch first so the bytecode cache is written."""
    from speed import at_reference

    wall, ref = [], []
    for k in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if line[:1] != ["ready"] or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import tstrees.cli")
        if k:
            wall.append(ready - start)
            ref.append(at_reference(ready - start, float(line[1]), float(line[2])))
    return statistics.median(wall), statistics.median(ref)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tstrees benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/tstrees/cli.py", "tests/oracles.py") if not (root / p).is_file()]
    if missing:
        print(f"not a tstrees checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = child_env(root)
    work = root / "perfbench" / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "generate.py"), "--seed", str(args.seed),
                    "--out", str(work), "--workload", args.workload],
                   env=env, check=True, stdout=subprocess.DEVNULL)

    wall_setup_s, setup_s = (None, None) if args.trace else time_setup(env)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(root), str(work), args.workload,
         str(args.seed), str(args.seconds), str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if worker.returncode != 0:
        print(f"worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])
    report.update(workload=args.workload, seed=args.seed, setup_s=setup_s,
                  wall_setup_s=wall_setup_s)
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in report["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": report["run_s"], "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("us_per_candidate"):
        return "us"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
