"""One benchmark run in a fresh process: timed CLI rounds, then checks.

Usage: python3 worker.py ROOT WORKDIR WORKLOAD SEED SECONDS TRACE

ROOT is the repository checkout (``src/`` and ``tests/`` are imported from
it) and WORKDIR holds the generated inputs.  The worker repeats whole rounds
of the workload's CLI commands through ``tstrees.cli.main`` until SECONDS
have passed, takes its peak RSS, checks every command's output, and prints
one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

TRAIN_ALPHAS = "0.6,0.9"


def commands(workload: str, work: Path, seed: int):
    """The CLI argument lists of one round."""
    if workload == "racket-train":
        return [["train", "--data", str(work / "racket_train.ts"), "--alpha", TRAIN_ALPHAS,
                 "--relations", "full-hs", "--comparators", "<=,>", "--max-z", "0",
                 "--out", str(work / "train_model.json")]]
    if workload == "long-predict":
        model, data = str(work / "long_model.json"), str(work / "long_series.csv")
        return [["predict", "--model", model, "--data", data],
                ["evaluate", "--model", model, "--data", data,
                 "--report", str(work / "evaluate_report.tsv")]]
    if workload == "racket-compare":
        return [["compare", "--data", str(work / "racket_twin.ts"), "--seed", str(seed),
                 "--methods", "j48:1100,ed-i,dtw-i,dtw-d",
                 "--report", str(work / "compare_report.tsv")]]
    raise ValueError(f"unknown workload {workload!r}")


def _side_output(argv):
    """The file a command writes besides stdout, read after it returns."""
    for flag in ("--out", "--report"):
        if flag in argv:
            return Path(argv[argv.index(flag) + 1]).read_text(encoding="utf-8")
    return None


def check_outputs(workload: str, work: Path, seed: int, results) -> list[list[str]]:
    """Mismatch messages per operation, in the order of ``results``."""
    import checks

    if workload == "racket-train":
        from tstrees.core import FULL_HS, LearnerConfig

        series, labels = checks.read_ts(work / "racket_train.ts")
        names, classes = checks.first_appearance(labels)
        config = LearnerConfig(alpha_grid=tuple(float(a) for a in TRAIN_ALPHAS.split(",")),
                               relations=FULL_HS)
        verdicts = {}   # rounds write identical models; check each distinct one once
        for _, out, side in results:
            if (out, side) not in verdicts:
                verdicts[out, side] = checks.check_train(
                    out, side or "", series, classes, names, config)
        return [verdicts[out, side] for _, out, side in results]
    if workload == "long-predict":
        want = checks.expected_long(work / "long_model.json", work / "long_series.csv")
        return [checks.check_predict(out, want) if cmd == "predict"
                else checks.check_evaluate(out, side or "", want)
                for cmd, out, side in results]
    series, labels = checks.read_ts(work / "racket_twin.ts")
    names, classes = checks.first_appearance(labels)
    want = checks.expected_compare(series, classes, len(names), seed)
    return [checks.check_compare(out, side or "", want) for _, out, side in results]


def main(argv) -> int:
    root, work, workload, seed, seconds, trace = argv
    root, work, seed, seconds, trace = Path(root), Path(work), int(seed), float(seconds), trace == "1"
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(Path(__file__).parent)]
    import tstrees.cli
    if Path(tstrees.cli.__file__).resolve().parent != (root / "src" / "tstrees").resolve():
        raise SystemExit(f"tstrees imported from {tstrees.cli.__file__}, not from {root}")

    from speed import SpeedSampler, at_reference

    cmds = commands(workload, work, seed)
    tracer = None
    if trace:
        from run import unit_of
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()

    sampler = SpeedSampler()
    loop_us = None

    def call(argv_):
        """(exit code, stdout, wall seconds, seconds at the reference speed)
        of one command.  A command too short to see a speed sample keeps
        the last known loop time."""
        nonlocal loop_us
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            mark, t0 = sampler.mark(), time.perf_counter()
            if tracer:
                code = tracer.span(f"cli.{argv_[0]}", tstrees.cli.main, argv_)
            else:
                code = tstrees.cli.main(argv_)
            wall = time.perf_counter() - t0
        spent, samples = sampler.since(mark)
        if samples:
            loop_us = spent / samples * 1e6
        return code, buf.getvalue(), wall, at_reference(wall, spent, loop_us)

    results = []          # (command, stdout, side output) per operation
    exit_codes = []
    rounds = []           # (wall, reference-speed) seconds of each round's cli.main calls
    loops = []            # loop time each operation was rescaled by, us
    round_layers = []
    started = time.perf_counter()
    with sampler:
        loop_us = sampler.loop_us()   # for a first command that sees no sample
        while True:
            if tracer:
                tracer.reset()
            wall = ref = 0.0
            for argv_ in cmds:
                code, out, op_wall, op_ref = call(argv_)
                wall += op_wall
                ref += op_ref
                loops.append(loop_us)
                exit_codes.append(code)
                results.append((argv_[0], out, _side_output(argv_) if code == 0 else None))
            rounds.append((wall, ref))
            if tracer:
                round_layers.append(layer_metrics(tracer, [c[0] for c in cmds]))
            if time.perf_counter() - started >= seconds:
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    mismatches = check_outputs(workload, work, seed, results)
    failed = 0
    messages = []
    for code, errors in zip(exit_codes, mismatches):
        if code != 0:
            errors = [f"exit code {code}"] + errors
        if errors:
            failed += 1
            messages += errors
    for message in dict.fromkeys(messages):
        print(f"check failed: {message}", file=sys.stderr)

    report = {
        "attempted": len(results),
        "failed": failed,
        "round_seconds": [w for w, _ in rounds],
        "round_ref_seconds": [r for _, r in rounds],
        "loop_us": loops,
        "wall_run_s": statistics.median(w for w, _ in rounds),
        "run_s": statistics.median(r for _, r in rounds),
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer:
        layers = {}
        for name in round_layers[0]:
            values = [r[name] for r in round_layers]
            counted = unit_of(name) not in ("s", "us")
            if counted and len(set(values)) > 1:
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
            layers[name] = values[0] if counted else statistics.median(values)
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
