"""Input generator for the benchmark workloads.

Writes, from one integer seed, the files the program reads:

* ``racket_twin.ts``: a synthetic twin of the racket-sports archive
  (120 cases, 6 channels, 30 points, 4 classes) in the UEA text format;
* ``racket_train.ts``: its stratified 96-case training split (24 per class);
* ``long_series.csv``: 150-point, 6-channel series in the semicolon table
  format, planted so that each instance reaches a known leaf of the model;
* ``long_model.json``: a fixed-shape depth-3 tree written through
  ``tstrees.model.save_model``.

The seed moves noise, thresholds, channel roles, label noise and instance
order, but never the amount of work: the twin's geometry is fixed, and the
long series carry their pulses at fixed points with noise that can never
cross a threshold, so every seed routes the same number of instances along
the same paths and scans the same successor sets.

Usage: python3 perfbench/generate.py --seed 7 --out DIR --workload NAME
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

TWIN_CLASSES = ["Badminton_Clear", "Badminton_Smash",
                "Squash_ForehandBoast", "Squash_BackhandBoast"]
TWIN_CASES, TWIN_CHANNELS, TWIN_LENGTH, TWIN_TRAIN_PER_CLASS = 120, 6, 30, 24

LONG_CLASSES = ["Walk", "Run", "Jump", "Swim"]
LONG_LENGTH, LONG_CHANNELS, LONG_PER_GROUP = 150, 6, 5
# Pulse positions on the 1-based point axis.  Fixed, so the successor scans
# (and hence the work) do not depend on the seed.
PULSE_A, PULSE_B, PULSE_LOW = 80, 30, 60
# group -> class of the leaf it reaches; the leaves are listed in tree order
LONG_GROUPS = ("g1", "g2", "g3", "g4", "g5", "g6")
LONG_LEAF_CLASS = {"g1": 0, "g2": 1, "g3": 2, "g4": 3, "g5": 0, "g6": 1}

WORKLOAD_FILES = {
    "racket-train": ("racket_train.ts",),
    "racket-compare": ("racket_twin.ts",),
    "long-predict": ("long_series.csv", "long_model.json"),
}


def _ts_text(cases) -> str:
    lines = ["@problemName RacketTwin", "@timeStamps false",
             "@classLabel true " + " ".join(TWIN_CLASSES), "@data"]
    for channels, cls in cases:
        body = ":".join(",".join(f"{v:.4f}" for v in row) for row in channels)
        lines.append(f"{body}:{TWIN_CLASSES[cls]}")
    return "\n".join(lines) + "\n"


def racket_twin(seed: int):
    """(all 120 cases, the 96-case training split), each a list of
    (6 x 30 channel matrix, class index) in file order."""
    rng = np.random.default_rng([seed, 606])
    cases = []
    for k in range(TWIN_CASES):
        cls = k % 4
        channels = rng.normal(0.0, 0.5, size=(TWIN_CHANNELS, TWIN_LENGTH))
        lo = 3 + 5 * cls
        channels[cls, lo: lo + 8] += 2.5
        channels[cls + 1, lo: lo + 8] -= 1.5
        cases.append((channels, cls))
    order = rng.permutation(len(cases))
    cases = [cases[i] for i in order]
    taken = [0] * 4
    train = []
    for channels, cls in cases:
        if taken[cls] < TWIN_TRAIN_PER_CLASS:
            taken[cls] += 1
            train.append((channels, cls))
    return cases, train


def _noise(rng, shape) -> np.ndarray:
    return np.clip(rng.normal(0.0, 0.4, size=shape), -1.0, 1.0)


def long_series(seed: int):
    """(instances, model spec).  Each instance is (6 x 150 matrix, true class,
    group); the spec gives channel roles and thresholds of the model."""
    rng = np.random.default_rng([seed, 150])
    roles = [int(c) for c in rng.permutation(LONG_CHANNELS)]
    spec = {
        "roles": roles,
        "t_high": [float(rng.uniform(1.8, 2.2)) for _ in range(3)],
        "t_low": [float(rng.uniform(-2.2, -1.8)) for _ in range(2)],
    }
    c0, c1, c2, c3, c4, _ = roles
    instances = []
    for group in LONG_GROUPS:
        leaf_class = LONG_LEAF_CLASS[group]
        noisy = int(rng.integers(LONG_PER_GROUP))  # one mislabelled instance per group
        for k in range(LONG_PER_GROUP):
            x = _noise(rng, (LONG_CHANNELS, LONG_LENGTH))

            def high(ch, start, stop):
                x[ch, start - 1: stop] = rng.uniform(3.5, 4.5, size=stop - start + 1)

            def low(ch, start, stop):
                x[ch, start - 1: stop] = rng.uniform(-4.5, -3.5, size=stop - start + 1)

            if group in ("g1", "g2", "g3"):
                high(c0, PULSE_A, PULSE_A + 1)
            if group in ("g1", "g2"):
                high(c1, PULSE_B, PULSE_B + 1)
            if group == "g1":
                low(c2, PULSE_B, PULSE_B)
            if group in ("g4", "g5"):
                high(c3, 1, 1)
            if group == "g4":
                low(c4, PULSE_LOW, LONG_LENGTH)
            true = (leaf_class + 1) % 4 if k == noisy else leaf_class
            instances.append((x, true, group))
    order = rng.permutation(len(instances))
    return [instances[i] for i in order], spec


def long_model(instances, spec):
    """The fixed-shape tree over the long series:

    N1 <L>(c0 > t)  alpha 1      forward modal from [0, 1]
      sat   -> N2 <InvL>(c1 > t) alpha 1          inverse modal from the witness
                 sat   -> N4 (c2 <= t) eq, alpha 0.5  on the second witness
                            sat -> g1 leaf, unsat -> g2 leaf
                 unsat -> g3 leaf
      unsat -> N3 (c3 > t) eq, alpha 1            on [0, 1]
                 sat   -> N5 <InvB>(c4 <= t) alpha 0.5
                            sat -> g4 leaf, unsat -> g5 leaf
                 unsat -> g6 leaf
    """
    from tstrees.core import (Comparator, IntervalRelation as Rel, Leaf, LearnerConfig,
                              Node, TemporalDecision)
    from tstrees.model import ModelBundle

    c0, c1, c2, c3, c4, _ = spec["roles"]
    th, tl = spec["t_high"], spec["t_low"]
    tally = {g: [0] * 4 for g in LONG_GROUPS}
    for _, true, group in instances:
        tally[group][true] += 1

    def leaf(group):
        return Leaf(LONG_LEAF_CLASS[group], tuple(tally[group]))

    def dec(rel, ch, cmp, thr, alpha):
        return TemporalDecision(relation=rel, attribute_index=ch, derivative_degree=0,
                                comparator=cmp, threshold=thr, alpha=alpha)

    n4 = Node(dec(Rel.EQ, c2, Comparator.LE, tl[0], 0.5), leaf("g1"), leaf("g2"))
    n2 = Node(dec(Rel.LI, c1, Comparator.GT, th[1], 1.0), n4, leaf("g3"))
    n5 = Node(dec(Rel.BI, c4, Comparator.LE, tl[1], 0.5), leaf("g4"), leaf("g5"))
    n3 = Node(dec(Rel.EQ, c3, Comparator.GT, th[2], 1.0), n5, leaf("g6"))
    n1 = Node(dec(Rel.L, c0, Comparator.GT, th[0], 1.0), n2, n3)
    return ModelBundle(
        tree=n1,
        attribute_names=[f"ch{j}" for j in range(LONG_CHANNELS)],
        class_names=list(LONG_CLASSES),
        series_length=LONG_LENGTH,
        config=LearnerConfig(alpha_grid=(0.5, 1.0)),
    )


def _long_csv(instances) -> str:
    lines = [",".join([f"ch{j}" for j in range(LONG_CHANNELS)] + ["C"])]
    for x, true, _ in instances:
        cells = [";".join(f"{v:.5f}" for v in row) for row in x]
        lines.append(",".join(cells + [LONG_CLASSES[true]]))
    return "\n".join(lines) + "\n"


def generate(seed: int, out: Path, workload: str) -> list[Path]:
    """Write the inputs of one workload under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "long-predict":
        from tstrees.model import save_model

        instances, spec = long_series(seed)
        (out / "long_series.csv").write_text(_long_csv(instances), encoding="utf-8")
        save_model(out / "long_model.json", long_model(instances, spec))
    else:
        cases, train = racket_twin(seed)
        selection = cases if workload == "racket-compare" else train
        (out / WORKLOAD_FILES[workload][0]).write_text(_ts_text(selection), encoding="utf-8")
    return [out / name for name in WORKLOAD_FILES[workload]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOAD_FILES), required=True)
    args = parser.parse_args(argv)
    for path in generate(args.seed, Path(args.out), args.workload):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
