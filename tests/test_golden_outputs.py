"""Byte-identity of every benchmark workload's output.

For seeds 1-3, each workload's inputs are written with
``perfbench/generate.py`` and its commands (``perfbench/worker.py``) are
run through :func:`tstrees.cli.main`.  The sha256 of each command's stdout
and of the file it writes (``--out`` or ``--report``) must equal the digest
recorded here.  A change that alters any output on purpose updates the
digest and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from tstrees.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = _load("generate").generate
commands = _load("worker").commands

_PREDICT = {
    1: "a5645f5867f5dd2c50e00b84155a0a9aadaefb40467a36c749fe84cece05d112",
    2: "790b36b3f3f8856cb731d1310af6928373ade8706587034783444f46502f8cae",
    3: "b086d7cac0c2a7c65c8ad82934f6486f7ed545e72627db9cc37897d5f4b0acd2",
}
_EVALUATE = ("396e8031afd01a240cee2dedc858816a0eb257dfe1beba83ed312a5d470ba19d",
             "5a0c09e8ff5d2f21f3afcf7be8297e6f48688cc4f34d7efee1b22b6caf8d3917")
_COMPARE = ("b098ee315c756d7ba44a2222cbabcda1d1a85d60cb5dbaf0d91eeac1b18a5759",
            "c74601268bb81ce0099a1a2c580743f75932512a5af8777520c6da844d2500c8")

# (workload, seed) -> per command, the digests of (stdout, side file or None)
GOLDEN = {
    ("racket-train", 1): [("d7509ca611b15cef2fb9c02fc57832b8fa1a0a20b347f46ef367e17be3b34704",
                           "35e795071c2592c201ae2014026e8a9439dce27aa36c7d7c3426cf23a4998bb4")],
    ("racket-train", 2): [("1a770c4aba0a76c7f1a2b53c9259f586d52ba9624be1b44ad66f1ab942ba45cf",
                           "b534061c6b2ba47faacb1ad8d52d0d51e013f1360e9f25664e3478a6990f2816")],
    ("racket-train", 3): [("1c07febfd0cd1dbe5b6b3e3a1b0639829da884ceb65ee10227ab682eeba39851",
                           "df7e9d43d270dee746eea314904509650a442c5847e7b38cfa02561db6d4ce4b")],
    **{("long-predict", seed): [(digest, None), _EVALUATE] for seed, digest in _PREDICT.items()},
    **{("racket-compare", seed): [_COMPARE] for seed in (1, 2, 3)},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(GOLDEN))
def test_workload_outputs_match_their_golden_digests(workload, seed, tmp_path):
    generate(seed, tmp_path, workload)
    got = []
    for argv in commands(workload, tmp_path, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, argv
        side = next((argv[argv.index(flag) + 1] for flag in ("--out", "--report") if flag in argv), None)
        got.append((_sha256(buf.getvalue().encode("utf-8")),
                    None if side is None else _sha256(Path(side).read_bytes())))
    assert got == GOLDEN[workload, seed]


def _rise_and_fall(path: Path) -> None:
    """36 series of 12 points of small noise: Flat has no extreme point, Rise
    a dip below -5 and later a spike above 5, Fall the spike and later the
    dip.  Both orders hold both extremes, so only a decision taken from the
    first extreme's witness tells Rise from Fall."""
    rng = np.random.default_rng(7)
    names = ("Flat", "Rise", "Fall")
    lines = ["series,class"]
    for i in range(36):
        cls = i % 3
        values = np.round(rng.normal(0, 0.2, 12), 1)
        if cls:
            first, second = sorted(rng.choice(np.arange(1, 12), size=2, replace=False))
            sign = -1 if cls == 1 else 1
            values[first] = sign * round(6 + rng.random(), 2)
            values[second] = -sign * round(6 + rng.random(), 2)
        lines.append(";".join(f"{v:g}" for v in values) + "," + names[cls])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("extra, head, digests", [
    ([], ["<L> series <= -3.37", "|   <L> series > 0.35: Rise (12.0)"],
     ("add8e5fc5dee72dd10cc1f68b291e5d1b09f70c4b41acc357e9aa67c43bc989c",
      "f85af5901482f3619183637c0f4ccb3bad53b22b48dbffdca869d5c442c2abbc")),
    # a degree-2 root, and below it an <A> node on moved references
    (["--max-z", "2"], ["<L> series <= -6.24 @z=2", "|   <A> series > 6.14"],
     ("b907a43527eb95d0bf7950dee1359b64504e25f35a7618ca8e97ae5669f59ff7",
      "f5df8bcb91e9467835cac8eb620c8187e95d32773e5060f30a3d4bacf5b32895")),
], ids=["max-z-0", "max-z-2"])
def test_training_on_moved_references_matches_its_golden_digests(tmp_path, extra, head, digests):
    """No workload trains a node whose instances stand on different
    references, nor picks a split of degree >= 1.  Here the root's ``<L>``
    decision moves Rise and Fall onto the witnesses of their dips (or, up to
    degree 2, of their second differences), and that branch splits again
    from there, so the split search of a node on differing references is
    held byte for byte as well."""
    _rise_and_fall(tmp_path / "rise_and_fall.csv")
    argv = ["train", "--data", str(tmp_path / "rise_and_fall.csv"), "--alpha", "0.5",
            "--min-leaf", "2", "--out", str(tmp_path / "model.json"), *extra]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue().splitlines()[:2] == head
    assert (_sha256(buf.getvalue().encode("utf-8")), _sha256((tmp_path / "model.json").read_bytes())) == digests
