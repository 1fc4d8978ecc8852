"""Same-process A/B of two cohdet trees on one benchmark workload.

usage: python3 tools/ab_ops.py --parent DIR --change DIR --workload NAME [--seed 0]

Each tree's ``src/cohdet`` is copied into a temporary directory under its
own package name (the package imports itself only relatively, so a copy
runs as it is). The unchanged ``bench/workloads.py`` of the change tree is
then loaded once per copy, with ``sys.modules["cohdet"]`` bound to that copy
while it loads, so both sides run the benchmark's own ops. After a warm-up
both sides run the same 60 batches of 100 ops, alternating op by op and flipping
which side goes first at every op; only ``op(k)`` is timed, and every
output is checked and hashed. The report is the median ratio of change to
parent time per batch with its quartiles, the problems the workload's checks
found, and whether the SHA-256 over every output matches. Nothing is
written under either tree.

Two interleaved sides in one process share the machine's drift, so a
2-3% change resolves here where ten sequential benchmark pairs cannot.
Alternating whole batches instead left a ratio of identical trees spread
over quartiles 0.93-1.14 on a shared 2-vCPU host; alternating ops, 0.98-1.02.
"""

import os
import sys

sys.dont_write_bytecode = True  # nothing lands under either tree, bench/ included
# as in bench/run.py: the matrices are tiny, so BLAS threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
WORKLOAD_NAMES = ("audit-generic", "ensemble-survey")
BATCHES = 60  # one change/parent ratio each
OPS = 100  # per batch


def feed(h, value) -> None:
    """Hash every bit of an op's output: floats by ``float.hex``, arrays by their bytes."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"(")
        for item in value:
            feed(h, item)
        h.update(b")")
    elif isinstance(value, enum.Enum):
        h.update(str(value.value).encode())
    elif isinstance(value, (float, np.floating)):
        h.update(float(value).hex().encode())
    else:
        h.update(repr(value).encode())
    h.update(b"|")


def load_side(side: str, tree: Path, scratch: Path, bench: Path):
    """The workloads module of ``bench`` bound to a renamed copy of ``tree``'s package."""
    name = f"cohdet_ab_{side}"
    shutil.copytree(tree / "src" / "cohdet", scratch / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    saved = sys.modules.get("cohdet")
    sys.modules["cohdet"] = package
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_ab_{side}", bench / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            sys.modules.pop("cohdet")
        else:
            sys.modules["cohdet"] = saved
    return module


def run_batch(workloads: dict, first: int, hashes: dict, problems: dict) -> dict:
    """Seconds each side spends in ``op`` over ops first..first+OPS-1, the sides taking turns."""
    gc.collect()
    busy = dict.fromkeys(SIDES, 0.0)
    for k in range(first, first + OPS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            start = time.perf_counter()
            result = workloads[side].op(k)
            busy[side] += time.perf_counter() - start
            problems[side] += len(workloads[side].check(k, result))
            feed(hashes[side], result)
    return busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = args.change.resolve() / "bench"
    sys.path.insert(0, str(bench))  # workloads.py imports its sibling reference.py
    with tempfile.TemporaryDirectory(prefix="cohdet-ab-") as scratch:
        sys.path.insert(0, scratch)
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        modules = {side: load_side(side, trees[side], Path(scratch), bench) for side in SIDES}
        workloads = {side: modules[side].WORKLOADS[args.workload](args.seed, 0) for side in SIDES}
        for side in SIDES:
            workloads[side].warmup()
        hashes = {side: hashlib.sha256() for side in SIDES}
        times = {side: [] for side in SIDES}
        problems = dict.fromkeys(SIDES, 0)
        for b in range(BATCHES):
            busy = run_batch(workloads, b * OPS, hashes, problems)
            for side in SIDES:
                times[side].append(busy[side])
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    per_op = {side: 1e3 * statistics.median(times[side]) / OPS for side in SIDES}
    print(f"workload {args.workload}: {BATCHES} batches of {OPS} ops, alternating op by op, seed {args.seed}")
    print(f"median op ms: parent {per_op['parent']:.4f}, change {per_op['change']:.4f}")
    print(f"change/parent batch-time ratio: median {median:.4f} (quartiles {q1:.4f}-{q3:.4f})")
    print(f"problems found by the workload checks: parent {problems['parent']}, change {problems['change']}")
    digests = {side: hashes[side].hexdigest() for side in SIDES}
    same = digests["parent"] == digests["change"]
    print(f"output sha256: {'match' if same else 'DIFFER'} {digests['parent']}" + ("" if same else f" / {digests['change']}"))
    return 0 if same and not any(problems.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
