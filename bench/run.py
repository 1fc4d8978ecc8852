"""cohdet benchmark: closed-loop workloads, end-to-end metrics and a traced run.

usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src/``.
One single-threaded process runs one workload (see workloads.py):

  audit-generic    twelve criterion 6/8 corpus indices: per index a 2x2 and
                   a 2x3 state through every detector and the PPT oracle
  ensemble-survey  criterion 7 product-term ensemble over all bipartitions
  cli-session      a fixed cycle of fresh ``python -m cohdet.cli`` processes

Set-up (imports, inputs, warm-up ops) is timed in this process and in four
fresh interpreters; ``setup_s`` is the median. The timed phase then runs
operations until their summed duration reaches --seconds; each operation's
output is checked against an independent reference between operations,
outside its timing. With --trace 0 the last stdout line holds the end-to-end
metrics. With --trace 1 an untraced phase is followed by a traced one, and
the last line holds per-layer metrics: calls, self time and share for each
public function of each module, layer error counts, waste ratios, the
verdict ledger and the tracing overhead. Every run also writes its result,
with an environment record, to .bench_results/.
"""

import os

# Matrices here are at most 8x8, so BLAS threads only add overhead and noise.
# Pinned before numpy is imported, in this process and every child.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
WORKLOAD_NAMES = ("audit-generic", "ensemble-survey", "cli-session")

LEDGER_OPS = 5000  # seed 0: the acceptance corpora, so the ledger matches the rate report
SETUP_REPEATS = 5
WALL_LIMIT_S = 130  # past this, a traced phase stops extending to cover the ledger window


@dataclass
class Phase:
    durations: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    messages: list = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.durations)

    @property
    def throughput(self) -> float:
        return len(self.durations) / self.busy


def run_phase(workload, seconds: float, cover_ledger: bool, started: float) -> Phase:
    """Closed loop: op k+1 starts when op k has returned and been checked.

    Runs until the ops' summed duration reaches ``seconds`` and, with
    ``cover_ledger``, until the workload's ledger window is covered.
    """
    workload.begin_phase()
    phase = Phase()
    busy = 0.0
    k = 0
    while True:
        if k > 0 and workload.at_boundary(k) and busy >= seconds:
            covered = not cover_ledger or workload.ledger_covered >= workload.ledger_ops
            if covered or time.monotonic() - started > WALL_LIMIT_S:
                break
        workload.before_op(k)
        start = time.perf_counter()
        try:
            result = workload.op(k)
        except Exception as exc:  # the op failed; record it and keep the loop going
            elapsed = time.perf_counter() - start
            problems = [("failed", f"op {k}: {type(exc).__name__}: {exc}")]
        else:
            elapsed = time.perf_counter() - start
            problems = workload.check(k, result)
        phase.durations.append(elapsed)
        busy += elapsed
        if problems:
            phase.failed += 1
            phase.wrong += any(kind == "wrong" for kind, _ in problems)
            if len(phase.messages) < 20:
                phase.messages.extend(message for _, message in problems[:3])
        k += 1
    return phase


def setup(name: str, seed: int, ledger_ops: int):
    """Imports, input preparation and warm-up ops; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, ledger_ops)
    workload.warmup()
    return workload, time.perf_counter() - start


def setup_in_fresh_interpreter(name: str, seed: int) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1])


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(load_at_start: float) -> dict:
    numpy = sys.modules.get("numpy")
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
        "cpu_count": os.cpu_count(),
        "loadavg_1m_at_start": load_at_start,
        "src_cohdet_lines": sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "cohdet").glob("*.py"))),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def end_to_end(workload, phase: Phase, setup_times: list) -> dict:
    ms = [d * 1e3 for d in phase.durations]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_s": (phase.throughput, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024.0, "MB"),
    }


def per_layer(workload, tracer, plain: Phase, traced: Phase) -> dict:
    import workloads

    out = tracer.metrics(traced.busy)
    calls = tracer.calls
    states = workload.units if workload.unit == "state" else 0
    ensembles = workload.units if workload.unit == "ensemble" else 0
    out["criteria.block_decompose_per_state"] = (
        calls["states.block_decompose"] / states if states else 0.0, "calls/state",
    )
    out["linalg.lambda_min_per_state"] = (calls["linalg.lambda_min"] / states if states else 0.0, "calls/state")
    out["tripartite.validate_per_ensemble"] = (
        calls["states.validate"] / ensembles if ensembles else 0.0, "calls/ensemble",
    )
    for name, samples in (("cli.import_ms", workload.import_s), ("cli.interpreter_ms", workload.interpreter_s)):
        out[name] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    ledger = dict.fromkeys(workloads.LEDGER_METRICS, 0)
    ledger.update(workload.ledger_metrics())
    for name, value in ledger.items():
        out[name] = (value, "count")
    out["ledger.indices"] = (workload.ledger_covered, "count")
    out["trace.untraced_ops_s"] = (plain.throughput, "1/s")
    out["trace.traced_ops_s"] = (traced.throughput, "1/s")
    out["trace.overhead_ops_s"] = (traced.throughput - plain.throughput, "1/s")
    attempted = len(plain.durations) + len(traced.durations)
    out["run.failed_share"] = ((plain.failed + traced.failed) / attempted, "ratio")
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, ledger_ops: int = LEDGER_OPS,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result document (result line plus records)."""
    started = time.monotonic()
    load_at_start = os.getloadavg()[0]
    workload, first_setup = setup(name, seed, ledger_ops)
    setup_times = [first_setup] + [setup_in_fresh_interpreter(name, seed) for _ in range(setup_repeats - 1)]
    env = environment(load_at_start)

    plain = run_phase(workload, seconds, False, started)
    phases = [plain]
    ledger_problems = workload.ledger_problems()
    absent = []
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        workload.tracer = tracer
        if name != "cli-session":  # CLI children install their own (cli_child.py)
            tracer.install()
        try:
            traced = run_phase(workload, seconds, True, started)
        finally:
            tracer.uninstall()
            workload.tracer = None
        phases.append(traced)
        ledger_problems += workload.ledger_problems()
        metrics = per_layer(workload, tracer, plain, traced)
        absent = sorted(tracer.absent)
    else:
        metrics = end_to_end(workload, plain, setup_times)

    attempted = sum(len(p.durations) for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    result = {
        "correct": wrong == 0 and not ledger_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    ms = [d * 1e3 for d in plain.durations]
    p90 = percentile(ms, 90)
    return {
        "result": result,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "setup_samples_s": setup_times,
        "timed_ops": len(ms),
        "samples_above_p90": sum(1 for v in ms if v > p90),
        "failed_share": failed / attempted,
        "failures": [m for p in phases for m in p.messages][:20],
        "ledger_problems": ledger_problems,
        "absent_targets": absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cohdet" / "__init__.py").is_file():
        print(f"error: no cohdet sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        print(setup(args.workload, args.seed, LEDGER_OPS)[1])
        return 0

    try:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for message in doc["failures"] + doc["ledger_problems"]:
        print(f"problem: {message}", file=sys.stderr)
    if doc["absent_targets"]:
        print(f"absent trace targets: {', '.join(doc['absent_targets'])}", file=sys.stderr)
    result = doc["result"]
    print("environment: " + json.dumps(doc["environment"], sort_keys=True))
    print(
        f"{args.workload} seed {args.seed}: {doc['timed_ops']} timed ops "
        f"({doc['samples_above_p90']} above p90), attempted {result['attempted']}, "
        f"failed {result['failed']} (failed_share {doc['failed_share']:.6g}), "
        f"correct {result['correct']}; details in {out_path.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
