"""Self-test of the benchmark: output schema, and a checker that can fail.

usage: python3 bench/selftest.py

For every workload it runs a few operations untraced and traced and checks
the result against BENCHMARK.json (keys, metric names, units). It then
injects a wrong answer into each workload -- a perturbed lhs, a perturbed
rhs, a changed digit in CLI output -- and asserts that the run reports
failures and correct=false. Finally it runs the benchmark in a directory
that holds only BENCHMARK.json and the benchmark, where it must fail
without printing a result. Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from cohdet import criteria, tripartite  # noqa: E402

SEED = 7
SMOKE = {"seconds": 0.2, "ledger_ops": 10, "setup_repeats": 2}


def check_result(doc: dict, expected_units: dict) -> list:
    result = doc["result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"failed {result['failed']!r}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_units:
        missing = sorted(set(expected_units) - set(units))
        extra = sorted(set(units) - set(expected_units))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
                        f"units {[n for n in units if n in expected_units and units[n] != expected_units[n]]}")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"{name} value {m['value']!r}")
    return problems


def expected_health(name: str, doc: dict) -> list:
    result = doc["result"]
    if not result["correct"]:
        return [f"correct is false: {doc['failures'] + doc['ledger_problems']}"]
    if name == "cli-session":
        # the non-object ensemble term still crashes the CLI in every cycle
        return [] if result["failed"] >= 1 else ["the known malformed-input crash did not show"]
    return [] if result["failed"] == 0 else [f"failures: {doc['failures']}"]


@contextlib.contextmanager
def patched(obj, attr, make):
    original = getattr(obj, attr)
    setattr(obj, attr, make(original))
    try:
        yield
    finally:
        setattr(obj, attr, original)


def shifted(check, field, delta):
    def wrong(arg):
        report = check(arg)
        return dataclasses.replace(report, **{field: getattr(report, field) + delta})
    return wrong


def wrong_answer(name: str):
    """A wrapper that makes the library (or the CLI) return one wrong number."""
    if name == "audit-generic":
        return patched(criteria, "block_trace_check", lambda f: shifted(f, "lhs", 1e-6))
    if name == "ensemble-survey":
        return patched(tripartite, "ensemble_bound_check", lambda f: shifted(f, "rhs", 1e-3))

    def corrupt(run_case):
        def corrupted(self, case):
            case_id, code, out, err = run_case(self, case)
            return case_id, code, out.replace("lhs=1 ", "lhs=1.000001 "), err
        return corrupted

    return patched(workloads.CliSession, "run_case", corrupt)


def bare_directory_fails() -> list:
    """Without src/ next to it the benchmark must exit non-zero and print no result."""
    bare = workloads.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    argv = [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "audit-generic",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        print("FAIL workloads in BENCHMARK.json differ from run.py")
        return 1
    failures = 0
    try:
        for name in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                doc = run.measure(name, SEED, trace=bool(trace), **SMOKE)
                problems = check_result(doc, units[trace]) + expected_health(name, doc)
                failures += bool(problems)
                print(f"{'FAIL' if problems else 'ok  '} {name} trace={trace} schema and health {problems or ''}")
            with wrong_answer(name):
                doc = run.measure(name, SEED, trace=False, **SMOKE)
            caught = doc["failed_share"] > 0 and not doc["result"]["correct"]
            failures += not caught
            print(f"{'ok  ' if caught else 'FAIL'} {name} injected wrong answer: "
                  f"failed_share {doc['failed_share']:.3g}, correct {doc['result']['correct']}")
        problems = bare_directory_fails()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} bare directory exits non-zero without a result {problems or ''}")
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    print("selftest passed" if not failures else f"selftest: {failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
