"""The three benchmark workloads: inputs, one operation, and its output check.

Every workload is a closed loop with one caller. ``op(k)`` runs the k-th
operation and is the only timed code; ``check(k, result)`` runs untimed
right after it and returns the problems found, each tagged "wrong" (a
result that differs from the reference) or "failed" (an error, a bad exit
code or a traceback).

Seeds: a run with seed s walks the corpus from index s * 10**6 (s taken
modulo 2**32), so seed 0 reproduces the acceptance-test recipes: criterion
6/8 states for audit-generic, criterion 7 ensembles for ensemble-survey.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from cohdet import criteria, linalg, states, tripartite

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
GOLDEN_DIR = BENCH_DIR / "golden"

CHECKS = {
    "qubit-coherence": "qubit_coherence_check",
    "qudit-coherence": "qudit_coherence_check",
    "block-trace": "block_trace_check",
    "block-spectrum": "block_spectrum_check",
    "coherence-bound": "coherence_bound_check",
}
LEDGER_METRICS = (
    [f"criteria.flags.{name}" for name in CHECKS]
    + [f"criteria.ppt_flags.{name}" for name in CHECKS]
    + ["criteria.ppt_states", "tripartite.flags", "tripartite.flags.A"]
)
GENERIC_BASES = {2: 60000, 3: 70000}
# One audit op covers a whole rank cycle (i % 4 and i % 6 repeat every 12).
# Jacobi's data-dependent sweep count makes the cost of a single index
# bimodal, with the median on the boundary; twelve indices average it out.
INDICES_PER_OP = 12
TRIPARTITE_BASE = 130000
ENTANGLED = "Entangled"


def corpus_offset(seed: int) -> int:
    return (seed % 2**32) * 10**6


def child_env() -> dict:
    """Environment for child processes: the checkout's sources first on the path.

    The pinned BLAS thread count is inherited from this process.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """Shared defaults; subclasses define op, check and their ledger."""

    name = ""
    unit = "op"
    import_s = ()
    interpreter_s = ()

    def __init__(self, seed: int, ledger_ops: int):
        self.seed = seed
        self.ledger_ops = ledger_ops
        self.tracer = None
        self.begin_phase()

    def begin_phase(self) -> None:
        self.units = 0
        self.ledger_covered = 0

    def at_boundary(self, k: int) -> bool:
        return True

    def before_op(self, k: int) -> None:
        pass

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def ledger_metrics(self) -> dict:
        return {}

    def ledger_problems(self) -> list:
        return []


class AuditGeneric(Workload):
    """Twelve corpus indices; per index the 2x2 and the 2x3 Ginibre state,
    every applicable detector and ppt_check.

    Dense states put nearly all the work in linalg and criteria. Both dims
    and a full rank cycle share one op so that op latency stays unimodal.
    """

    name = "audit-generic"
    unit = "state"

    def begin_phase(self) -> None:
        super().begin_phase()
        self.ledger = {
            d: {"npt": 0, "ppt": 0, "checks": {name: [0, 0] for name in CHECKS if d == 2 or name != "qubit-coherence"}}
            for d in GENERIC_BASES
        }

    def warmup(self) -> None:
        for k in range(5):
            self.check(k, self.op(k))

    def op(self, k: int):
        first = corpus_offset(self.seed) + k * INDICES_PER_OP
        out = []
        for i in range(first, first + INDICES_PER_OP):
            for d, base in GENERIC_BASES.items():
                state = states.random_density((2, d), rank=i % (2 * d) + 1, seed=base + i)
                reports = {
                    name: getattr(criteria, fn)(state)
                    for name, fn in CHECKS.items()
                    if d == 2 or name != "qubit-coherence"
                }
                out.append((i, d, state, reports, criteria.ppt_check(state)))
        return out

    def check(self, k: int, result) -> list:
        problems = []
        for i, d, state, reports, ppt in result:
            in_ledger = i - corpus_offset(self.seed) < self.ledger_ops
            where = f"2x{d} seed {GENERIC_BASES[d] + i}"
            self.units += 1
            expected = reference.ginibre(GENERIC_BASES[d] + i, 2 * d, i % (2 * d) + 1)
            if float(np.max(np.abs(state.matrix - expected))) > reference.STATE_TOL:
                problems.append(("wrong", f"{where}: generated state differs from the reference"))
            ref = reference.bipartite(expected)
            if set(reports) != set(ref["sides"]):
                problems.append(("wrong", f"{where}: checks {sorted(reports)}"))
                continue
            for name, (lhs, rhs) in ref["sides"].items():
                rep = reports[name]
                if not reference.close(rep.lhs, lhs, reference.LHS_TOL):
                    problems.append(("wrong", f"{where}: {name} lhs {rep.lhs!r} vs {lhs!r}"))
                if not reference.close(rep.rhs, rhs, reference.RHS_TOL):
                    problems.append(("wrong", f"{where}: {name} rhs {rep.rhs!r} vs {rhs!r}"))
                fired = reference.expect_fired(lhs, rhs)
                if fired is not None and fired != (rep.verdict.value == ENTANGLED):
                    problems.append(("wrong", f"{where}: {name} verdict {rep.verdict.value}"))
            if not reference.close(ppt.min_eigenvalue, ref["ppt_min"], reference.EIG_TOL):
                problems.append(("wrong", f"{where}: PT min eigenvalue {ppt.min_eigenvalue!r} vs {ref['ppt_min']!r}"))
            if abs(ref["ppt_min"] + reference.PPT_TOL) > reference.DEADBAND and ppt.is_ppt != (
                ref["ppt_min"] >= -reference.PPT_TOL
            ):
                problems.append(("wrong", f"{where}: is_ppt {ppt.is_ppt}"))
            if ppt.is_ppt and reports["block-trace"].verdict.value == ENTANGLED:
                problems.append(("wrong", f"{where}: block-trace flagged a PPT state"))
            if in_ledger:
                tally = self.ledger[d]
                tally["ppt" if ppt.is_ppt else "npt"] += 1
                for name, rep in reports.items():
                    if rep.verdict.value == ENTANGLED:
                        tally["checks"][name][1 if ppt.is_ppt else 0] += 1
                if d == 2:
                    self.ledger_covered += 1
        return problems

    def ledger_metrics(self) -> dict:
        out = {}
        for name in CHECKS:
            tallies = [t["checks"][name] for t in self.ledger.values() if name in t["checks"]]
            out[f"criteria.flags.{name}"] = sum(a + b for a, b in tallies)
            out[f"criteria.ppt_flags.{name}"] = sum(b for _, b in tallies)
        out["criteria.ppt_states"] = sum(t["ppt"] for t in self.ledger.values())
        return out

    def ledger_problems(self) -> list:
        """At seed 0 over the first 5000 indices the ledger must equal the committed rate report."""
        golden = json.loads((GOLDEN_DIR / "ledger.json").read_text())[self.name]
        if self.seed != 0 or self.ledger_ops != golden["ops"] or self.ledger_covered < golden["ops"]:
            return []
        problems = []
        for d, tally in self.ledger.items():
            want = golden[f"2x{d}"]
            got = {"npt": tally["npt"], "ppt": tally["ppt"], "checks": tally["checks"]}
            if got != want:
                problems.append(f"2x{d} ledger {got} differs from the rate report {want}")
        return problems


class EnsembleSurvey(Workload):
    """Criterion 7 product-term three-qubit ensemble, surveyed over all bipartitions.

    The same kernel as audit-generic used differently: ensemble construction
    re-validates every term and the mixture per bipartition, partial traces
    and permutations run on every term, and Jacobi sees only 2x2 blocks.
    """

    name = "ensemble-survey"
    unit = "ensemble"

    def begin_phase(self) -> None:
        super().begin_phase()
        self.flags = {label: 0 for label in reference.LABELS}

    def warmup(self) -> None:
        for k in range(20):
            self.check(k, self.op(k))

    def op(self, k: int):
        i = corpus_offset(self.seed) + k
        terms = i % 3 + 1
        rng = np.random.Generator(np.random.PCG64(TRIPARTITE_BASE + i))
        weights = -np.log1p(-rng.random(terms))
        weights /= weights.sum()
        built = []
        for j in range(terms):
            factors = [
                states.random_density(
                    2, rank=1 + int(rng.integers(0, 2)), seed=int(rng.integers(2**31))
                ).matrix
                for _ in range(3)
            ]
            matrix = linalg.tensor_product(linalg.tensor_product(factors[0], factors[1]), factors[2])
            built.append((float(weights[j]), states.DensityMatrix(matrix, (2, 2, 2))))
        ens = tripartite.TripartiteEnsemble(dims=(2, 2, 2), terms=tuple(built), singled_out="A")
        return ens, tripartite.all_bipartitions_check(ens)

    def check(self, k: int, result) -> list:
        i = corpus_offset(self.seed) + k
        where = f"ensemble seed {TRIPARTITE_BASE + i}"
        ens, survey = result
        self.units += 1
        weights, matrices = reference.product_ensemble(TRIPARTITE_BASE + i, i % 3 + 1)
        problems = []
        if len(ens.terms) != len(weights) or any(
            not reference.close(w, rw, reference.STATE_TOL)
            or float(np.max(np.abs(s.matrix - rm))) > reference.STATE_TOL
            for (w, s), rw, rm in zip(ens.terms, weights, matrices)
        ):
            problems.append(("wrong", f"{where}: generated terms differ from the reference"))
        labels = [r.singled_out for r in survey.reports]
        if labels != list(reference.LABELS) or survey.skipped:
            return problems + [("wrong", f"{where}: surveyed {labels}, skipped {survey.skipped}")]
        for rep in survey.reports:
            ref = reference.ensemble_bound(weights, matrices, rep.singled_out)
            tag = f"{where} [{rep.singled_out}]"
            if not reference.close(rep.lhs, ref["lhs"], reference.LHS_TOL):
                problems.append(("wrong", f"{tag}: lhs {rep.lhs!r} vs {ref['lhs']!r}"))
            if not reference.close(rep.rhs, ref["rhs"], reference.RHS_TOL):
                problems.append(("wrong", f"{tag}: rhs {rep.rhs!r} vs {ref['rhs']!r}"))
            for term, (lam_p, lam_r) in zip(rep.terms, ref["lambdas"]):
                if not (
                    reference.close(term.lambda_min_p, lam_p, reference.EIG_TOL)
                    and reference.close(term.lambda_min_r, lam_r, reference.EIG_TOL)
                ):
                    problems.append(("wrong", f"{tag}: pair-block lambda_min differs"))
            fired = reference.expect_fired(ref["lhs"], ref["rhs"])
            if fired is not None and fired != (rep.verdict.value == ENTANGLED):
                problems.append(("wrong", f"{tag}: verdict {rep.verdict.value}"))
            if k < self.ledger_ops and rep.verdict.value == ENTANGLED:
                self.flags[rep.singled_out] += 1
        if k < self.ledger_ops:
            self.ledger_covered += 1
        return problems

    def ledger_metrics(self) -> dict:
        return {"tripartite.flags": sum(self.flags.values()), "tripartite.flags.A": self.flags["A"]}

    def ledger_problems(self) -> list:
        """At seed 0 over the first 5000 ensembles the flags must equal the recorded ledger."""
        golden = json.loads((GOLDEN_DIR / "ledger.json").read_text())[self.name]
        if self.seed != 0 or self.ledger_ops != golden["ops"] or self.ledger_covered < golden["ops"]:
            return []
        if self.flags != golden["flags"]:
            return [f"ensemble flags {self.flags} differ from the recorded ledger {golden['flags']}"]
        return []


# ---------------------------------------------------------------------------
# cli-session

INPUTS = BENCH_DIR.relative_to(ROOT) / "inputs"
STATE_FIXTURES = ("bell_pair", "maximally_mixed_2x2", "xstate22_balanced", "xstate24_a1")
# flagmix has an indefinite qubit factor, so only its own singled-out choice
# has a defined bound; --all-bipartitions on it ends in exit 2 by design.
ENSEMBLE_FIXTURES = (("bellmix_p05", "text", True), ("puremix_p05", "json", True), ("flagmix_p05", "text", False))
RANDOM_SEEDS = (11, 12, 13, 14)
SCANS_PER_CYCLE = 4
# The non-object ensemble term still escapes as an uncaught TypeError (exit 1).
# It runs in every cycle on purpose, so the known defect shows in every run.
CRASH_CASE = "malformed:term_not_object"
ROTATING_MALFORMED = (
    "malformed:not_json",
    "malformed:missing_matrix",
    "malformed:top_level_list",
    "malformed:not_hermitian",
    "malformed:bad_weights",
)
RANDOM_OUT = ".bench_work/random.json"
SCAN_OUT = ".bench_work/scan.csv"


def cli_cases() -> dict:
    """Case id -> CLI arguments, paths relative to the checkout root."""
    cases = {}
    for name in STATE_FIXTURES:
        path = str(INPUTS / f"{name}.json")
        cases[f"analyze-text:{name}"] = ["analyze", "--state", path]
        cases[f"analyze-json:{name}"] = ["analyze", "--state", path, "--format", "json"]
    for name, fmt, every in ENSEMBLE_FIXTURES:
        cases[f"ensemble-{fmt}:{name}"] = [
            "ensemble", "--file", str(INPUTS / f"{name}.json"), "--format", fmt,
        ] + (["--all-bipartitions"] if every else [])
    for seed in RANDOM_SEEDS:
        cases[f"random:{seed}"] = [
            "random", "--kind", "separable", "--dims", "2x3", "--terms", "2",
            "--seed", str(seed), "--out", RANDOM_OUT,
        ]
    cases["scan:xstate24"] = [
        "scan", "--family", "xstate24", "--param", "a", "--range", "0:1:0.001",
        "--criteria", "all", "--out", SCAN_OUT,
    ]
    for case in (CRASH_CASE,) + ROTATING_MALFORMED:
        name = case.split(":", 1)[1]
        path = str(INPUTS / "malformed" / f"{name}.json")
        if name in ("term_not_object", "bad_weights"):
            cases[case] = ["ensemble", "--file", path, "--all-bipartitions"]
        else:
            cases[case] = ["analyze", "--state", path]
    return cases


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliSession(Workload):
    """A fixed cycle of fresh ``python -m cohdet.cli`` processes.

    Interpreter start and imports dominate every small command, so this
    workload moves with import, parse and render changes; the four 1001-point
    scans per cycle (a fifth of the ops) carry op_ms_p90 and the kernel cost.
    A run always ends on a cycle boundary so the command mix is fixed.
    """

    name = "cli-session"
    unit = "process"

    def __init__(self, seed: int, ledger_ops: int):
        self.cases = cli_cases()
        golden_path = GOLDEN_DIR / "cli.json"
        self.golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
        self.env = child_env()
        WORK_DIR.mkdir(exist_ok=True)
        self.child_rss_kb = 0
        self.import_s = []
        self.interpreter_s = []
        super().__init__(seed, 0)
        self.length = len(self.cycle(0))

    def cycle(self, c: int) -> list:
        ids = [f"analyze-text:{n}" for n in STATE_FIXTURES]
        ids += [f"analyze-json:{n}" for n in STATE_FIXTURES]
        ids += [f"ensemble-{fmt}:{n}" for n, fmt, _ in ENSEMBLE_FIXTURES]
        ids.append(f"random:{RANDOM_SEEDS[(self.seed + c) % len(RANDOM_SEEDS)]}")
        ids.append(CRASH_CASE)
        ids.append(ROTATING_MALFORMED[(self.seed + c) % len(ROTATING_MALFORMED)])
        ids += ["scan:xstate24"] * SCANS_PER_CYCLE
        random.Random(f"{self.seed}/{c}").shuffle(ids)
        return ids

    def begin_phase(self) -> None:
        super().begin_phase()
        self.child_rss_kb = 0
        self._order = []

    def at_boundary(self, k: int) -> bool:
        return k % self.length == 0

    def before_op(self, k: int) -> None:
        if k % self.length == 0:
            self._order = self.cycle(k // self.length)
            if self.tracer is not None:
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, check=True)
                self.interpreter_s.append(time.perf_counter() - start)

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    def warmup(self) -> None:
        for _ in range(2):
            self.check(None, self.run_case("analyze-text:bell_pair"))

    def op(self, k: int):
        return self.run_case(self._order[k % self.length])

    def run_case(self, case: str):
        """Run one CLI process; returns (case, exit code, stdout, stderr)."""
        if self.tracer is None:
            argv = [sys.executable, "-m", "cohdet.cli", *self.cases[case]]
        else:
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(WORK_DIR / "trace.json"), *self.cases[case]]
        with open(WORK_DIR / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return case, proc.returncode, out.decode("utf-8", "replace"), stderr.decode("utf-8", "replace")

    def check(self, k, result) -> list:
        case, code, out, err = result
        self.units += 1
        self._collect_trace()
        problems = []
        if "Traceback" in err:
            problems.append(("failed", f"{case}: traceback: {err.strip().splitlines()[-1]}"))
        if case.startswith("malformed:"):
            if code != 2 or not err.startswith("error:"):
                problems.append(("failed", f"{case}: exit {code}, expected 2 with 'error:'"))
            return problems
        written = [Path(RANDOM_OUT), Path(SCAN_OUT)]
        if code != 0:
            problems.append(("failed", f"{case}: exit {code}"))
        else:
            want = self.golden.get(case)
            if want is None:
                problems.append(("wrong", f"{case}: no golden output recorded"))
            else:
                if out != want["stdout"]:
                    problems.append(("wrong", f"{case}: stdout differs from the golden output"))
                for rel, digest in want["files"].items():
                    path = ROOT / rel
                    if not path.exists() or sha256(path) != digest:
                        problems.append(("wrong", f"{case}: {rel} differs from the golden output"))
        for rel in written:
            (ROOT / rel).unlink(missing_ok=True)
        return problems

    def _collect_trace(self) -> None:
        path = WORK_DIR / "trace.json"
        if self.tracer is None or not path.exists():
            return
        doc = json.loads(path.read_text())
        path.unlink()
        self.import_s.append(doc.pop("import_s"))
        self.tracer.merge(doc)


WORKLOADS = {cls.name: cls for cls in (AuditGeneric, EnsembleSurvey, CliSession)}

