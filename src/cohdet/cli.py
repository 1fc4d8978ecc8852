"""Batch command line: analyze states, evaluate ensembles, sweep families.

File formats are JSON throughout except sweep output, which is CSV. Complex
numbers are stored as [re, im] pairs; files written here are byte-stable, so
the same inputs always produce identical output files.

Exit codes signal tool failure only: a state being entangled or not is data,
never an error, so pipelines can tell breakage from inconclusiveness.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

import numpy as np

from . import criteria as crit
from . import states
from .errors import ParseError, shown
from .states import DensityMatrix, validate
from .tolerances import KET_NORM_TOL, MAX_DIMENSION, MAX_SCAN_POINTS, RANGE_SLACK

# tripartite, families and gellmann are imported inside the subcommands that
# use them, so a process loads only what its subcommand runs.

CSV_HEADER = ("param", "criterion", "lhs", "rhs", "margin", "verdict")

BIPARTITE_CHECKS = {
    "qubit-coherence": crit.qubit_coherence_check,
    "qudit-coherence": crit.qudit_coherence_check,
    "block-trace": crit.block_trace_check,
    "block-spectrum": crit.block_spectrum_check,
    "coherence-bound": crit.coherence_bound_check,
}

ALL_CRITERIA = tuple(BIPARTITE_CHECKS) + ("ensemble-bound",)


# ---------------------------------------------------------------------------
# serialization


def _pairs_from_matrix(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _matrix_from_pairs(rows, source) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{source}: matrix entries must be [re, im] pairs: {exc}") from None
    if m.ndim != 2:
        raise ParseError(f"{source}: matrix must be two-dimensional, got shape {m.shape}")
    return m


def _vector_from_pairs(entries, source) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{source}: ket entries must be [re, im] pairs: {exc}") from None


@contextlib.contextmanager
def _named(source):
    """Put ``source`` in front of the message of a ValueError raised inside, keeping its type."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{source}: {exc}",)
        raise


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to read
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _dims_from(raw, source) -> tuple:
    # type(), not isinstance(): a JSON true must not pass as the int 1.
    if isinstance(raw, list) and all(
        type(d) in (int, float) and 1 <= d <= MAX_DIMENSION and float(d).is_integer() for d in raw
    ):
        dims = tuple(int(d) for d in raw)
        if math.prod(dims) <= MAX_DIMENSION:
            return dims
    raise ParseError(
        f"{source}: dims must be a list of integers in 1..{MAX_DIMENSION} with a product "
        f"of at most {MAX_DIMENSION}, got {shown(raw)}"
    )


def state_document(state: DensityMatrix, metadata=None) -> dict:
    doc = {"dims": list(state.dims), "matrix": _pairs_from_matrix(state.matrix)}
    if metadata:
        doc["metadata"] = metadata
    return doc


def write_state(state: DensityMatrix, path, metadata=None) -> None:
    _dump_json(state_document(state, metadata), path)


def read_state(path) -> DensityMatrix:
    doc = _load_json(path)
    for key in ("dims", "matrix"):
        if key not in doc:
            raise ParseError(f"{path}: missing required key {key!r}")
    matrix, dims = _matrix_from_pairs(doc["matrix"], path), _dims_from(doc["dims"], path)
    with _named(path):
        return validate(matrix, dims)


def read_ensemble(path):
    """The validated ``tripartite.TripartiteEnsemble`` an ensemble file describes."""
    from .tripartite import TripartiteEnsemble
    doc = _load_json(path)
    for key in ("dims", "terms"):
        if key not in doc:
            raise ParseError(f"{path}: missing required key {key!r}")
    dims = _dims_from(doc["dims"], path)
    total = math.prod(dims)
    if not isinstance(doc["terms"], list):
        raise ParseError(f"{path}: terms must be a list, got {shown(doc['terms'])}")
    terms = []
    for position, term in enumerate(doc["terms"], start=1):
        source = f"{path}: term {position}"
        if not isinstance(term, dict):
            raise ParseError(f"{source} must be an object, got {shown(term)}")
        if "weight" not in term:
            raise ParseError(f"{source} has no weight")
        try:
            weight = float(term["weight"])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{source} weight must be a number, got {shown(term['weight'])}") from None
        if "ket" in term:
            v = _vector_from_pairs(term["ket"], source)
            if v.shape != (total,):
                raise ParseError(f"{source} ket has {v.shape[0]} amplitudes, dims need {total}")
            norm = float(np.linalg.norm(v))
            if abs(norm - 1.0) > KET_NORM_TOL:
                raise ParseError(f"{source} ket norm is {norm!r}, not 1")
            matrix = np.outer(v, v.conj())
        elif "state" in term:
            matrix = _matrix_from_pairs(term["state"], source)
        else:
            raise ParseError(f"{source} needs either a ket or a state")
        terms.append((weight, matrix))
    require_psd = doc.get("require_psd", True)
    if not isinstance(require_psd, bool):
        raise ParseError(f"{path}: require_psd must be true or false, got {shown(require_psd)}")
    with _named(path):
        return TripartiteEnsemble(dims, tuple(terms), doc.get("singled_out", "A"), require_psd)


# ---------------------------------------------------------------------------
# report rendering


def _report_entry(report) -> dict:
    """A report dataclass as its JSON object: the verdict by value, empty notes left out."""
    entry = {**dataclasses.asdict(report), "verdict": report.verdict.value}
    if entry.get("notes") == ():
        del entry["notes"]
    return entry


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _print_criterion_line(entry: dict) -> None:
    if "unsupported" in entry:
        print(f"{entry['criterion']}: Unsupported ({entry['unsupported']})")
    else:
        print(
            f"{entry['criterion']}: {entry['verdict']}  "
            f"lhs={_fmt(entry['lhs'])} rhs={_fmt(entry['rhs'])} margin={_fmt(entry['margin'])}"
        )


def _unsupported_reason(criterion: str, state: DensityMatrix):
    if criterion == "ensemble-bound":
        return "needs an ensemble file, not a single state"
    if state.dims[0] != 2:
        return "first factor is not a qubit; permute before analyzing"
    if criterion == "qubit-coherence" and state.dim != 4:
        return "needs a two-qubit state"
    return None


# ---------------------------------------------------------------------------
# subcommands


def _parse_criteria(raw: str, all_means=ALL_CRITERIA) -> list:
    if raw == "all":
        return list(all_means)
    requested = [c.strip() for c in raw.split(",") if c.strip()]
    if not requested:
        raise ParseError("criteria list is empty")
    for c in requested:
        if c not in ALL_CRITERIA:
            raise ParseError(f"unknown criterion {shown(c)}; available: {', '.join(ALL_CRITERIA)}")
    return requested


def _cmd_analyze(args) -> int:
    state = read_state(args.state)
    # 'all' on a single state means the state checks; the ensemble criterion
    # can still be requested by name and will report itself unsupported
    requested = _parse_criteria(args.criteria, all_means=tuple(BIPARTITE_CHECKS))
    entries = []
    for name in requested:
        reason = _unsupported_reason(name, state)
        if reason is not None:
            entries.append({"criterion": name, "unsupported": reason})
        else:
            entries.append(_report_entry(BIPARTITE_CHECKS[name](state)))
    document = {"source": args.state, "dims": list(state.dims), "criteria": entries}
    if len(state.dims) == 2 and sorted(state.dims) in ([2, 2], [2, 3]):
        document["ppt"] = dataclasses.asdict(crit.ppt_check(state))
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        dims_label = "x".join(str(d) for d in state.dims)
        print(f"state: {args.state} (dims {dims_label})")
        for entry in entries:
            _print_criterion_line(entry)
        if "ppt" in document:
            ppt = document["ppt"]
            label = "PPT" if ppt["is_ppt"] else "NPT (entangled)"
            print(f"ppt: {label}  min_eigenvalue={_fmt(ppt['min_eigenvalue'])}")
    return 0


def _print_ensemble_text(entry: dict) -> None:
    print(
        f"ensemble-bound[{entry['singled_out']}|{entry['pair']}]: {entry['verdict']}  "
        f"lhs={_fmt(entry['lhs'])} rhs={_fmt(entry['rhs'])} margin={_fmt(entry['margin'])}"
    )
    for position, term in enumerate(entry["terms"], start=1):
        print(
            f"  term {position}: weight={_fmt(term['weight'])} "
            f"coherence_x={_fmt(term['coherence_x'])} summand={_fmt(term['summand'])}"
        )


def _cmd_ensemble(args) -> int:
    from . import tripartite
    ens = read_ensemble(args.file)
    if args.all_bipartitions:
        survey = tripartite.all_bipartitions_check(ens)
    else:
        survey = tripartite.BipartitionSurvey((tripartite.ensemble_bound_check(ens),), ())
    document = {
        "source": args.file,
        "dims": list(ens.dims),
        "reports": [_report_entry(r) for r in survey.reports],
        "skipped": [{"singled_out": label, "reason": reason} for label, reason in survey.skipped],
    }
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    dims_label = "x".join(str(d) for d in ens.dims)
    print(f"ensemble: {args.file} (dims {dims_label})")
    for entry in document["reports"]:
        _print_ensemble_text(entry)
    for skip in document["skipped"]:
        print(f"ensemble-bound[{skip['singled_out']}]: Skipped ({skip['reason']})")
    return 0


def _parse_range(raw: str) -> list:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParseError(f"range must be start:stop:step, got {shown(raw)}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"range parts must be numbers, got {shown(raw)}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ParseError(f"range parts must be finite numbers, got {shown(raw)}")
    if step <= 0:
        raise ParseError(f"range step must be positive, got {step}")
    if stop < start:
        raise ParseError(f"range stop {stop} is below start {start}")
    steps = (stop - start) / step + RANGE_SLACK  # inf if the span overflows
    if not steps < MAX_SCAN_POINTS:
        raise ParseError(f"range {shown(raw)} has more than {MAX_SCAN_POINTS} points")
    count = int(math.floor(steps))
    points = [start + k * step for k in range(count + 1)]
    # snap the final point onto the requested stop when it lands within
    # roundoff, so boundary values stay exactly representable
    if abs(points[-1] - stop) < step * RANGE_SLACK:
        points[-1] = stop
    return points


def _scan_cells(family, param, points, requested) -> dict:
    """Each supported criterion's (lhs, rhs, margin, verdict) at every point of a sweep.

    A state-family grid is built and checked as one stack; if that fails, its
    points rerun one by one to raise what a point-by-point sweep met first.
    """
    from .families import build_family, get_family
    if get_family(family).kind == "ensemble":
        from . import tripartite
        column = []
        for value in points:
            ens = build_family(family, **{param: value})
            if "ensemble-bound" in requested:
                r = tripartite.ensemble_bound_check(ens)
                column.append((r.lhs, r.rhs, r.margin, r.verdict.value))
        return {"ensemble-bound": column}

    def evaluate(grid_points) -> dict:
        grid = build_family(family, **{param: np.array(grid_points)})
        cells = {}
        for name in requested:
            if name in BIPARTITE_CHECKS and not _unsupported_reason(name, grid):
                r = BIPARTITE_CHECKS[name](grid)
                numbers = (r.lhs.tolist(), r.rhs.tolist(), r.margin.tolist())
                cells[name] = list(zip(*numbers, [v.value for v in r.verdict]))
        return cells

    try:
        return evaluate(points)
    except ValueError:
        for value in points:
            evaluate([value])
        raise


def _cmd_scan(args) -> int:
    from .families import get_family
    get_family(args.family).parameter(args.param)  # fail fast on a bad name
    requested = _parse_criteria(args.criteria)
    points = _parse_range(args.range)
    # Nothing is written until every row is known: a failing sweep leaves no file.
    cells = _scan_cells(args.family, args.param, points, requested)
    unsupported = (math.nan, math.nan, math.nan, "Unsupported")
    # No field can hold a comma, a quote or a newline, so no field needs quoting.
    lines = [",".join(CSV_HEADER)]
    for i, value in enumerate(points):
        for name in requested:
            lhs, rhs, margin, verdict = cells[name][i] if name in cells else unsupported
            lines.append(f"{_fmt(value)},{name},{_fmt(lhs)},{_fmt(rhs)},{_fmt(margin)},{verdict}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(points)} points x {len(requested)} criteria)")
    return 0


def _cmd_ggm(args) -> int:
    from . import gellmann
    basis = gellmann.build_basis(args.dim, diagonal_coefficient=args.coefficient)
    document = {
        "dim": basis.dim,
        "diagonal_coefficient": basis.diagonal_coefficient,
        "symmetric": [
            {"j": j, "k": k, "matrix": _pairs_from_matrix(basis.symmetric_at(j, k))}
            for (j, k) in sorted(basis.pair_index)
        ],
        "antisymmetric": [
            {"j": j, "k": k, "matrix": _pairs_from_matrix(basis.antisymmetric_at(j, k))}
            for (j, k) in sorted(basis.pair_index)
        ],
        "diagonal": [
            {"l": l, "matrix": _pairs_from_matrix(basis.diagonal_at(l))}
            for l in range(1, basis.dim)
        ],
    }
    _dump_json(document, args.out)
    counts = f"{len(document['symmetric'])}/{len(document['antisymmetric'])}/{len(document['diagonal'])}"
    print(f"wrote {args.out} (dim {basis.dim}, counts {counts})")
    return 0


def _parse_dims(raw: str) -> tuple:
    try:
        dims = [int(p) for p in raw.lower().split("x")]
    except ValueError:
        raise ParseError(f"dims must look like 2x3 or 2x2x2, got {shown(raw)}") from None
    return _dims_from(dims, "--dims")


def _cmd_random(args) -> int:
    dims = _parse_dims(args.dims)
    metadata = {"kind": args.kind, "seed": args.seed, "scheme": states.RNG_SCHEME}
    ignored = "rank" if args.kind == "separable" else "terms"
    if getattr(args, ignored) is not None:
        raise ParseError(f"--kind {args.kind} takes no --{ignored}; drop the --{ignored} flag")
    if args.kind == "generic":
        state = states.random_density(dims, rank=args.rank, seed=args.seed)
        if args.rank is not None:
            metadata["rank"] = args.rank
    elif args.kind == "pure":
        if args.rank not in (None, 1):
            raise ParseError("pure states are rank 1; drop the --rank flag")
        state = states.random_density(dims, rank=1, seed=args.seed)
        metadata["rank"] = 1
    else:
        terms = 1 if args.terms is None else args.terms
        state = states.random_separable(dims, terms=terms, seed=args.seed)
        metadata["terms"] = terms
    write_state(state, args.out, metadata=metadata)
    print(f"wrote {args.out} (kind {args.kind}, dims {args.dims}, seed {args.seed})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohdet",
        description="Coherence-based entanglement detection for small quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run criteria on a state file")
    analyze.add_argument("--state", required=True, help="path to a state JSON file")
    analyze.add_argument(
        "--criteria",
        default="all",
        help=f"comma-separated list or 'all'; available: {', '.join(ALL_CRITERIA)}",
    )
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(func=_cmd_analyze)

    ensemble = sub.add_parser("ensemble", help="evaluate the ensemble bound on a decomposition")
    ensemble.add_argument("--file", required=True, help="path to an ensemble JSON file")
    ensemble.add_argument(
        "--all-bipartitions",
        action="store_true",
        help="evaluate every admissible singled-out subsystem, not just the file's",
    )
    ensemble.add_argument("--format", choices=("text", "json"), default="text")
    ensemble.set_defaults(func=_cmd_ensemble)

    scan = sub.add_parser("scan", help="sweep a family parameter and write CSV")
    scan.add_argument("--family", required=True, help="built-in family name; an unknown name lists them all")
    scan.add_argument("--param", required=True, help="parameter name to sweep")
    scan.add_argument("--range", required=True, help="start:stop:step, inclusive of both ends")
    scan.add_argument("--criteria", required=True, help="comma-separated list or 'all'")
    scan.add_argument("--out", required=True, help="output CSV path")
    scan.set_defaults(func=_cmd_scan)

    ggm = sub.add_parser("ggm", help="export the operator basis for a dimension")
    ggm.add_argument("--dim", type=int, required=True)
    ggm.add_argument("--coefficient", default="rational", help="diagonal-family normalization")
    ggm.add_argument("--out", required=True, help="output JSON path")
    ggm.set_defaults(func=_cmd_ggm)

    random_cmd = sub.add_parser("random", help="generate a seeded random state file")
    random_cmd.add_argument("--kind", choices=("generic", "pure", "separable"), required=True)
    random_cmd.add_argument("--dims", required=True, help="subsystem dims, e.g. 2x3 or 2x2x2")
    random_cmd.add_argument("--seed", type=int, default=0)
    random_cmd.add_argument("--rank", type=int, default=None, help="rank for generic states")
    random_cmd.add_argument("--terms", type=int, default=None, help="mixture terms for separable (default 1)")
    random_cmd.add_argument("--out", required=True, help="output JSON path")
    random_cmd.set_defaults(func=_cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
