"""Batch front-end tests.

Everything here drives the real entry point through main(argv) and reads
whatever lands on disk or stdout: serialization byte-identity, report
recomputability, sweep row accounting, exit-code discipline, and the
shipped fixtures. File contents are compared as bytes wherever the
writer promises determinism.
"""

import csv
import hashlib
import json
import math
import runpy
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cohdet import linalg
from cohdet.cli import (
    MAX_SCAN_POINTS,
    _parse_range,
    main,
    read_ensemble,
    read_state,
    state_document,
    write_state,
)
from cohdet.coherence import l1_coherence
from cohdet.errors import ParseError, shown
from cohdet.families import family_names
from cohdet.states import random_density

CLI_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden" / "cli.json"
# The benchmark's independent numpy recomputation, run from its source so
# that nothing is written next to it.
REFERENCE = SimpleNamespace(**runpy.run_path(str(CLI_GOLDEN.parents[1] / "reference.py")))

FIXTURE_NAMES = [
    "bell_pair.json",
    "maximally_mixed_2x2.json",
    "xstate22_balanced.json",
    "xstate24_a1.json",
]
ENSEMBLE_FIXTURES = [
    "bellmix_p05.json",
    "puremix_p05.json",
    "flagmix_p05.json",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateFiles:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_round_trip_is_byte_identical(self, fixtures_dir, tmp_path, name):
        source = fixtures_dir / name
        doc = json.loads(source.read_text())
        state = read_state(source)
        out = tmp_path / name
        write_state(state, out, metadata=doc.get("metadata"))
        assert out.read_bytes() == source.read_bytes()

    def test_document_shape(self):
        doc = state_document(random_density((2, 3), seed=4))
        assert list(doc) == ["dims", "matrix"]
        assert doc["dims"] == [2, 3]
        assert all(len(entry) == 2 for row in doc["matrix"] for entry in row)

    def test_read_rejects_malformed_matrix(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2], "matrix": "bogus"}')
        with pytest.raises(ParseError):
            read_state(bad)

    def test_read_rejects_invalid_state(self, tmp_path):
        bad = tmp_path / "unnormalized.json"
        doc = state_document(random_density((2, 2), seed=1))
        doc["matrix"][0][0] = [5.0, 0.0]
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_state(bad)


class TestEnsembleFiles:
    @pytest.mark.parametrize("name", ENSEMBLE_FIXTURES)
    def test_fixtures_load(self, fixtures_dir, name):
        ens = read_ensemble(fixtures_dir / name)
        assert ens.dims == (2, 2, 2)
        assert ens.singled_out == "A"

    def test_kets_expand_to_projectors(self, fixtures_dir):
        ens = read_ensemble(fixtures_dir / "puremix_p05.json")
        for _, term in ens.terms:
            m = term.matrix
            np.testing.assert_allclose(m @ m, m, atol=1e-12)

    def test_unnormalized_ket_rejected(self, tmp_path):
        doc = {
            "dims": [2, 2, 2],
            "singled_out": "A",
            "terms": [{"weight": 1.0, "ket": [[1.0, 0.0]] + [[0.0, 0.0]] * 6 + [[0.5, 0.0]]}],
        }
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_ensemble(path)

    def test_psd_waiver_comes_from_the_file(self, fixtures_dir):
        ens = read_ensemble(fixtures_dir / "flagmix_p05.json")
        assert not ens.require_psd
        assert np.linalg.eigvalsh(ens.mixture().matrix)[0] < -1e-10

    @pytest.mark.parametrize("waiver", [[], 0, 1, "false", "true", None, 0.0, {}])
    def test_psd_waiver_must_be_a_json_boolean(self, fixtures_dir, tmp_path, capsys, waiver):
        doc = json.loads((fixtures_dir / "flagmix_p05.json").read_text())
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({**doc, "require_psd": waiver}))
        code, out, err = run(capsys, "ensemble", "--file", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: require_psd must be true or false, got {waiver!r}\n"

    @pytest.mark.parametrize("waiver", [True, False])
    def test_psd_waiver_booleans_are_honoured(self, fixtures_dir, tmp_path, capsys, waiver):
        doc = json.loads((fixtures_dir / "flagmix_p05.json").read_text())
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({**doc, "require_psd": waiver}))
        code, _, err = run(capsys, "ensemble", "--file", str(path))
        if waiver:
            assert code == 2 and err.startswith(f"error: {path}: term 1: not positive semidefinite")
        else:
            assert code == 0 and err == ""


class TestAnalyze:
    def test_bell_pair_text(self, fixtures_dir, capsys):
        code, out, err = run(
            capsys, "analyze", "--state", str(fixtures_dir / "bell_pair.json"),
            "--criteria", "coherence-bound", "--format", "text",
        )
        assert code == 0
        assert err == ""
        assert "coherence-bound: Entangled  lhs=1 rhs=0 margin=1" in out
        assert "ppt: NPT (entangled)  min_eigenvalue=-0.5" in out

    def test_maximally_mixed_all_criteria_json(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys, "analyze", "--state", str(fixtures_dir / "maximally_mixed_2x2.json"),
            "--criteria", "all", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        names = [entry["criterion"] for entry in doc["criteria"]]
        assert names == [
            "qubit-coherence", "qudit-coherence", "block-trace",
            "block-spectrum", "coherence-bound",
        ]
        assert all(entry["verdict"] != "Entangled" for entry in doc["criteria"])
        assert doc["ppt"]["is_ppt"] is True

    def test_json_reports_recompute(self, fixtures_dir, capsys):
        for name in FIXTURE_NAMES:
            code, out, _ = run(
                capsys, "analyze", "--state", str(fixtures_dir / name),
                "--criteria", "all", "--format", "json",
            )
            assert code == 0
            for entry in json.loads(out)["criteria"]:
                if "unsupported" in entry:
                    continue
                assert entry["margin"] == pytest.approx(
                    entry["lhs"] - entry["rhs"], abs=1e-12
                )
                assert entry["tolerance"] == 1e-10

    def test_x_state_24_frozen_values(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys, "analyze", "--state", str(fixtures_dir / "xstate24_a1.json"),
            "--criteria", "qudit-coherence", "--format", "json",
        )
        assert code == 0
        entry = json.loads(out)["criteria"][0]
        assert entry["lhs"] == pytest.approx(6 / 7, abs=1e-12)
        assert entry["rhs"] == pytest.approx(4 / 49, abs=1e-12)
        assert entry["verdict"] == "Entangled"

    def test_ppt_only_for_small_bipartite_dims(self, fixtures_dir, capsys):
        _, out, _ = run(
            capsys, "analyze", "--state", str(fixtures_dir / "xstate24_a1.json"),
            "--criteria", "block-trace", "--format", "json",
        )
        assert "ppt" not in json.loads(out)

    def test_unsupported_reported_inline(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys, "analyze", "--state", str(fixtures_dir / "xstate24_a1.json"),
            "--criteria", "qubit-coherence,ensemble-bound", "--format", "json",
        )
        assert code == 0
        entries = {e["criterion"]: e for e in json.loads(out)["criteria"]}
        assert "two-qubit" in entries["qubit-coherence"]["unsupported"]
        assert "ensemble" in entries["ensemble-bound"]["unsupported"]

    def test_balanced_x_state_is_ppt_yet_flagged(self, fixtures_dir, capsys):
        # The shipped counterexample fixture: a PPT (hence separable) 2x2
        # X state that the qubit-coherence detector still fires on.
        code, out, _ = run(
            capsys, "analyze", "--state", str(fixtures_dir / "xstate22_balanced.json"),
            "--criteria", "qubit-coherence", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ppt"]["is_ppt"] is True
        assert doc["criteria"][0]["verdict"] == "Entangled"

    def test_error_exit_codes(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "--state", "/nonexistent.json",
                           "--criteria", "all")
        assert code == 2
        assert err.startswith("error:")
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": [2, 2], "matrix": "bogus"}')
        code, _, err = run(capsys, "analyze", "--state", str(bad), "--criteria", "all")
        assert code == 2
        code, _, err = run(capsys, "analyze", "--state", str(bad),
                           "--criteria", "no-such-check")
        assert code == 2

    def test_entries_near_the_float_limit_name_the_violation(self, tmp_path, capsys):
        # The Hermitian part is halved before it is summed, so 1e308 + 1e308 never overflows.
        path = tmp_path / "big.json"
        matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        matrix[0][3] = matrix[3][0] = [1e308, 0.0]
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not positive semidefinite: min eigenvalue -1.000e+308\n"

    def test_a_deviation_past_the_float_range_is_refused_without_a_warning(self, tmp_path, capsys):
        # m - m^H overflows to inf; that is refused, with no numpy warning printed first
        path = tmp_path / "skew.json"
        matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        matrix[0][1], matrix[1][0] = [1e308, 0.0], [-1e308, 0.0]
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not Hermitian: max |m - m^H| entry is inf\n"

    @pytest.mark.parametrize(
        "dims",
        [4, [2, None], [2, float("inf")], [2.5, 2], [True, 2], [2, 1e300], [2, 4097], [64, 128]],
    )
    def test_malformed_dims_exit_two(self, tmp_path, capsys, dims):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": dims, "matrix": [[[1.0, 0.0]]]}))
        code, _, err = run(capsys, "analyze", "--state", str(path))
        assert code == 2
        assert err.startswith("error:") and "dims must be a list of integers" in err

    def test_verdicts_never_affect_exit_code(self, fixtures_dir, capsys):
        code, _, _ = run(
            capsys, "analyze", "--state", str(fixtures_dir / "bell_pair.json"),
            "--criteria", "all",
        )
        assert code == 0


class TestEnsembleCommand:
    def test_bell_mixture_text(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys, "ensemble", "--file", str(fixtures_dir / "bellmix_p05.json"),
            "--format", "text",
        )
        assert code == 0
        assert "ensemble-bound[A|BC]: Entangled  lhs=1 rhs=0 margin=1" in out

    def test_two_ket_mixture_frozen_values(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys, "ensemble", "--file", str(fixtures_dir / "puremix_p05.json"),
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["lhs"] == pytest.approx(6 * (1 + math.sqrt(2)) / 5, abs=1e-10)
        expected_rhs = (10 + 14 * math.sqrt(2)) / 25 + (28 - 14 * math.sqrt(2)) / 50
        assert report["rhs"] == pytest.approx(expected_rhs, abs=1e-9)
        assert report["verdict"] == "Entangled"
        recomputed = sum(t["summand"] for t in report["terms"])
        assert report["rhs"] == pytest.approx(recomputed, abs=1e-12)

    def test_equality_case_is_inconclusive(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys, "ensemble", "--file", str(fixtures_dir / "flagmix_p05.json"),
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["lhs"] == pytest.approx(1.0, abs=1e-10)
        assert report["rhs"] == pytest.approx(1.0, abs=1e-10)
        assert report["verdict"] == "Inconclusive"

    def test_all_bipartitions(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys, "ensemble", "--file", str(fixtures_dir / "bellmix_p05.json"),
            "--all-bipartitions", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["singled_out"] for r in doc["reports"]] == ["A", "B", "C"]
        assert doc["skipped"] == []

    @pytest.mark.parametrize("case, flags", [
        ("ensemble-text:bellmix_p05", ["--all-bipartitions"]),
        ("ensemble-json:puremix_p05", ["--all-bipartitions"]),
        ("ensemble-text:flagmix_p05", []),
        # the state fixtures' analyze output, in both formats
        *((f"analyze-{fmt}:{name.removesuffix('.json')}", [])
          for fmt in ("text", "json") for name in FIXTURE_NAMES),
    ])
    def test_fixture_output_matches_the_benchmark_golden(self, capsys, monkeypatch, case, flags):
        command, fmt, name = case.replace("-", ":", 1).split(":")
        monkeypatch.chdir(CLI_GOLDEN.parents[2])  # the golden prints paths from the root
        source = "--file" if command == "ensemble" else "--state"
        path = f"bench/inputs/{name}.json"
        code, out, _ = run(capsys, command, source, path, "--format", fmt, *flags)
        assert code == 0
        assert out == json.loads(CLI_GOLDEN.read_text())[case]["stdout"]

    def test_flagged_mixture_survey_fails_on_its_indefinite_block(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "flagmix_p05.json")
        code, out, err = run(capsys, "ensemble", "--file", path, "--all-bipartitions")
        assert (code, out) == (2, "")
        assert err == "error: lambda_min of pair block P is -3.090e-01, beyond the -1e-10 window\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"dims": [2, 2, 2], "terms": [3]}, "term 1 must be an object"),
            ({"dims": [2, 2, 2], "terms": 3}, "terms must be a list"),
            ({"dims": 3, "terms": []}, "dims must be a list of integers"),
            ({"dims": [2, 2, 2], "terms": [{"weight": None}]}, "weight must be a number"),
            ({"dims": [2, 2, float("inf")], "terms": []}, "dims must be a list of integers"),
            ({"dims": [2, 2, 2.5], "terms": []}, "dims must be a list of integers"),
        ],
    )
    def test_malformed_structure_exit_two(self, tmp_path, capsys, doc, message):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ensemble", "--file", str(path), "--all-bipartitions")
        assert code == 2
        assert err.startswith("error:") and message in err

    def test_bad_weights_exit_two(self, tmp_path, capsys):
        ket0 = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
        doc = {
            "dims": [2, 2, 2],
            "singled_out": "A",
            "terms": [{"weight": 0.6, "ket": ket0}],
        }
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "ensemble", "--file", str(path))
        assert code == 2
        assert "sum" in err

    def test_a_non_hermitian_term_is_named(self, tmp_path, capsys):
        ket0 = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
        state = [[[1.0 if i == j == 0 else 0.0, 0.0] for j in range(8)] for i in range(8)]
        state[0][1] = [0.5, 0.0]
        terms = [{"weight": 0.5, "ket": ket0}, {"weight": 0.5, "state": state}]
        doc = {"dims": [2, 2, 2], "terms": terms}
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ensemble", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: term 2: not Hermitian: max |m - m^H| entry is 5.000e-01\n"

    def test_a_failed_pair_block_solve_exits_two(self, tmp_path, capsys, monkeypatch):
        # singling out A of a 2x2x3 ensemble leaves 3x3 pair blocks, solved by LAPACK
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg, "lambda_min", failing)
        ket = [[1.0, 0.0]] + [[0.0, 0.0]] * 11
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"dims": [2, 2, 3], "terms": [{"weight": 1.0, "ket": ket}]}))
        code, out, err = run(capsys, "ensemble", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: Eigenvalues did not converge\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            # |000><001|: the BC pair's P block has eigenvalue -1e308
            ((0, 1), "lambda_min of pair block P is -1.000e+308, beyond the -1e-10 window"),
            # |000><111|: every pair is finite, but the mixture's coherence overflows
            ((0, 7), "lhs - rhs is not finite: lhs inf, rhs 0.5; overflowed arithmetic has no verdict"),
        ],
        ids=["pair-block", "coherence"],
    )
    @pytest.mark.parametrize("survey", [(), ("--all-bipartitions",)], ids=["single", "all"])
    def test_overflowed_arithmetic_gets_no_verdict(self, tmp_path, capsys, entry, message, survey):
        matrix = [[[0.125 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]
        i, j = entry
        matrix[i][j] = matrix[j][i] = [1e308, 0.0]
        path = tmp_path / "ens.json"
        document = {"dims": [2, 2, 2], "require_psd": False, "terms": [{"weight": 1.0, "state": matrix}]}
        path.write_text(json.dumps(document))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "ensemble", "--file", str(path), *survey)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestScan:
    def test_row_count_and_flip_location(self, tmp_path, capsys):
        out_csv = tmp_path / "slice.csv"
        code, out, _ = run(
            capsys, "scan", "--family", "xstate22-slice", "--param", "c",
            "--range", "0:0.25:0.005", "--criteria", "qubit-coherence",
            "--out", str(out_csv),
        )
        assert code == 0
        assert "51 points x 1 criteria" in out
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 51
        flips = [
            float(row["param"]) for row in rows if row["verdict"] == "Entangled"
        ]
        assert flips
        # Detection turns on at the first grid point past c = 1/16.
        assert min(flips) == pytest.approx(0.065, abs=1e-12)

    def test_rows_cover_full_criteria_grid(self, tmp_path, capsys):
        out_csv = tmp_path / "bm.csv"
        code, out, _ = run(
            capsys, "scan", "--family", "bellmix", "--param", "p",
            "--range", "0:1:0.25", "--criteria", "all", "--out", str(out_csv),
        )
        assert code == 0
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5 * 6
        by_criterion = {}
        for row in rows:
            by_criterion.setdefault(row["criterion"], []).append(row)
        assert all(len(group) == 5 for group in by_criterion.values())
        for row in by_criterion["qubit-coherence"]:
            assert row["verdict"] == "Unsupported"
            assert row["lhs"] == "nan"
        for row in by_criterion["ensemble-bound"]:
            assert row["verdict"] == "Entangled"
            assert row["lhs"] == "1"

    def test_values_printed_with_twelve_significant_digits(self, tmp_path, capsys):
        out_csv = tmp_path / "x24.csv"
        code, _, _ = run(
            capsys, "scan", "--family", "xstate24", "--param", "a",
            "--range", "0.5:0.5:1", "--criteria", "qudit-coherence",
            "--out", str(out_csv),
        )
        assert code == 0
        with out_csv.open() as handle:
            row = next(csv.DictReader(handle))
        assert row["lhs"] == "0.75"
        assert row["rhs"] == "0.0625"

    def test_grid_endpoint_snaps_to_stop(self, tmp_path, capsys):
        out_csv = tmp_path / "snap.csv"
        code, out, _ = run(
            capsys, "scan", "--family", "xstate24", "--param", "a",
            "--range", "0:1:0.1", "--criteria", "block-trace", "--out", str(out_csv),
        )
        assert code == 0
        assert "11 points" in out
        with out_csv.open() as handle:
            params = [row["param"] for row in csv.DictReader(handle)]
        assert params[0] == "0"
        assert params[-1] == "1"

    def test_range_errors(self, tmp_path, capsys):
        base = ["scan", "--family", "xstate24", "--param", "a",
                "--criteria", "all", "--out", str(tmp_path / "never.csv")]
        bad_ranges = (
            "0.5:0.1:0.1", "0:1:0", "0:1", "a:b:c",
            "0:inf:1", "-inf:0:1", "0:nan:1", "0:1:inf", "nan:1:0.5",
            # more points than the cap, or a span that overflows to infinity
            "0:1:1e-5", "0:100000:1", "-1e308:1e308:1", "0:1e308:1e-308",
        )
        for bad_range in bad_ranges:
            code, out, err = run(capsys, *base, f"--range={bad_range}")
            assert code == 2, bad_range
            assert err.startswith("error:") and "Traceback" not in err
            assert out == ""
        assert not (tmp_path / "never.csv").exists()

    def test_range_at_the_point_cap(self):
        points = _parse_range(f"0:{MAX_SCAN_POINTS - 1}:1")
        assert len(points) == MAX_SCAN_POINTS and points[-1] == MAX_SCAN_POINTS - 1
        with pytest.raises(ParseError, match=f"more than {MAX_SCAN_POINTS} points"):
            _parse_range(f"0:{MAX_SCAN_POINTS}:1")

    def test_unknown_family_lists_every_family(self, tmp_path, capsys):
        never = tmp_path / "never.csv"
        code, out, err = run(
            capsys, "scan", "--family", "nope", "--param", "p",
            "--range", "0:1:0.5", "--criteria", "all", "--out", str(never),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: unknown family 'nope'")
        assert all(name in err for name in family_names())
        assert not never.exists()

    def test_out_of_family_range(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "scan", "--family", "xstate24", "--param", "a",
            "--range", "0:2:0.5", "--criteria", "all",
            "--out", str(tmp_path / "never.csv"),
        )
        assert code == 2
        assert "must lie in" in err


    def test_xstate24_sweep_matches_the_pinned_digest(self, tmp_path, capsys, monkeypatch):
        golden = json.loads(CLI_GOLDEN.read_text())["scan:xstate24"]
        ((out_name, digest),) = golden["files"].items()
        monkeypatch.chdir(tmp_path)
        Path(out_name).parent.mkdir()
        code, out, _ = run(
            capsys, "scan", "--family", "xstate24", "--param", "a",
            "--range", "0:1:0.001", "--criteria", "all", "--out", out_name,
        )
        assert code == 0
        assert out == golden["stdout"]
        assert hashlib.sha256(Path(out_name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("family, param, grid, message", [
        ("xstate24", "a", "0:2:0.5", "xstate24.a must lie in [0.0, 1.0], got 1.5"),
        ("xstate22", "c", "0:0.5:0.1",
         "positivity needs c^2 <= b*d, got c=0.30000000000000004, b*d=0.0625"),
        # c = 0.3 breaks positivity before c = 0.6 leaves the declared range.
        ("xstate22", "c", "0:0.6:0.1",
         "positivity needs c^2 <= b*d, got c=0.30000000000000004, b*d=0.0625"),
        ("xstate22", "a", "0.5:1.5:0.1", "diagonal weights a+b+d = 1.1 exceed 1"),
        ("bellmix", "p", "0:2:0.5", "bellmix.p must lie in [0.0, 1.0], got 1.5"),
    ])
    def test_failed_scan_writes_no_file(self, tmp_path, capsys, family, param, grid, message):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(
            capsys, "scan", "--family", family, "--param", param,
            "--range", grid, "--criteria", "all", "--out", str(out_csv),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_csv.exists()


class TestGgm:
    def test_dim_three_counts(self, tmp_path, capsys):
        out_json = tmp_path / "g3.json"
        code, out, _ = run(capsys, "ggm", "--dim", "3", "--out", str(out_json))
        assert code == 0
        assert "counts 3/3/2" in out
        doc = json.loads(out_json.read_text())
        assert len(doc["symmetric"]) == 3
        assert len(doc["antisymmetric"]) == 3
        assert len(doc["diagonal"]) == 2
        assert doc["dim"] == 3

    def test_entries_reconstruct_pauli_x(self, tmp_path, capsys):
        out_json = tmp_path / "g2.json"
        run(capsys, "ggm", "--dim", "2", "--out", str(out_json))
        doc = json.loads(out_json.read_text())
        sym = doc["symmetric"][0]
        assert (sym["j"], sym["k"]) == (1, 2)
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in sym["matrix"]]
        )
        assert np.array_equal(matrix, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_coefficient_mode_recorded(self, tmp_path, capsys):
        out_json = tmp_path / "g4.json"
        code, _, _ = run(
            capsys, "ggm", "--dim", "4", "--coefficient", "orthonormal",
            "--out", str(out_json),
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["diagonal_coefficient"] == "orthonormal"

    def test_bad_dimension(self, tmp_path, capsys):
        code, _, err = run(capsys, "ggm", "--dim", "1",
                           "--out", str(tmp_path / "never.json"))
        assert code == 2
        assert "dim" in err

    def test_unknown_coefficient_writes_no_file(self, tmp_path, capsys):
        never = tmp_path / "never.json"
        code, out, err = run(capsys, "ggm", "--dim", "3", "--coefficient", "nope",
                             "--out", str(never))
        assert code == 2 and out == ""
        assert err.startswith("error: diagonal_coefficient must be one of")
        assert "'nope'" in err
        assert not never.exists()

    @pytest.mark.parametrize("dim", ["33", "1000000"])
    def test_dimension_above_the_cap_writes_no_file(self, tmp_path, capsys, dim):
        never = tmp_path / "never.json"
        code, _, err = run(capsys, "ggm", "--dim", dim, "--out", str(never))
        assert code == 2
        assert err.startswith("error: basis needs dimension in 2..32")
        assert "Traceback" not in err
        assert not never.exists()


class TestRandom:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "random", "--kind", "generic", "--dims", "2x3",
                "--seed", "11", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_round_trips_through_analyze(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        run(capsys, "random", "--kind", "generic", "--dims", "2x2",
            "--seed", "3", "--out", str(path))
        code, out, _ = run(capsys, "analyze", "--state", str(path),
                           "--criteria", "all", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["criteria"]) == 5

    def test_pure_kind_is_rank_one(self, tmp_path, capsys):
        path = tmp_path / "pure.json"
        code, _, _ = run(capsys, "random", "--kind", "pure", "--dims", "2x2",
                         "--seed", "1", "--out", str(path))
        assert code == 0
        state = read_state(path)
        m = state.matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-10)
        doc = json.loads(path.read_text())
        assert doc["metadata"]["kind"] == "pure"
        assert doc["metadata"]["seed"] == 1

    def test_golden_generic_file_still_reproduced(self, tmp_path, capsys):
        golden = Path(__file__).resolve().parent / "data"
        golden_file = golden / "random_density_dim4_rank4_seed42.json"
        fresh = tmp_path / "fresh.json"
        code, _, _ = run(capsys, "random", "--kind", "generic", "--dims", "4",
                         "--seed", "42", "--out", str(fresh))
        assert code == 0
        assert fresh.read_bytes() == golden_file.read_bytes()

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_separable_output_matches_the_benchmark_golden(
        self, tmp_path, capsys, monkeypatch, seed
    ):
        golden = json.loads(CLI_GOLDEN.read_text())[f"random:{seed}"]
        ((out_name, digest),) = golden["files"].items()
        monkeypatch.chdir(tmp_path)
        Path(out_name).parent.mkdir()
        code, out, _ = run(
            capsys, "random", "--kind", "separable", "--dims", "2x3", "--terms", "2",
            "--seed", str(seed), "--out", out_name,
        )
        assert code == 0
        assert out == golden["stdout"]
        assert hashlib.sha256(Path(out_name).read_bytes()).hexdigest() == digest

    def test_separable_seed7_characterization(self, tmp_path, capsys):
        # The construction guarantees PPT; the three unsound detectors
        # still fire on this very seed, and the sound one stays quiet.
        path = tmp_path / "sep.json"
        run(capsys, "random", "--kind", "separable", "--dims", "2x3",
            "--seed", "7", "--out", str(path))
        code, out, _ = run(capsys, "analyze", "--state", str(path),
                           "--criteria", "all", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ppt"]["is_ppt"] is True
        verdicts = {e["criterion"]: e.get("verdict") for e in doc["criteria"]}
        assert verdicts["block-trace"] == "Inconclusive"
        assert verdicts["qudit-coherence"] == "Entangled"
        assert verdicts["block-spectrum"] == "Entangled"
        assert verdicts["coherence-bound"] == "Entangled"

    def test_separable_respects_terms_flag(self, tmp_path, capsys):
        path = tmp_path / "sep3.json"
        code, _, _ = run(capsys, "random", "--kind", "separable", "--dims", "2x2",
                         "--seed", "5", "--terms", "3", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["metadata"]["terms"] == 3

    def test_argument_errors(self, tmp_path, capsys):
        never = str(tmp_path / "never.json")
        code, _, _ = run(capsys, "random", "--kind", "pure", "--dims", "2x2",
                         "--seed", "1", "--rank", "2", "--out", never)
        assert code == 2
        code, _, _ = run(capsys, "random", "--kind", "generic", "--dims", "2x",
                         "--seed", "1", "--out", never)
        assert code == 2
        code, _, _ = run(capsys, "random", "--kind", "generic", "--dims", "2x3",
                         "--seed", "1", "--out", "/no/such/dir/x.json")
        assert code == 2
        # far above the cap, so a missing check fails at once on the allocation
        code, _, err = run(capsys, "random", "--kind", "generic", "--dims", "3000x3000",
                           "--seed", "1", "--out", never)
        assert code == 2
        assert err.startswith("error: --dims: dims must be a list of integers in 1..4096")
        assert not Path(never).exists()
        # 10**12 terms would ask for a 7 TiB weight vector before the first draw
        for terms in ("4097", str(10**12)):
            code, _, err = run(capsys, "random", "--kind", "separable", "--dims", "2x2",
                               "--terms", terms, "--seed", "1", "--out", never)
            assert code == 2
            assert err.startswith("error: terms must be in 1..4096")
            assert "Traceback" not in err
            assert not Path(never).exists()

    @pytest.mark.parametrize("kind, flag, value", [
        ("separable", "--rank", "5"),
        ("generic", "--terms", "7"),
        ("pure", "--terms", "1"),
    ])
    def test_a_flag_the_kind_ignores_is_refused(self, tmp_path, capsys, kind, flag, value):
        never = tmp_path / "never.json"
        code, out, err = run(capsys, "random", "--kind", kind, "--dims", "2x2",
                             flag, value, "--out", str(never))
        assert code == 2 and out == ""
        assert err == f"error: --kind {kind} takes no {flag}; drop the {flag} flag\n"
        assert not never.exists()

    def test_separable_without_terms_is_one_term(self, tmp_path, capsys):
        absent, one = tmp_path / "absent.json", tmp_path / "one.json"
        for path, extra in ((absent, ()), (one, ("--terms", "1"))):
            code, _, _ = run(capsys, "random", "--kind", "separable", "--dims", "2x2",
                             "--seed", "4", *extra, "--out", str(path))
            assert code == 0
        assert json.loads(absent.read_text())["metadata"]["terms"] == 1
        assert absent.read_bytes() == one.read_bytes()


class TestParser:
    def test_unknown_subcommand_exits_with_argparse_code(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments_is_an_error(self, capsys):
        assert main([]) == 2


# ---------------------------------------------------------------------------
# malformed-input fuzz: every input below is invalid by construction, so each
# must end in exit 2 with an "error:" line, never in an exception out of main

# JSON reads any integer exactly; 10**400 has no float
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats() | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=3) | JSON_VALUES


def pair_matrix_shaped(value) -> bool:
    """A list of lists of two-entry lists, the one JSON shape a matrix is read from."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(isinstance(e, list) and len(e) == 2 for e in row)
        for row in value
    )


@st.composite
def non_hermitian_matrices(draw):
    """A square matrix of [re, im] pairs of any JSON leaves whose first diagonal
    entry, if it is a number at all, is at least 1e-3 off the real axis."""
    n = draw(st.integers(1, 3))
    pair = st.lists(JSON_LEAVES, min_size=2, max_size=2)
    rows = draw(st.lists(st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n))
    far_imag = st.floats(min_value=1e-3) | st.floats(max_value=-1e-3) | st.just(math.nan)
    rows[0][0] = [draw(JSON_LEAVES), draw(far_imag)]
    return rows


def raw_files_without(key):
    """Bytes that are not JSON, too deep to read, or JSON without ``key`` at the top."""

    def lacks_key(raw) -> bool:
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError):
            return True
        return not (isinstance(doc, dict) and key in doc)

    deep = st.integers(1, 50_000).map(lambda n: b"[" * n + b"]" * n)
    return deep | st.binary(max_size=40).filter(lacks_key)


MATRICES = JSON_VALUES.filter(lambda v: not pair_matrix_shaped(v)) | non_hermitian_matrices()
STATE_DOCS = (
    st.fixed_dictionaries({"dims": DIMS, "matrix": MATRICES}, optional={"metadata": JSON_VALUES})
    | st.dictionaries(st.sampled_from(["dims", "metadata", "terms"]), JSON_VALUES)
    | JSON_VALUES.filter(lambda v: not isinstance(v, dict))
)
TERMS = st.fixed_dictionaries(
    {}, optional={"weight": JSON_LEAVES, "ket": JSON_VALUES, "state": JSON_VALUES}
)


@st.composite
def ensemble_docs(draw):
    """An ensemble document with at least one term sure to fail: a weight and a
    non-Hermitian state, put among arbitrary terms."""
    terms = draw(st.lists(TERMS, max_size=3))
    poisoned = {"weight": draw(JSON_LEAVES), "state": draw(non_hermitian_matrices())}
    terms.insert(draw(st.integers(0, len(terms))), poisoned)
    doc = {"dims": draw(st.just([2, 2, 2]) | DIMS), "terms": terms}
    for key in ("singled_out", "require_psd"):
        if draw(st.booleans()):
            doc[key] = draw(st.sampled_from(["A", "B", "C"]) | JSON_LEAVES)
    return draw(st.just(doc) | st.just({k: v for k, v in doc.items() if k != "terms"}))


def is_number(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


FINITE = st.floats(-1e6, 1e6)
BAD_RANGES = st.one_of(
    st.text(max_size=12).filter(lambda t: t.count(":") != 2),
    st.lists(st.text(max_size=6) | FINITE.map(repr), min_size=3, max_size=3)
    .filter(lambda parts: not all(map(is_number, parts)))
    .map(":".join),
    st.tuples(st.lists(st.floats(), min_size=2, max_size=2), st.integers(0, 2),
              st.sampled_from([math.inf, -math.inf, math.nan]))
    .map(lambda v: ":".join(map(repr, v[0][: v[1]] + [v[2]] + v[0][v[1]:]))),
    st.tuples(FINITE, FINITE, st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    .map(lambda v: ":".join(map(repr, v))),
    st.tuples(FINITE, FINITE, st.floats(1e-6, 1e6))
    .filter(lambda v: v[0] != v[1])
    .map(lambda v: f"{max(v[:2])!r}:{min(v[:2])!r}:{v[2]!r}"),
    # up to twice the point cap, so a missing cap costs time here, not memory
    st.tuples(FINITE, st.floats(1e-6, 1e6), st.floats(MAX_SCAN_POINTS + 1, 2 * MAX_SCAN_POINTS))
    .map(lambda v: f"{v[0]!r}:{v[0] + v[1] * v[2]!r}:{v[1]!r}"),
)

FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# an error line may echo a rejected value, but only in part
ERROR_LINE_LIMIT = 250


def assert_refused(capsys, *argv, source=""):
    """Exit 2 with one short ``error:`` line, which names ``source`` first if given."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2, (argv, captured.out)
    assert captured.err.startswith(f"error: {source}: " if source else "error:"), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert len(captured.err) - len(source) < ERROR_LINE_LIMIT, captured.err


def test_a_long_value_is_echoed_by_its_two_ends():
    assert shown([2, "x"]) == repr([2, "x"])
    assert shown(10**400) == "1" + "0" * 37 + "..." + "0" * 38


def encoded(doc) -> bytes:
    return json.dumps(doc).encode()


KET_ZERO_PAIRS = [[1.0, 0.0]] + [[0.0, 0.0]] * 7


class TestMalformedInputFuzz:
    @FUZZ
    @given(content=STATE_DOCS.map(encoded) | raw_files_without("matrix"))
    @example(content=encoded({"dims": [2, 10**400], "matrix": [[[1.0, 0.0]]]}))
    def test_state_files(self, tmp_path, capsys, content):
        path = tmp_path / "state.json"
        path.write_bytes(content)
        assert_refused(capsys, "analyze", "--state", str(path), source=str(path))

    @FUZZ
    @given(content=ensemble_docs().map(encoded) | raw_files_without("terms"))
    @example(content=encoded({"dims": [2, 2, 2], "terms": [{"weight": 10**400, "ket": KET_ZERO_PAIRS}]}))
    @example(content=encoded({"dims": [2, 2, 2], "terms": ["x" * 5000]}))
    def test_ensemble_files(self, tmp_path, capsys, content):
        path = tmp_path / "ensemble.json"
        path.write_bytes(content)
        assert_refused(capsys, "ensemble", "--file", str(path), "--all-bipartitions", source=str(path))

    @FUZZ
    @given(bad_range=BAD_RANGES)
    def test_scan_ranges(self, tmp_path, capsys, bad_range):
        out = tmp_path / "never.csv"
        assert_refused(capsys, "scan", "--family", "xstate24", "--param", "a",
                       f"--range={bad_range}", "--criteria", "all", "--out", str(out))
        assert not out.exists()


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(d=st.sampled_from([2, 3, 4]), rank=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_analyze_agrees_with_the_benchmark_reference(tmp_path, capsys, d, rank, seed):
    """``analyze --format json`` on a seeded 2xd state, against bench/reference.py.

    Sides within the reference's lhs and rhs tolerances, verdicts wherever
    the reference margin is clear of its dead-band, and the PPT minimum
    within its eigenvalue tolerance (the oracle row exists for 2x2 and 2x3).
    """
    state = random_density((2, d), rank=(rank - 1) % (2 * d) + 1, seed=seed)
    path = tmp_path / "state.json"
    write_state(state, path)
    code, out, _ = run(capsys, "analyze", "--state", str(path), "--format", "json")
    assert code == 0
    document = json.loads(out)
    want = REFERENCE.bipartite(state.matrix)
    entries = {e["criterion"]: e for e in document["criteria"] if "unsupported" not in e}
    assert entries.keys() == want["sides"].keys()
    for name, (lhs, rhs) in want["sides"].items():
        entry = entries[name]
        assert abs(entry["lhs"] - lhs) <= REFERENCE.LHS_TOL, name
        assert abs(entry["rhs"] - rhs) <= REFERENCE.RHS_TOL, name
        fired = REFERENCE.expect_fired(lhs, rhs)
        if fired is not None:
            assert (entry["verdict"] == "Entangled") == fired, name
    if d == 4:
        assert "ppt" not in document
        return
    ppt = document["ppt"]
    assert abs(ppt["min_eigenvalue"] - want["ppt_min"]) <= REFERENCE.EIG_TOL
    if abs(want["ppt_min"] + REFERENCE.PPT_TOL) > REFERENCE.DEADBAND:
        assert ppt["is_ppt"] == (want["ppt_min"] >= -REFERENCE.PPT_TOL)
