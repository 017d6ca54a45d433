"""Tests for the command-line front end, reports, and the disk cache."""

from __future__ import annotations

import json
from fractions import Fraction as Q

import numpy as np
import pytest

import wzwkit.affine as affine
import wzwkit.fusion
from wzwkit.affine import cache_path, modular_data
from wzwkit.cli import (
    EXIT_CAP,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    JobConfig,
    cache_roundtrip,
    config_from_args,
    main,
    run,
)
from wzwkit.errors import InternalConsistencyError, PreconditionError


def run_json(argv):
    """Invoke the CLI in-process and parse its JSON report."""
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    return json.loads(buffer.getvalue()), status


class TestJobConfigValidation:
    def test_unknown_construction(self):
        with pytest.raises(PreconditionError):
            JobConfig(construction="plot", algebra="A1", level=1).validate()

    def test_missing_level(self):
        with pytest.raises(PreconditionError):
            JobConfig(construction="check", algebra="A1").validate()

    def test_nonpositive_tolerance(self):
        config = JobConfig(construction="check", algebra="A1", level=1, tolerance=0.0)
        with pytest.raises(PreconditionError):
            config.validate()

    def test_csv_reserved_for_sweeps(self):
        config = JobConfig(construction="check", algebra="A1", level=1, fmt="csv")
        with pytest.raises(PreconditionError):
            config.validate()

    def test_extend_needs_a_group(self):
        with pytest.raises(PreconditionError):
            JobConfig(construction="extend", algebra="A1", level=4).validate()

    def test_conjecture_two_needs_three_insertions(self):
        config = JobConfig(
            construction="trace",
            algebra="A1",
            level=4,
            conjecture=2,
            shift=(Q(1),),
            insertions=(2, 2),
        )
        with pytest.raises(PreconditionError):
            config.validate()

    def test_sweep_needs_an_ordered_range(self):
        config = JobConfig(construction="sweep", algebra="A1", levels=(4, 2))
        with pytest.raises(PreconditionError):
            config.validate()


class TestArgumentParsing:
    def test_trace_flags_round_trip(self):
        config = config_from_args(
            [
                "trace",
                "A1",
                "--level",
                "4",
                "--conjecture",
                "2",
                "--shift",
                "1",
                "--insertions",
                "2,2,2",
            ]
        )
        assert config.construction == "trace"
        assert config.shift == (Q(1),)
        assert config.insertions == (2, 2, 2)
        assert config.fmt == "json"

    def test_sweep_defaults_to_csv(self):
        config = config_from_args(["sweep", "A1", "--levels", "1-3"])
        assert config.fmt == "csv"
        assert config.levels == (1, 3)

    def test_cache_dir_from_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WZWKIT_CACHE_DIR", str(tmp_path))
        config = config_from_args(["modular-data", "A1", "--level", "1"])
        assert config.cache_dir == str(tmp_path)

    def test_explicit_cache_dir_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WZWKIT_CACHE_DIR", "/nonexistent/elsewhere")
        config = config_from_args(
            ["modular-data", "A1", "--level", "1", "--cache-dir", str(tmp_path)]
        )
        assert config.cache_dir == str(tmp_path)

    def test_bad_rational_shift_exits_with_parse_code(self):
        doc, status = run_json(
            ["orbifold", "A1", "--level", "2", "--shift", "half"]
        )
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"

    def test_unknown_subcommand_exits_with_parse_code(self):
        doc, status = run_json(["transmogrify", "A1"])
        assert status == EXIT_PARSE
        assert doc["status"] == "error"


class TestSingleConstructions:
    def test_check_passes_and_reports_residuals(self):
        doc, status = run_json(["check", "A1", "--level", "2"])
        assert status == EXIT_OK
        assert doc["status"] == "ok"
        assert doc["result"]["center_match"] is True
        assert all(value < 1e-8 for value in doc["residuals"].values())
        assert doc["input"]["algebra"] == "A1"
        assert "version" in doc

    def test_modular_data_report_contents(self):
        doc, status = run_json(["modular-data", "A1", "--level", "1"])
        assert status == EXIT_OK
        result = doc["result"]
        assert result["labels"] == [[0], [1]]
        assert result["delta"] == ["0", "1/4"]
        assert result["central_charge"] == "1"
        entry = result["smatrix"][0][0]
        assert entry[0] == pytest.approx(1 / np.sqrt(2))
        assert entry[1] == pytest.approx(0.0)

    def test_extend_reports_the_d_type_invariant(self):
        doc, status = run_json(["extend", "A1", "--level", "4", "--group", "center"])
        assert status == EXIT_OK
        result = doc["result"]
        assert result["dim"] == 3
        assert [cls["rep"] for cls in result["classes"]] == [[0], [2], [2]]
        assert result["delta"] == ["0", "1/3", "1/3"]
        z = result["zmatrix"]
        assert z[2][2] == 2
        assert z[0][4] == 1
        assert z[1][1] == 0

    def test_fusion_lists_integral_coefficients(self):
        doc, status = run_json(["fusion", "A1", "--level", "2"])
        assert status == EXIT_OK
        result = doc["result"]
        assert [1, 1, 0, 1] in result["nonzero"]
        assert [1, 1, 2, 1] in result["nonzero"]
        assert [2] in result["simple_currents"]
        assert doc["residuals"]["fusion_integrality"] < 1e-8

    def test_orbifold_reports_structural_residuals(self):
        doc, status = run_json(["orbifold", "A1", "--level", "2", "--shift", "1"])
        assert status == EXIT_OK
        assert doc["result"]["dim"] == 12
        assert "pmatrix_square_match" in doc["residuals"]
        assert "twining_square_permutation" in doc["residuals"]
        assert all(value < 1e-8 for value in doc["residuals"].values())

    def test_boundary_reports_type_decomposition(self):
        doc, status = run_json(["boundary", "A1", "--level", "4", "--group", "center"])
        assert status == EXIT_OK
        result = doc["result"]
        assert result["dim"] == 4
        parts = {part["type"]: part["members"] for part in result["automorphism_types"]}
        assert parts == {"1": [0, 2, 3], "sigma": [1]}

    def test_trace_conjecture_one(self):
        doc, status = run_json(
            [
                "trace",
                "A1",
                "--level",
                "4",
                "--conjecture",
                "1",
                "--insertions",
                "2,2",
                "--tuple",
                "4,4",
            ]
        )
        assert status == EXIT_OK
        result = doc["result"]
        assert result["rank"] == 1
        assert sum(result["dims"].values()) == 1
        assert "tuple_trace" in result

    def test_trace_conjecture_two(self):
        doc, status = run_json(
            [
                "trace",
                "A1",
                "--level",
                "4",
                "--conjecture",
                "2",
                "--shift",
                "1",
                "--insertions",
                "2,2,2",
            ]
        )
        assert status == EXIT_OK
        result = doc["result"]
        assert result["rank"] == 1
        assert result["dim_plus"] + result["dim_minus"] == result["rank"]

    @pytest.mark.parametrize("construction", ["check", "fusion"])
    def test_verlinde_sum_runs_once_per_job(self, construction, monkeypatch):
        verlinde = wzwkit.fusion._verlinde
        theories = []

        def counted(md):
            theories.append((md.algebra, md.level))
            return verlinde(md)

        monkeypatch.setattr(wzwkit.fusion, "_verlinde", counted)
        _, status = run_json([construction, "A1", "--level", "4"])
        assert status == EXIT_OK
        assert theories == [("A1", 4)]

    def test_one_svd_per_classifying_algebra(self, monkeypatch):
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        _, status = run_json(["boundary", "A1", "--level", "4", "--group", "center"])
        assert status == EXIT_OK
        assert calls == [(4, 4)]

    def test_reports_are_byte_deterministic(self):
        config = JobConfig(construction="check", algebra="A2", level=2)
        first, status_a = run(config)
        second, status_b = run(config)
        assert status_a == status_b == EXIT_OK
        assert first == second


class TestFailureReports:
    def test_cap_exceeded_has_code_and_no_partial_result(self):
        doc, status = run_json(
            ["modular-data", "E8", "--level", "2", "--weyl-cap", "2000"]
        )
        assert status == EXIT_CAP
        assert doc["error"]["code"] == "cap-exceeded"
        assert doc["error"]["cap"] == 2000
        assert "result" not in doc

    def test_unsupported_folding_has_its_own_code(self):
        doc, status = run_json(["boundary", "A3", "--level", "2", "--group", "center"])
        assert status == EXIT_UNSUPPORTED
        assert doc["error"]["code"] == "unsupported"

    def test_rejected_extension_is_reported_not_raised(self):
        doc, status = run_json(["extend", "A1", "--level", "3", "--group", "center"])
        assert status == EXIT_INVARIANT
        assert doc["error"]["code"] == "extension-rejected"

    def test_unknown_algebra_is_a_parse_error(self):
        doc, status = run_json(["check", "Z9", "--level", "2"])
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"


class TestSweep:
    def test_csv_shape_and_determinism(self):
        config = JobConfig(
            construction="sweep", algebra="A1", levels=(1, 3), fmt="csv"
        )
        first, status = run(config)
        second, _ = run(config)
        assert status == EXIT_OK
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0].startswith("algebra,level,status")
        assert len(lines) == 4
        assert lines[1].split(",")[:4] == ["A1", "1", "ok", "2"]

    def test_json_format_wraps_rows(self):
        config = JobConfig(
            construction="sweep", algebra="A2", levels=(1, 2), fmt="json"
        )
        text, status = run(config)
        assert status == EXIT_OK
        doc = json.loads(text)
        assert [row["level"] for row in doc["rows"]] == [1, 2]
        assert all(row["status"] == "ok" for row in doc["rows"])


class TestCache:
    def test_roundtrip_is_bit_for_bit(self, tmp_path):
        md = modular_data("A1", 1)
        loaded = cache_roundtrip(md, tmp_path)
        assert loaded.labels == md.labels
        assert loaded.delta == md.delta
        assert np.array_equal(loaded.smatrix, md.smatrix)

    def test_hit_skips_weyl_traversal(self, tmp_path, weyl_traversals):
        argv = ["modular-data", "A2", "--level", "2", "--cache-dir", str(tmp_path)]
        _, status = run_json(argv)
        assert status == EXIT_OK
        assert len(weyl_traversals) == 1
        _, status = run_json(argv)
        assert status == EXIT_OK
        assert len(weyl_traversals) == 1

    def test_corrupt_entry_recomputes_with_warning(self, tmp_path):
        md = modular_data("A1", 2)
        cache_roundtrip(md, tmp_path)
        cache_path("A1", 2, tmp_path).write_text("{not json")
        with pytest.warns(UserWarning, match="unreadable cache"):
            again = modular_data("A1", 2, cache_dir=tmp_path)
        assert np.allclose(again.smatrix, md.smatrix)

    def test_stale_schema_is_invalidated(self, tmp_path, weyl_traversals):
        md = modular_data("A1", 2)
        path = cache_roundtrip(md, tmp_path) and cache_path("A1", 2, tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        before = len(weyl_traversals)
        again = modular_data("A1", 2, cache_dir=tmp_path)
        assert len(weyl_traversals) == before + 1
        assert np.allclose(again.smatrix, md.smatrix)

    def test_mismatched_payload_is_rejected(self, tmp_path):
        md = modular_data("A1", 2)
        cache_roundtrip(md, tmp_path)
        path = cache_path("A1", 2, tmp_path)
        payload = json.loads(path.read_text())
        payload["level"] = 3
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            result = affine.load_modular_data("A1", 2, tmp_path)
        assert result is None
