"""Tests for the command-line front end, reports, and the disk cache."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest

import wzwkit
import wzwkit.cli as cli
import wzwkit.fusion
from wzwkit.affine import cache_path, load_modular_data, modular_data, save_modular_data
from wzwkit.blocks import symmetry_trace
from wzwkit.boundary import classifying_algebra
from wzwkit.cli import (
    EXIT_CAP,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECISION,
    EXIT_UNSUPPORTED,
    JobConfig,
    _nonzero_table,
    _render,
    _run_boundary,
    _run_fusion,
    config_from_args,
    main,
    run,
)
from wzwkit.errors import ConjectureViolation, InternalConsistencyError, PreconditionError
from wzwkit.fusion import simple_currents, verlinde_tensor


def run_json(argv):
    """Invoke the CLI in-process and parse its JSON report."""
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    return json.loads(buffer.getvalue()), status


def encode_per_element(value):
    """Reference report encoder that walks every array entry as a Python scalar."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Q):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return encode_per_element(value.tolist())
    if isinstance(value, dict):
        return {str(key): encode_per_element(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [encode_per_element(item) for item in items]
    raise PreconditionError(f"cannot serialize a {type(value).__name__} into a report")


def render(document, fmt):
    """The report text of ``document``: its pieces, joined."""
    return "".join(_render(document, fmt))


def render_per_element(document, fmt):
    payload = encode_per_element(document)
    if fmt == "pretty":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# -0.0, the smallest subnormal, a mid-range subnormal, 17-digit floats,
# the extremes of the float range, and non-finite values.
AWKWARD_FLOATS = np.array(
    [-0.0, 5e-324, 1.5e-310, 0.1 + 0.2, 1 / 3, 2 / 3 * 1e-300, 1.7976931348623157e308,
     -2.2250738585072014e-308, np.inf, -np.inf, np.nan]
)

ENCODE_FIXTURE = {
    "fraction": Q(-7, 3),
    "fractions": [Q(1, 2), Q(0), Q(10**30, 7)],
    "np_ints": [np.int64(-5), np.int8(3), np.uint16(65535)],
    "np_floats": [np.float64(0.1), np.float32(1 / 3), np.float64(-0.0)],
    "np_complexes": [np.complex128(1 - 2j), np.complex64(0.5 + 0.25j), np.complex128(-0.0j)],
    "python": [None, True, 3, "s", 0.1 + 0.2, complex(-0.0, 1e-310)],
    "int_array": np.arange(-3, 9).reshape(3, 4),
    "int8_array": np.array([-128, 127], dtype=np.int8),
    "bool_array": np.array([[True, False], [False, True]]),
    "float_array": AWKWARD_FLOATS,
    "float32_array": np.array([-0.0, 1e-45, 1e-40, 1 / 3, 3.4028235e38, np.nan], dtype=np.float32),
    "complex_array": np.array(
        [[complex(x, y) for y in AWKWARD_FLOATS[::-1]] for x in AWKWARD_FLOATS]
    ),
    "complex64_array": np.array([[1 / 3 + 0.1j, -0.0 - 0.0j]], dtype=np.complex64),
    "int_0d": np.array(7),
    "bool_0d": np.array(False),
    "float_0d": np.array(-0.0),
    "complex_0d": np.array(1.5 - 0.0j),
    "empty_int": np.zeros((0, 4), dtype=int),
    "empty_float": np.zeros((2, 0)),
    "empty_complex": np.zeros((0, 4), dtype=complex),
    "object_array": np.array([[Q(1, 2), Q(3)], [Q(-1, 5), 1j]], dtype=object),
    "set": {3, 1, 2},
    "frozenset": frozenset({Q(1, 2), Q(1, 3)}),
    "tuple_keys": {(1, 2): "a", (0, 5): [1.5, 2j], (10,): np.array([1j])},
    "int_keys": {10: np.float64(1), 2: Q(2, 3)},
    "nested": [np.array([1j, -0.0j]), (Q(1, 4), np.array([[0.5]]))],
}


def assert_same_text(actual, expected):
    """Compare report texts, naming the first difference (no full diff)."""
    if actual != expected:
        at = len(os.path.commonprefix([actual, expected]))
        pytest.fail(
            f"texts differ at offset {at}: "
            f"{actual[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}"
        )


def nan_with_payload(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def complex_from_planes(real, imag):
    """A complex array with exactly these real and imaginary bit patterns."""
    return np.stack([np.array(real, dtype=float), np.array(imag, dtype=float)], axis=-1).view(complex)[:, 0]


# Arrays rendered from distinct values: each json text must equal the
# per-element encoder's, whatever the dtype, shape, repetition or depth.
ARRAY_FIXTURES = {
    "repeated_signed_zeros": np.array(
        [[0.0, -0.0, 0.5, 0.0], [-0.0, 0.5, -0.0, 0.0], [0.5, 0.5, 0.0, -0.0]]
    ),
    "nan_payloads_and_infinities": np.array(
        [
            np.nan, nan_with_payload(0x7FF8000000000001), nan_with_payload(0xFFF8000000000000),
            nan_with_payload(0x7FF0000000000001), np.inf, -np.inf, np.inf, 1.0, -np.inf,
        ]
    ),
    "float32_collisions": np.concatenate(
        [
            np.array([0.1, 1 / 3, 0.1, -0.0, 0.0, 1 / 3, 1e-45], dtype=np.float32),
            # A signalling and a quiet NaN with one payload become one float64 NaN.
            np.array([0x7F800001, 0x7FC00001], dtype=np.uint32).view(np.float32),
        ]
    ),
    "complex_repeats": np.array([[1j, -1j, 1j], [0.5 - 0.0j, -0.0 + 0.5j, 1j]]),
    "int8": np.array([[-128, 127, 0], [0, -128, 5]], dtype=np.int8),
    "uint16": np.array([65535, 0, 65535, 7], dtype=np.uint16),
    "bool": np.array([[[True, False], [False, False]], [[True, True], [False, True]]]),
    "shape_1": np.array([2.5]),
    "shape_3_1_2": np.arange(6, dtype=float).reshape(3, 1, 2) - 2.5,
    "shape_1_1_1": np.array([[[7]]]),
    "shape_2_0": np.zeros((2, 0)),
    "deep_in_lists": [[[np.array([[1.5, -0.0], [1.5, 2.0]]), np.array([1, 2])]]],
    "deep_in_dicts": {"a": {"b": {"c": np.array([[True], [False]]), "d": [np.array([1j])]}}},
    "mixed_depths": [np.array([0.1, 0.1]), {"x": [[np.array([[[0.1]], [[0.2]]])]]}, np.array(3)],
    "complex_transposed": (np.arange(12).reshape(3, 4) * (1 - 0.5j) + np.array([0.1j, -0.0, 1j, 2.5])).T,
    # integers spanning, with 0, fewer values than entries: read by value
    "int_lookup_negative": np.array([[-3, 0, 2, -3, 1], [2, -1, -3, 0, 0]]),
    "int_lookup_all_negative": np.array([-1, -3, -3, -1, -2]),
    "int8_lookup_full_range": np.tile(np.array([-128, 127, 0, 5], dtype=np.int8), 70),
    # a wider span: distinct values by a sort
    "int_sparse_range": np.array([[10**12, -7, 3], [3, -(10**15), 10**12]]),
    "uint64_top": np.array([2**64 - 1, 2**64 - 3, 2**64 - 1, 2**64 - 2], dtype=np.uint64),
    # complex arrays are sorted a plane at a time and the planes' words merged
    "complex_real": np.array([[0.5, -0.0, 1 / 3], [1 / 3, 0.5, -2.0]]).astype(complex),
    "complex_shared_planes": complex_from_planes(
        [0.5, -0.0, 0.0, 1 / 3, np.nan, nan_with_payload(0x7FF8000000000001), np.inf, 0.5],
        [0.0, 0.5, -0.0, np.nan, nan_with_payload(0x7FF8000000000001), 1 / 3, -0.0, np.inf],
    ),
}

# Slice sizes that put slice boundaries inside, at and across axis boundaries.
SLICE_SIZES = [1, 2, 3, 7]


def float_words(flat):
    """The json text of each float of a flat array, one by one."""
    return [json.dumps(x) for x in flat.tolist()]


class TestDistinctWords:
    @pytest.mark.parametrize(
        "keys",
        [
            np.array([3, -1, 3, 7, -1, 0]),
            np.array([True, False, True, True]),
            np.array([2**64 - 1, 0, 2**63, 0], dtype=np.uint64),
            np.array([5], dtype=np.int8),
            np.random.default_rng(0).integers(0, 50, 1000),
        ],
        ids=["int", "bool", "uint64", "one", "random"],
    )
    def test_distinct_is_unique_with_an_int32_index(self, keys):
        distinct, index = cli._distinct(keys)
        expected, inverse = np.unique(keys, return_inverse=True)
        assert distinct.tolist() == expected.tolist()
        assert index.dtype == np.int32 and index.tolist() == inverse.tolist()

    @pytest.mark.parametrize("name", ["complex_real", "complex_shared_planes", "complex_repeats"])
    def test_one_word_per_distinct_bit_pattern_across_both_planes(self, name):
        flat = ARRAY_FIXTURES[name].view(float).reshape(-1)
        words, index = cli._words(flat, 2)
        assert len(words) == np.unique(flat.view(np.uint64)).size
        assert index.dtype == np.int32
        assert [words[i] for i in index.tolist()] == float_words(flat)

    def test_s_of_a3_level_12_has_one_word_per_distinct_float(self):
        flat = modular_data("A3", 12).smatrix.view(float).reshape(-1)
        words, index = cli._words(flat, 2)
        assert len(words) == len(set(words)) == np.unique(flat.view(np.uint64)).size == 27647
        assert index.dtype == np.int32
        assert np.array(words, dtype=object)[index].tolist() == float_words(flat)


class TestReportEncoding:
    @pytest.mark.parametrize("slice_entries", [cli._SLICE_ENTRIES, *SLICE_SIZES])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_matches_the_per_element_encoder(self, fmt, slice_entries, monkeypatch):
        monkeypatch.setattr(cli, "_SLICE_ENTRIES", slice_entries)
        assert_same_text(render(ENCODE_FIXTURE, fmt), render_per_element(ENCODE_FIXTURE, fmt))

    @pytest.mark.parametrize("slice_entries", [cli._SLICE_ENTRIES, *SLICE_SIZES])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize("name", sorted(ARRAY_FIXTURES))
    def test_array_text_matches_the_per_element_encoder(self, name, fmt, slice_entries, monkeypatch):
        monkeypatch.setattr(cli, "_SLICE_ENTRIES", slice_entries)
        document = {"x": ARRAY_FIXTURES[name]}
        assert_same_text(render(document, fmt), render_per_element(document, fmt))

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["modular-data", "A1", "--level", "40"],
            ["modular-data", "A2", "--level", "6"],
            ["orbifold", "A1", "--level", "40", "--shift", "1"],
            ["orbifold", "A2", "--level", "6", "--shift", "1/2,1/2"],
            ["boundary", "A1", "--level", "40", "--group", "center"],
            ["boundary", "A2", "--level", "6", "--group", "center"],
            ["extend", "A1", "--level", "40", "--group", "center"],
            ["extend", "A2", "--level", "6", "--group", "center"],
            ["fusion", "A2", "--level", "10"],
            ["check", "B2", "--level", "3"],
            ["trace", "A1", "--level", "4", "--conjecture", "1", "--insertions", "2,2", "--genus", "1"],
        ],
        ids=" ".join,
    )
    def test_reports_match_the_per_element_encoder(self, argv, fmt, monkeypatch):
        config = config_from_args([*argv, "--format", fmt])
        result, residuals = cli._SUBCOMMANDS[config.construction].handler(config)
        document = cli._document(config, result=result, residuals=residuals)
        expected = render_per_element(document, fmt)
        for slice_entries in [cli._SLICE_ENTRIES, *SLICE_SIZES]:
            monkeypatch.setattr(cli, "_SLICE_ENTRIES", slice_entries)
            assert_same_text(render(document, fmt), expected)

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_strings_holding_nul_cannot_imitate_a_placeholder(self, fmt):
        document = {
            "a": "\x000",
            "b": ["\x00", "\x001", "x\x002", np.array([1.5, 2.5]), "\x00\x00"],
            "c": {"d": "\x0012345", "e": np.array([[7, 7], [7, 8]])},
        }
        assert_same_text(render(document, fmt), render_per_element(document, fmt))

    def test_a_key_holding_nul_is_refused(self):
        with pytest.raises(PreconditionError):
            _render({"a": {"\x000": 1}}, "json")

    def test_a_group_holding_nul_is_a_parse_error(self):
        config = JobConfig("extend", "A1", 4, group="\x000")
        text, status = run(config)
        assert status == EXIT_PARSE
        assert '"group":"\\u00000"' in text
        document = json.loads(text)
        assert document["error"]["code"] == "parse-error"
        assert document["input"]["group"] == "\x000"
        assert_same_text(text, render_per_element(document, "json"))

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_rendering_holds_a_slice_not_the_report(self, fmt):
        # 4M entries of a small-integer table and 64K distinct floats: the
        # text is 11 MB compact and 50 MB pretty, each piece at most a slice
        document = {
            "table": np.tile(np.arange(8, dtype=np.int64), 1 << 19).reshape(-1, 4),
            "floats": np.linspace(0.0, 1.0, 1 << 16),
        }
        longest = total = 0
        tracemalloc.start()
        try:
            for piece in _render(document, fmt):
                longest, total = max(longest, len(piece)), total + len(piece)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total > 10 * 2**20
        assert longest < 2**20 and peak < 16 * 2**20

    @pytest.mark.parametrize("algebra,level,mib", [("A1", 300, 5), ("A3", 12, 9)])
    def test_rendering_s_holds_a_few_bytes_per_entry(self, algebra, level, mib):
        # A1/300: 181,202 floats, all imaginary parts +0.0; A3/12: 414,050 floats
        document = {"smatrix": modular_data(algebra, level).smatrix}
        tracemalloc.start()
        try:
            for _ in _render(document, "json"):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20

    @pytest.mark.parametrize("value", [np.bool_(True), object(), [np.bool_(False)]])
    def test_unencodable_values_are_refused_alike(self, value):
        with pytest.raises(PreconditionError):
            render_per_element({"x": value}, "json")
        with pytest.raises(PreconditionError):
            render({"x": value}, "json")

    @pytest.mark.parametrize("algebra,level", [("A1", 4), ("A2", 3), ("A1", 40)])
    def test_fusion_table_matches_the_triple_loop(self, algebra, level):
        md = modular_data(algebra, level)
        tensor = verlinde_tensor(md)
        expected = [
            [a, b, c, int(tensor[a, b, c])]
            for a, b, c in itertools.product(range(md.dim), repeat=3)
            if tensor[a, b, c]
        ]
        result, _ = _run_fusion(JobConfig("fusion", algebra, level))
        assert encode_per_element(result["nonzero"]) == expected

    @pytest.mark.parametrize("algebra,level", [("A1", 4), ("A2", 3), ("A1", 40)])
    def test_boundary_table_matches_the_triple_loop(self, algebra, level):
        md = modular_data(algebra, level)
        algebra_ = classifying_algebra(md, simple_currents(md))
        expected = [
            [l, m, n, int(round(algebra_.nhat[l, m, n].real))]
            for l, m, n in itertools.product(range(algebra_.dim), repeat=3)
            if abs(algebra_.nhat[l, m, n]) > 0.5
        ]
        config = JobConfig("boundary", algebra, level, group="center")
        result, _ = _run_boundary(config)
        assert encode_per_element(result["nhat_nonzero"]) == expected


def column_stack_table(values):
    """The whole-tensor table: every entry with |v| > 0.5, its indices and
    rounded value gathered at once."""
    keep = np.abs(values) > 0.5
    return np.column_stack((*np.nonzero(keep), np.round(values[keep]).astype(np.int64)))


def nonzero_table_cases():
    yield "all-zero", np.zeros((3, 4, 5), dtype=np.int64)
    edges = np.zeros((4, 3, 3), dtype=np.int64)
    edges[1, 0, 2], edges[2, 2, 0], edges[2, 1, 1] = 5, -2, 7
    yield "empty-first-and-last-slices", edges
    yield "one-entry", np.array([[[3]]])
    rng = np.random.default_rng(5)
    for shape in [(1, 4, 2), (5, 5, 5), (7, 3, 6)]:
        yield f"random-{shape}", rng.integers(-2, 3, size=shape) * rng.integers(0, 2, size=shape)
    yield "verlinde-A2-10", verlinde_tensor(modular_data("A2", 10))
    # each tie, then the floats just below and just above it, in both signs
    ties = np.array([0.5, 1.5, 2.5])
    near = np.stack((ties, np.nextafter(ties, 0), np.nextafter(ties, 3)))
    floats = np.concatenate((near, -near, np.zeros((1, 3)))).reshape(7, 3, 1) * np.ones(4)
    floats[:, :, 1] += 1e-9 * rng.standard_normal((7, 3))
    yield "ties-and-noise", floats


class TestNonzeroTable:
    @pytest.mark.parametrize("name,values", list(nonzero_table_cases()))
    def test_rows_match_the_column_stack(self, name, values):
        table = _nonzero_table(values)
        expected = column_stack_table(values)
        assert table.dtype == np.int64 and table.shape == expected.shape == (len(expected), 4)
        assert np.array_equal(table, expected)

    def test_float_values_are_rounded_as_the_boundary_table_was(self):
        md = modular_data("A1", 12)
        nhat = classifying_algebra(md, simple_currents(md)).nhat
        mask = np.abs(nhat) > 0.5
        expected = np.column_stack((*np.nonzero(mask), np.round(nhat.real[mask]).astype(np.int64)))
        assert np.array_equal(_nonzero_table(nhat.real), expected)

    @pytest.mark.parametrize("construction,level", [("fusion", 12), ("boundary", 18)])
    def test_peak_is_the_table_and_two_slices(self, construction, level, monkeypatch):
        # the table step as the handler runs it: A2/12's Verlinde tensor (n = 91),
        # A2/18's structure constants (n_hat = 66); a mask of the whole tensor
        # would be n^3 bytes, n/8 of these slices
        calls = []

        def measured(values):
            tracemalloc.start()
            try:
                table = _nonzero_table(values)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            calls.append((peak, table.nbytes, values[0].nbytes, len(values)))
            return table

        monkeypatch.setattr(cli, "_nonzero_table", measured)
        _, status = run(JobConfig(construction, "A2", level, group="center" if construction == "boundary" else None))
        assert status == EXIT_OK
        ((peak, table_bytes, slice_bytes, n),) = calls
        assert peak < table_bytes + 2 * slice_bytes < table_bytes + n**3


CONJ1 = ["--conjecture", "1"]
CONJ2 = ["--conjecture", "2", "--shift", "1"]


@pytest.fixture
def no_theory(monkeypatch):
    """Fail the test if the job builds its theory: it must be rejected first."""

    def refuse(*args, **kwargs):
        raise AssertionError("a rejected job must not build its theory")

    monkeypatch.setattr(cli, "modular_data", refuse)


class TestJobConfigValidation:
    def test_unknown_construction(self):
        with pytest.raises(PreconditionError) as info:
            JobConfig(construction="plot", algebra="A1", level=1).validate()
        assert str(info.value) == (
            "unknown construction 'plot'; expected one of modular-data, fusion, "
            "extend, orbifold, boundary, trace, check, sweep"
        )

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

    @pytest.mark.parametrize(
        "options",
        [
            ["--conjecture", "2", "--shift", "1", "--insertions", "2,2,2", "--genus", "3"],
            ["--conjecture", "2", "--shift", "1", "--insertions", "2,2,2", "--tuple", "0,0,0"],
            [
                "--conjecture", "2", "--shift", "1", "--insertions", "2,2,2",
                "--genus", "3", "--tuple", "0,0,0",
            ],
            ["--conjecture", "1", "--shift", "1", "--insertions", "2,2"],
            ["--conjecture", "1", "--insertions", "2,2", "--tuple", "4"],
            ["--conjecture", "1", "--insertions", "2,2", "--tuple", "4,4,4"],
        ],
    )
    def test_trace_options_a_run_would_ignore_are_rejected(self, options, monkeypatch):
        def no_theory(*args, **kwargs):
            raise AssertionError("a rejected job must not build its theory")

        monkeypatch.setattr(cli, "modular_data", no_theory)
        doc, status = run_json(["trace", "A1", "--level", "4", *options])
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"

    def test_negative_genus_is_rejected(self, monkeypatch):
        config = JobConfig(
            construction="trace", algebra="A1", level=4, conjecture=1, insertions=(2, 2), genus=-1
        )
        with pytest.raises(PreconditionError, match="genus"):
            config.validate()

        def no_theory(*args, **kwargs):
            raise AssertionError("a rejected job must not build its theory")

        monkeypatch.setattr(cli, "modular_data", no_theory)
        doc, status = run_json(
            ["trace", "A1", "--level", "4", "--conjecture", "1", "--insertions", "2,2", "--genus", "-1"]
        )
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"

    @pytest.mark.parametrize(
        "options,message",
        [
            ([*CONJ1, "--insertions", "2,2", "--tuple", "4,0"], "product"),
            ([*CONJ1, "--insertions", "2,2", "--tuple", "1,1"], "slot 0: label 1 is not a simple current"),
            ([*CONJ1, "--insertions", "2,2", "--tuple", "0,1"], "slot 1: label 1 is not a simple current"),
            ([*CONJ1, "--insertions", "1,1", "--tuple", "4,4"], "slot 0: current 4 does not fix insertion 1"),
            ([*CONJ1, "--insertions", "2,1", "--tuple", "4,4"], "slot 1: current 4 does not fix insertion 1"),
            ([*CONJ1, "--insertions", "2,9", "--tuple", "0,0"], "--insertions slot 1"),
            ([*CONJ1, "--insertions=-1,2"], "--insertions slot 0"),
            ([*CONJ2, "--insertions", "2,2,99"], "--insertions slot 2"),
            ([*CONJ2, "--insertions=2,2,-1"], "--insertions slot 2"),
        ],
    )
    def test_bad_trace_inputs_are_rejected_before_the_spectrum(self, options, message, monkeypatch):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("a rejected input must not reach the spectrum")

        monkeypatch.setattr(cli, "fourier_eigendims", no_spectrum)
        monkeypatch.setattr(cli, "conjecture2_trace", no_spectrum)
        doc, status = run_json(["trace", "A1", "--level", "4", *options])
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"
        assert message in doc["error"]["message"]

    @pytest.mark.parametrize(
        "config,message",
        [
            (JobConfig("check", "", 1), "an algebra label is required"),
            (JobConfig("check", "A1", 1, weyl_cap=0), "--weyl-cap must be a positive integer"),
            (JobConfig("check", "A1", 1, fmt="xml"), "unknown output format 'xml'"),
            (JobConfig("sweep", "A1"), "sweep requires --levels"),
            (JobConfig("orbifold", "A1", 2), "orbifold requires --shift"),
            (JobConfig("boundary", "A1", 4, group=""), "boundary requires --group"),
            (JobConfig("trace", "A1", 4, insertions=(2, 2)), "trace requires --conjecture"),
            (
                JobConfig("trace", "A1", 4, conjecture=3, insertions=(2, 2)),
                "--conjecture must be one of (1, 2), got 3",
            ),
            (JobConfig("trace", "A1", 4, conjecture=1), "trace requires --insertions"),
            (
                JobConfig("trace", "A1", 4, conjecture=2, insertions=(2, 2, 2)),
                "trace --conjecture 2 requires --shift",
            ),
            # fields of the wrong type, which the command line never delivers
            (JobConfig("check", "A1", 3.5), "level must be an integer, got 3.5"),
            (JobConfig("check", 5, 3), "algebra must be a string, got 5"),
            (
                JobConfig("trace", "A1", 4, conjecture=1, insertions=(2, 2), genus=1.5),
                "genus must be an integer, got 1.5",
            ),
            (
                JobConfig("trace", "A1", 4, conjecture=1, insertions=(2.0, 2), genus=1),
                "insertions must be a sequence of integers, got (2.0, 2)",
            ),
            (JobConfig("sweep", "A1", levels=(1.5, 3)), "levels must be a pair of integers, got (1.5, 3)"),
            (JobConfig("sweep", "A1", levels=(1, 2, 3)), "levels must be a pair of integers, got (1, 2, 3)"),
            (JobConfig("check", "A1", 3, tolerance="1e-8"), "tolerance must be a real number, got '1e-8'"),
            (JobConfig("extend", "A1", 4, group=4), "group must be a string, got 4"),
            (
                JobConfig("orbifold", "A1", 2, shift=("abc",)),
                "shift must be a sequence of rationals, got ('abc',)",
            ),
            (JobConfig("check", "A1", True), "level must be an integer, got True"),
            (JobConfig("check", "A1", 3, weyl_cap=2.5), "weyl_cap must be an integer, got 2.5"),
            (
                JobConfig("trace", "A1", 4, conjecture=1, insertions=(2, 2), current_tuple=(4.0, 4)),
                "current_tuple must be a sequence of integers, got (4.0, 4)",
            ),
        ],
        ids=[
            "empty-algebra", "weyl-cap-0", "xml", "sweep-no-levels", "orbifold-no-shift", "empty-group",
            "trace-no-conjecture", "conjecture-3", "trace-no-insertions", "conjecture-2-no-shift",
            "float-level", "int-algebra", "float-genus", "float-insertion", "float-levels", "three-levels",
            "str-tolerance", "int-group", "str-shift", "bool-level", "float-weyl-cap", "float-tuple",
        ],
    )
    def test_failures_only_the_api_reaches_are_parse_errors(self, config, message, no_theory):
        text, status = run(config)
        assert status == EXIT_PARSE
        assert json.loads(text)["error"] == {
            "code": "parse-error", "message": message, "type": "PreconditionError"
        }

    def test_array_fields_run_like_tuples(self):
        as_tuple = run(JobConfig("trace", "A1", 4, conjecture=1, insertions=(2, 2)))
        as_array = run(JobConfig("trace", "A1", 4, conjecture=1, insertions=np.array([2, 2])))
        assert as_array == as_tuple
        assert as_tuple[1] == EXIT_OK

    def test_sweep_needs_an_ordered_range(self):
        config = JobConfig(construction="sweep", algebra="A1", levels=(4, 2))
        with pytest.raises(PreconditionError):
            config.validate()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "A1", "--level", "3", "--tolerance", "nan"], "finite"),
            (["check", "A1", "--level", "3", "--tolerance", "inf"], "finite"),
            (["boundary", "A1", "--level", "4", "--group", "center", "--tolerance", "inf"], "finite"),
            (["sweep", "A0", "--levels", "1-3"], "series A does not admit rank 0"),
            (["sweep", "A1", "--levels", "1-3", "--tolerance", "nan"], "finite"),
        ],
    )
    def test_bad_inputs_are_rejected_before_any_theory(self, argv, message, no_theory):
        doc, status = run_json(argv)
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"
        assert message in doc["error"]["message"]

    def test_unknown_algebra_report_is_the_same_for_check_and_sweep(self):
        check, status = run_json(["check", "A0", "--level", "1"])
        assert status == EXIT_PARSE
        assert check["error"] == {
            "code": "parse-error",
            "type": "CartanDataError",
            "message": "series A does not admit rank 0",
        }
        assert check["input"] == {
            "algebra": "A0",
            "construction": "check",
            "format": "json",
            "level": 1,
            "tolerance": 1e-8,
            "weyl_cap": 200000,
        }
        sweep, status = run_json(["sweep", "A0", "--levels", "1-3"])
        assert status == EXIT_PARSE
        assert sweep["error"] == check["error"]

    @pytest.mark.parametrize("below", ["", "sub", "sub/deeper"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_cache_dir_at_or_under_a_file_is_rejected(
        self, below, from_env, tmp_path, monkeypatch, no_theory
    ):
        afile = tmp_path / "afile"
        afile.touch()
        cache_dir = str(afile / below) if below else str(afile)
        argv = ["modular-data", "A1", "--level", "3"]
        if from_env:
            monkeypatch.setenv("WZWKIT_CACHE_DIR", cache_dir)
        else:
            monkeypatch.delenv("WZWKIT_CACHE_DIR", raising=False)
            argv += ["--cache-dir", cache_dir]
        doc, status = run_json(argv)
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"
        assert doc["input"]["cache_dir"] == cache_dir
        assert "not a directory" in doc["error"]["message"]

    def test_cache_dir_that_does_not_exist_yet_is_accepted(self, tmp_path):
        config = JobConfig(
            construction="modular-data", algebra="A1", level=3, cache_dir=str(tmp_path / "a" / "b")
        )
        config.validate()


# Each subcommand's arguments in order: option strings, dest, default, type,
# required, choices.
HELP = (["-h", "--help"], "help", argparse.SUPPRESS, None, False, None)
ALGEBRA = ([], "algebra", None, None, True, None)
LEVEL = (["--level"], "level", 0, int, False, None)
SHARED = [
    (["--tolerance"], "tolerance", 1e-8, float, False, None),
    (["--weyl-cap"], "weyl_cap", 200000, int, False, None),
    (["--cache-dir"], "cache_dir", None, None, False, None),
    (["--format"], "fmt", None, None, False, ("json", "csv", "pretty")),
]
GROUP = (["--group"], "group", None, None, True, None)
SUBCOMMAND_OPTIONS = {
    "modular-data": [HELP, ALGEBRA, LEVEL, *SHARED],
    "fusion": [HELP, ALGEBRA, LEVEL, *SHARED],
    "extend": [HELP, ALGEBRA, LEVEL, *SHARED, GROUP],
    "orbifold": [
        HELP, ALGEBRA, LEVEL, *SHARED, (["--shift"], "shift", None, cli._parse_rationals, True, None)
    ],
    "boundary": [HELP, ALGEBRA, LEVEL, *SHARED, GROUP],
    "trace": [
        HELP, ALGEBRA, LEVEL, *SHARED,
        (["--conjecture"], "conjecture", None, int, True, (1, 2)),
        (["--insertions"], "insertions", None, cli._parse_ints, True, None),
        (["--genus"], "genus", 0, int, False, None),
        (["--tuple"], "current_tuple", None, cli._parse_ints, False, None),
        (["--shift"], "shift", None, cli._parse_rationals, False, None),
    ],
    "check": [HELP, ALGEBRA, LEVEL, *SHARED],
    "sweep": [
        HELP, ALGEBRA, *SHARED, (["--levels"], "levels", None, cli._parse_levels, True, None)
    ],
}


# A minimal valid command line for each subcommand.
MINIMAL_JOBS = [
    ["modular-data", "A1", "--level", "1"],
    ["fusion", "A1", "--level", "1"],
    ["extend", "A1", "--level", "4", "--group", "center"],
    ["orbifold", "A1", "--level", "2", "--shift", "1"],
    ["boundary", "A1", "--level", "4", "--group", "center"],
    ["trace", "A1", "--level", "4", "--conjecture", "1", "--insertions", "2,2"],
    ["check", "A1", "--level", "1"],
    ["sweep", "A1", "--levels", "1-3"],
]


# Lines the plain-line reader leaves to argparse: other spellings, repeated
# or negative values, help, and every conversion, choice or required failure.
DECLINED_LINES = [
    ["check", "A1", "--level=3"],
    ["check", "--level", "3", "A1"],
    ["check", "A1", "--level", "3", "--level", "4"],
    ["check", "A1", "--level", "3", "--tolerance", "-1e-8"],
    ["orbifold", "A1", "--level", "2", "--shift", "-1"],
    ["check", "A1", "--level", "2", "-h"],
    ["check", "A1", "--level", "3", "--tolerance"],
    ["trace", "A1", "--level", "4", "--conjecture", "3", "--insertions", "1"],
    ["check", "A1", "--level", "x"],
    ["extend", "A1", "--level", "4"],
]


class TestArgumentParsing:
    def test_each_subcommand_declares_its_options_in_order(self):
        parser = cli.build_parser()
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(SUBCOMMAND_OPTIONS)
        for name, expected in SUBCOMMAND_OPTIONS.items():
            actions = subparsers.choices[name]._actions
            got = [(a.option_strings, a.dest, a.default, a.type, a.required, a.choices) for a in actions]
            assert got == expected, name

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "A1", "--levels", "1-3", "--level", "2"], "unrecognized arguments: --level 2"),
            (["check", "A1", "--lev", "2"], "unrecognized arguments: --lev 2"),
            (
                ["trace", "A1", "--level", "4", "--conjecture", "3", "--insertions", "1"],
                "argument --conjecture: invalid choice: 3 (choose from 1, 2)",
            ),
        ],
        ids=["sweep-level", "abbreviation", "conjecture-choice"],
    )
    def test_unknown_or_abbreviated_option_exits_with_parse_code(self, argv, message):
        doc, status = run_json(argv)
        assert status == EXIT_PARSE
        assert doc["error"] == {"code": "parse-error", "message": message, "type": "PreconditionError"}

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

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["modular-data", "A1", "--level", "3"], JobConfig("modular-data", "A1", level=3)),
            (
                [
                    "fusion", "A2", "--level", "2", "--tolerance", "1e-6",
                    "--weyl-cap", "500", "--format", "pretty",
                ],
                JobConfig("fusion", "A2", level=2, tolerance=1e-6, weyl_cap=500, fmt="pretty"),
            ),
            (
                ["extend", "A1", "--level", "4", "--group", "center"],
                JobConfig("extend", "A1", level=4, group="center"),
            ),
            (
                ["orbifold", "A1", "--level", "2", "--shift", "1/2,1"],
                JobConfig("orbifold", "A1", level=2, shift=(Q(1, 2), Q(1))),
            ),
            (
                ["boundary", "A2", "--level", "3", "--group", "0,4", "--cache-dir", "c"],
                JobConfig("boundary", "A2", level=3, group="0,4", cache_dir="c"),
            ),
            (
                [
                    "trace", "A1", "--level", "4", "--conjecture", "1",
                    "--insertions", "2,2", "--genus", "2", "--tuple", "4,4",
                ],
                JobConfig(
                    "trace", "A1", level=4, conjecture=1, insertions=(2, 2), genus=2,
                    current_tuple=(4, 4),
                ),
            ),
            (
                ["trace", "A1", "--level", "4", "--conjecture", "2", "--shift", "1", "--insertions", "2,2,2"],
                JobConfig("trace", "A1", level=4, conjecture=2, shift=(Q(1),), insertions=(2, 2, 2)),
            ),
            (["check", "G2", "--level", "1"], JobConfig("check", "G2", level=1)),
            (["sweep", "A1", "--levels", "5"], JobConfig("sweep", "A1", levels=(5, 5), fmt="csv")),
            (
                ["sweep", "B2", "--levels", "1-3", "--format", "json"],
                JobConfig("sweep", "B2", levels=(1, 3)),
            ),
        ],
    )
    def test_command_line_parses_to_the_config_built_by_hand(self, argv, expected, monkeypatch):
        monkeypatch.delenv("WZWKIT_CACHE_DIR", raising=False)
        assert config_from_args(argv) == expected

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["orbifold", "A1", "--level", "2", "--shift", "half"], "--shift"),
            (["orbifold", "A1", "--level", "2", "--shift", "1/0"], "--shift"),
            (["trace", "A1", "--level", "4", *CONJ1, "--insertions", "2,x"], "--insertions"),
            (["trace", "A1", "--level", "4", *CONJ1, "--insertions", "2,2", "--tuple", "4,y"], "--tuple"),
            (
                ["trace", "A1", "--level", "4", "--conjecture", "2", "--shift", "1,b", "--insertions", "2,2,2"],
                "--shift",
            ),
            (["sweep", "A1", "--levels", "5-"], "--levels"),
            (["sweep", "A1", "--levels", "a-b"], "--levels"),
            (["sweep", "A1", "--levels", "1-3-5"], "--levels"),
        ],
    )
    def test_malformed_option_value_names_the_option(self, argv, option):
        doc, status = run_json(argv)
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"
        assert doc["error"]["message"].startswith(f"argument {option}: expected ")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "A1", "--level", "3", "--tolerance", "-1e-8"], "tolerances must be positive"),
            (["check", "A1", "--level", "3", "--tolerance", "-inf"], "tolerances must be positive"),
            (
                ["orbifold", "A3", "--level", "2", "--shift", "-1,0,0"],
                "shift does not act by signs on the weight lattice: 2(s, omega) = ('-3/2', '-1', '-1/2')",
            ),
            (
                ["trace", "A1", "--level", "4", *CONJ1, "--insertions", "-1,2"],
                "--insertions slot 0: -1 is not a label index below 5",
            ),
        ],
        ids=["tolerance-exponent", "tolerance-inf", "shift", "insertions"],
    )
    def test_negative_option_value_reaches_its_validator(self, argv, message):
        # the value written after the option reads as the --option=value spelling
        doc, status = run_json(argv)
        assert status == EXIT_PARSE
        assert doc == run_json([*argv[:-2], f"{argv[-2]}={argv[-1]}"])[0]
        assert doc["error"]["code"] == "parse-error"
        assert doc["error"]["message"] == message

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["check", "A1", "--level", "3", "--level", "4"], "--level"),
            (["check", "A1", "--level", "3", "--level=4"], "--level"),
            (["check", "A1", "--level=3", "--level", "3"], "--level"),
            (["sweep", "A1", "--levels", "1-3", "--levels", "2-4"], "--levels"),
            (["trace", "A1", "--level", "4", *CONJ1, "--insertions", "2,2", "--genus", "1", "--genus", "1"], "--genus"),
            (["check", "--format", "json", "A1", "--level", "3", "--format", "pretty"], "--format"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_a_repeated_flag_is_refused(self, argv, flag):
        # the plain-line reader declines the line; argparse refuses it
        assert cli._read_plain(argv) is None
        doc, status = run_json(argv)
        assert status == EXIT_PARSE
        assert doc["error"] == {
            "code": "parse-error",
            "message": f"argument {flag}: given more than once",
            "type": "PreconditionError",
        }

    @pytest.mark.parametrize("label,level", [("A²", "1"), ("A١", "2")])
    def test_a_rank_in_other_digits_is_a_parse_error(self, label, level):
        doc, status = run_json(["check", label, "--level", level])
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"
        assert doc["error"]["type"] == "CartanDataError"

    def test_unknown_subcommand_exits_with_parse_code(self):
        doc, status = run_json(["transmogrify", "A1"])
        assert status == EXIT_PARSE
        assert doc["status"] == "error"

    @pytest.mark.parametrize("argv", MINIMAL_JOBS, ids=lambda argv: argv[0])
    def test_a_job_line_builds_no_parser(self, argv, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        config_from_args(argv)
        assert len(built) == 0

    def test_version_and_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"wzwkit {wzwkit.__version__}\n"
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        listed = capsys.readouterr().out
        assert all(name in listed for name in SUBCOMMAND_OPTIONS)

    @pytest.mark.parametrize(
        "argv",
        [
            # the CI step "Malformed input exits 3 before any computation"
            ["orbifold", "A1", "--level", "2", "--shift", "half"],
            ["check", "A1", "--level", "3", "--tolerance", "nan"],
            ["check", "A1", "--level", "3", "--tolerance", "inf"],
            ["sweep", "A0", "--levels", "1-3"],
            ["modular-data", "A1", "--level", "3", "--cache-dir", "afile"],
            ["sweep", "A1", "--levels", "1-3", "--level", "2"],
            ["trace", "A1", "--level", "4", "--conjecture", "3", "--insertions", "1"],
            # test_unknown_or_abbreviated_option_exits_with_parse_code
            ["check", "A1", "--lev", "2"],
            # one corpus job per subcommand
            ["modular-data", "A1", "--level", "200"],
            ["fusion", "A2", "--level", "10"],
            ["extend", "A2", "--level", "12", "--group", "center"],
            ["orbifold", "A1", "--level", "30", "--shift", "1"],
            ["boundary", "A1", "--level", "80", "--group", "center"],
            ["trace", "A1", "--level", "16", "--conjecture", "1", "--insertions", "8,8,8,8,8,8,8", "--genus", "1"],
            ["trace", "A1", "--level", "20", "--conjecture", "2", "--shift", "1", "--insertions", "2,2,2"],
            ["check", "D6", "--level", "1"],
            ["sweep", "A1", "--levels", "1-40"],
            *DECLINED_LINES,
        ],
    )
    def test_a_line_parses_as_argparse_reads_it(self, argv, capsys, monkeypatch):
        # compared by repr, which reads nan as nan; help is compared by its text
        def outcome(parse):
            try:
                return repr(parse())
            except PreconditionError as exc:
                return str(exc)
            except SystemExit as exc:
                return exc.code, capsys.readouterr().out

        read = outcome(lambda: config_from_args(argv))
        monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
        assert read == outcome(lambda: config_from_args(argv))

    @pytest.mark.parametrize("argv", DECLINED_LINES, ids=" ".join)
    def test_the_reader_declines_what_only_argparse_reads(self, argv):
        assert cli._read_plain(argv) is None


class TestSingleConstructions:
    def test_check_passes_and_reports_residuals(self):
        doc, status = run_json(["check", "A1", "--level", "2"])
        assert status == EXIT_OK
        assert doc["status"] == "ok"
        assert doc["result"]["center_match"] is True
        assert all(value < 1e-8 for value in doc["residuals"].values())
        assert doc["input"]["algebra"] == "A1"
        assert "version" in doc

    def test_e8_level_two_has_its_extra_current(self):
        # the weight-3/2 primary is a Z2 current that the trivial center does not predict
        doc, status = run_json(["check", "E8", "--level", "2"])
        assert status == EXIT_OK
        assert doc["result"]["simple_current_order"] == 2
        assert doc["result"]["center_invariant_factors"] == []
        assert doc["result"]["center_match"] is False
        assert doc["residuals"]["simple_current_center"] == 0.0

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

    def test_trivial_group_extends_to_the_theory_itself(self):
        doc, status = run_json(["extend", "A1", "--level", "4", "--group", "trivial"])
        assert status == EXIT_OK
        assert doc["result"]["group_order"] == 1
        assert doc["result"]["dim"] == 5
        assert doc["result"]["zmatrix"] == np.eye(5, dtype=int).tolist()

    def test_trivial_group_boundary_has_one_label_per_primary(self):
        doc, status = run_json(["boundary", "A1", "--level", "3", "--group", "trivial"])
        assert status == EXIT_OK
        result = doc["result"]
        assert result["dim"] == len(result["boundary_labels"]) == 4
        assert "automorphism_types" not in result

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

    def test_conjecture_two_runs_once_in_orientation_one(self, monkeypatch):
        orientations = []

        def violated(oin, insertions, orientation=1):
            orientations.append(orientation)
            raise ConjectureViolation("stub", report={"orientation": orientation})

        monkeypatch.setattr(cli, "conjecture2_trace", violated)
        doc, status = run_json(
            ["trace", "A1", "--level", "4", "--conjecture", "2", "--shift", "1", "--insertions", "2,2,2"]
        )
        assert orientations == [1]
        assert status == EXIT_INVARIANT
        assert doc["error"]["code"] == "conjecture-failure"
        assert doc["error"]["report"]["orientation"] == 1

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["check", "B2", "--level", "4"], [("B2", 4, False)]),
            (["check", "A1", "--level", "4"], []),
            (["fusion", "A1", "--level", "4"], [("A1", 4, True)]),
            (
                ["extend", "A1", "--level", "4", "--group", "center"],
                [("A1/ext", 4, False)],
            ),
            (["orbifold", "A1", "--level", "4", "--shift", "1"], [("A1/orb", 4, False)]),
            (["boundary", "A1", "--level", "4", "--group", "center"], []),
            ("trace A1 --level 4 --conjecture 1 --insertions 2,2 --genus 1".split(), []),
            ("trace A1 --level 4 --conjecture 2 --shift 1 --insertions 2,2,2".split(), []),
        ],
        ids=["check", "check-pieri", "fusion", "extend", "orbifold", "boundary", "trace", "trace-conjecture-2"],
    )
    def test_verlinde_sum_runs_once_per_job(self, argv, expected, monkeypatch):
        # (theory, whether the pass stored the tensor), one entry per row loop
        verlinde = wzwkit.fusion._verlinde
        passes = []

        def counted(md, tensor=None):
            passes.append((md.algebra, md.level, tensor is not None))
            return verlinde(md, tensor)

        monkeypatch.setattr(wzwkit.fusion, "_verlinde", counted)
        _, status = run_json(argv)
        assert status == EXIT_OK
        assert passes == expected

    def test_check_stores_no_fusion_tensor(self, monkeypatch):
        loaded = []

        def load(config):
            loaded.append(modular_data(config.algebra, config.level))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load", load)
        # B2 runs the streamed pass, A1 the Pieri certificate
        for algebra, level, check in [("B2", 20, "verlinde_summary"), ("A1", 150, "pieri_certificate")]:
            tracemalloc.start()
            try:
                _, status = run_json(["check", algebra, "--level", str(level)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert status == EXIT_OK
            memoized = loaded[-1]._memo
            assert check in memoized and "verlinde" not in memoized
            assert peak < loaded[-1].dim ** 3 * 8

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["modular-data", "A1", "--level", "4", "--format", "pretty"],
            ["fusion", "A2", "--level", "3"],
            ["extend", "A1", "--level", "4", "--group", "center"],
            ["orbifold", "A1", "--level", "2", "--shift", "1"],
            ["boundary", "A1", "--level", "4", "--group", "center"],
            ["trace", "A1", "--level", "4", "--conjecture", "1", "--insertions", "2,2"],
            ["check", "A2", "--level", "2"],
            ["sweep", "A1", "--levels", "1-3"],
            ["check", "A1", "--level", "3", "--tolerance", "nan"],
        ],
        ids=" ".join,
    )
    def test_main_writes_the_text_run_returns(self, argv, capsys, monkeypatch):
        monkeypatch.delenv("WZWKIT_CACHE_DIR", raising=False)
        monkeypatch.setattr(cli, "_SLICE_ENTRIES", 5)
        status = main(argv)
        expected, expected_status = run(config_from_args(argv))
        assert capsys.readouterr().out == expected
        assert status == expected_status

    def test_reports_are_byte_deterministic(self):
        config = JobConfig(construction="check", algebra="A2", level=2)
        first, status_a = run(config)
        second, status_b = run(config)
        assert status_a == status_b == EXIT_OK
        assert first == second


class TestExactRanks:
    """Block ranks past float precision, through the trace construction."""

    @pytest.mark.parametrize(
        "level,insertions,genus,rank,dims",
        [
            (10, "5,5", 8, 1380858267893760, [690429134786688, 690429133107072]),
            (4, "2,2", 10, 41278262499, [20639101725, 20639160774]),
        ],
    )
    def test_rank_and_dims_are_exact(self, level, insertions, genus, rank, dims):
        doc, status = run_json(
            ["trace", "A1", "--level", str(level), "--conjecture", "1",
             "--insertions", insertions, "--genus", str(genus)]
        )
        assert status == EXIT_OK
        assert doc["result"]["rank"] == rank
        assert list(doc["result"]["dims"].values()) == dims

    @pytest.mark.parametrize("current_tuple,trace", [((0, 0), [9.0, 0.0]), ((4, 4), [-3.0, 0.0])])
    def test_tuple_trace_of_an_untwisted_tuple_is_its_spectrum_entry(self, current_tuple, trace):
        doc, status = run_json(
            ["trace", "A1", "--level", "4", "--conjecture", "1", "--insertions", "2,2",
             "--genus", "1", "--tuple", ",".join(map(str, current_tuple))]
        )
        assert status == EXIT_OK
        result = doc["result"]
        assert result["tuple_trace"] == result["traces"][str(current_tuple)]
        assert result["tuple_trace"] == pytest.approx(trace, abs=1e-9)

    def test_tuple_trace_of_a_twisted_tuple_is_its_symmetry_trace(self):
        doc, status = run_json(
            ["trace", "A1", "--level", "2", "--conjecture", "1", "--insertions", "1,1,1",
             "--tuple", "0,2,2"]
        )
        assert status == EXIT_OK
        result = doc["result"]
        assert [0, 2, 2] in result["admissible"]
        assert [0, 2, 2] not in result["untwisted"]
        trace = symmetry_trace(modular_data("A1", 2), (1, 1, 1), (0, 2, 2))
        assert result["tuple_trace"] == [trace.real, trace.imag]

    def test_never_reports_wrong_dims_past_the_trace_precision(self):
        doc, status = run_json(
            ["trace", "A1", "--level", "10", "--conjecture", "1",
             "--insertions", "5,5", "--genus", "12"]
        )
        rank = 88875941870257607540736
        if status == EXIT_OK:
            assert doc["result"]["rank"] == rank
            assert sorted(doc["result"]["dims"].values()) == sorted(
                [(rank + 2176782336) // 2, (rank - 2176782336) // 2]
            )
        else:
            assert status == EXIT_PRECISION
            assert doc["error"]["code"] == "precision-exhausted"


class TestFailureReports:
    def test_cap_exceeded_has_code_and_no_partial_result(self):
        doc, status = run_json(
            ["modular-data", "E8", "--level", "2", "--weyl-cap", "2000"]
        )
        assert status == EXIT_CAP
        assert doc["error"]["code"] == "cap-exceeded"
        assert doc["error"]["cap"] == 2000
        assert "result" not in doc

    def test_cap_counts_the_cosets_of_the_determinant_route(self):
        # A9 sums over one coset; A2 (|W| = 6) sums over its elements
        doc, status = run_json(["check", "A9", "--level", "1", "--weyl-cap", "1"])
        assert status == EXIT_OK
        assert doc["result"]["center_match"] is True
        doc, status = run_json(["modular-data", "A2", "--level", "2", "--weyl-cap", "5"])
        assert status == EXIT_CAP
        assert doc["error"]["code"] == "cap-exceeded"
        assert "result" not in doc

    def test_unsupported_folding_has_its_own_code(self):
        doc, status = run_json(["boundary", "A3", "--level", "2", "--group", "center"])
        assert status == EXIT_UNSUPPORTED
        assert doc["error"]["code"] == "unsupported"

    @pytest.mark.parametrize(
        "algebra,group,current",
        [("A3", "5", "(0, 2, 0)"), ("C2", "center", "(0, 2)"), ("D4", "center", "(0, 0, 0, 2)")],
    )
    def test_extension_without_fixed_point_matrix_is_unsupported(self, algebra, group, current):
        doc, status = run_json(["extend", algebra, "--level", "2", "--group", group])
        assert status == EXIT_UNSUPPORTED
        assert doc["error"]["code"] == "unsupported"
        assert doc["error"]["message"] == (
            f"no fixed-point S matrix available for current {current} of {algebra} level 2"
        )

    @pytest.mark.parametrize("level", [2, 6, 10])
    def test_charged_fixed_point_boundary_is_unsupported(self, level):
        doc, status = run_json(
            ["boundary", "A1", "--level", str(level), "--group", "center"]
        )
        assert status == EXIT_UNSUPPORTED
        assert doc["error"]["code"] == "unsupported"
        assert f"label ({level // 2},)" in doc["error"]["message"]

    @pytest.mark.parametrize("level", [4, 40])
    def test_uncharged_fixed_point_boundary_still_runs(self, level):
        doc, status = run_json(
            ["boundary", "A1", "--level", str(level), "--group", "center"]
        )
        assert status == EXIT_OK
        assert doc["result"]["dim"] == level // 2 + 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("genus", [300, 700])
    def test_trace_past_float_range_has_its_own_code(self, genus, capsys):
        doc, status = run_json(
            ["trace", "A1", "--level", "4", *CONJ1, "--insertions", "2,2", "--genus", str(genus)]
        )
        assert status == EXIT_PRECISION
        assert doc["error"]["code"] == "precision-exhausted"
        assert doc["error"]["type"] == "PrecisionExhausted"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "group,message",
        [
            ("x", "--group must be 'center', 'trivial', or comma-separated label indices, got 'x'"),
            ("1", "label index 1 is not a simple current"),
        ],
    )
    def test_malformed_group_is_a_parse_error(self, group, message):
        doc, status = run_json(["extend", "A1", "--level", "4", "--group", group])
        assert status == EXIT_PARSE
        assert doc["error"] == {"code": "parse-error", "message": message, "type": "PreconditionError"}

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

    def test_failing_rows_exit_invariant(self):
        # a cap of one coset stops every level; each failure is a row, and
        # the sweep exits 2 whatever the rows' own error codes
        argv = ["sweep", "A1", "--levels", "1-3", "--weyl-cap", "1"]
        text, status = run(config_from_args(argv))
        assert status == EXIT_INVARIANT
        rows = text.strip().split("\n")[1:]
        assert [row.split(",")[:3] for row in rows] == [
            ["A1", str(level), "cap-exceeded"] for level in (1, 2, 3)
        ]
        doc, status = run_json(argv + ["--format", "json"])
        assert status == EXIT_INVARIANT
        assert doc["status"] == "error"
        assert [row["status"] for row in doc["rows"]] == ["cap-exceeded"] * 3


class TestCache:
    def test_roundtrip_is_bit_for_bit(self, tmp_path):
        md = modular_data("A1", 1)
        save_modular_data(md, tmp_path)
        loaded = load_modular_data("A1", 1, tmp_path)
        assert loaded.labels == md.labels
        assert loaded.delta == md.delta
        assert np.array_equal(loaded.smatrix, md.smatrix)

    def test_hit_skips_weyl_traversal(self, tmp_path, coset_walks):
        argv = ["modular-data", "A2", "--level", "2", "--cache-dir", str(tmp_path)]
        _, status = run_json(argv)
        assert status == EXIT_OK
        assert len(coset_walks) == 1
        _, status = run_json(argv)
        assert status == EXIT_OK
        assert len(coset_walks) == 1

    @pytest.mark.parametrize("label", ["a1", " A1"])
    def test_a_label_hits_the_entry_of_its_canonical_name(self, tmp_path, coset_walks, label):
        modular_data("A1", 3, cache_dir=tmp_path)
        before = len(coset_walks)
        assert modular_data(label, 3, cache_dir=tmp_path).algebra == "A1"
        assert len(coset_walks) == before
        assert [path.name for path in tmp_path.iterdir()] == ["A1_k3.json"]

    def test_corrupt_entry_recomputes_with_warning(self, tmp_path):
        md = modular_data("A1", 2)
        save_modular_data(md, tmp_path)
        cache_path("A1", 2, tmp_path).write_text("{not json")
        with pytest.warns(UserWarning, match="unreadable cache"):
            again = modular_data("A1", 2, cache_dir=tmp_path)
        assert np.allclose(again.smatrix, md.smatrix)

    def test_stale_schema_is_invalidated(self, tmp_path, coset_walks):
        md = modular_data("A1", 2)
        path = save_modular_data(md, tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        before = len(coset_walks)
        with pytest.warns(UserWarning, match="stale cache .*schema 999"):
            again = modular_data("A1", 2, cache_dir=tmp_path)
        assert len(coset_walks) == before + 1
        assert np.allclose(again.smatrix, md.smatrix)

    def test_over_long_cache_directory_is_refused_before_s_is_built(self, tmp_path, coset_walks):
        cache_dir = str(tmp_path / ("x" * 300))
        doc, status = run_json(["modular-data", "A1", "--level", "2", "--cache-dir", cache_dir])
        assert status == EXIT_PARSE
        assert doc["error"]["code"] == "parse-error"
        assert repr(cache_dir) in doc["error"]["message"]
        with pytest.raises(PreconditionError, match="is unusable"):
            modular_data("A1", 2, cache_dir=cache_dir)
        assert coset_walks == []

    def test_refused_write_is_a_precondition_error(self, tmp_path):
        afile = tmp_path / "afile"
        afile.touch()
        with pytest.raises(PreconditionError, match="is unusable"):
            modular_data("A1", 2, cache_dir=afile / "sub")
        with pytest.raises(PreconditionError, match="is unusable"):
            save_modular_data(modular_data("A1", 2), afile)

    def test_mismatched_payload_is_rejected(self, tmp_path):
        md = modular_data("A1", 2)
        path = save_modular_data(md, tmp_path)
        payload = json.loads(path.read_text())
        payload["level"] = 3
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            result = load_modular_data("A1", 2, tmp_path)
        assert result is None
