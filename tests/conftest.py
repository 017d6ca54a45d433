"""Fixtures shared by the test modules."""

from __future__ import annotations

import math

import numpy as np
import pytest

import wzwkit.affine as affine
import wzwkit.blocks as blocks
import wzwkit.simplecurrent as simplecurrent


@pytest.fixture
def coset_walks(monkeypatch):
    """List that grows by one for every walk of W/W_J the S-matrix sum starts."""
    calls = []
    original = affine.weyl_cosets

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(affine, "weyl_cosets", counted)
    return calls


def per_row_untwisted_rows(tables, rows):
    """``simplecurrent._untwisted_rows`` as a loop over rows: each row's
    cocycle against all rows, in both directions, as int64 numerators."""
    d = math.lcm(*(e.denominator for table in tables for line in table for e in line))
    nums = [np.array([[int(e * d) for e in line] for line in table], np.int64) for table in tables]
    keep = []
    for i, row in enumerate(rows):
        ahead = sum(num[pos, column] for num, pos, column in zip(nums, row, rows.T))
        behind = sum(num[column, pos] for num, pos, column in zip(nums, row, rows.T))
        if not (ahead % d).any() and not (behind % d).any():
            keep.append(i)
    return keep


@pytest.fixture(autouse=True)
def untwisted_rows_match_the_per_row_loop(monkeypatch):
    """Every tuple set a test builds is also sorted by ``per_row_untwisted_rows``,
    which must keep the same rows."""
    blocked = simplecurrent._untwisted_rows

    def checked(tables, rows):
        keep = blocked(tables, rows)
        assert keep == per_row_untwisted_rows(tables, rows)
        return keep

    for module in (simplecurrent, blocks):
        monkeypatch.setattr(module, "_untwisted_rows", checked)
