"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import wzwkit.affine as affine


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
