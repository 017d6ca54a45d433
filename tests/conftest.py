"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import wzwkit.affine as affine


@pytest.fixture
def weyl_traversals(monkeypatch):
    """List that grows by one for every Weyl traversal the S-matrix sum starts."""
    calls = []
    original = affine.weyl_traverse

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(affine, "weyl_traverse", counted)
    return calls
