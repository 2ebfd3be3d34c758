"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def no_draws(monkeypatch):
    """Any path normal drawn fails the test."""
    from sde_remle import simulate

    def draw(*args, **kwargs):
        raise AssertionError("a normal was drawn before the input was checked")

    monkeypatch.setattr(simulate, "path_normals", draw)
