"""Fixtures shared by the test modules."""

import pytest

from foldmap import experiments


@pytest.fixture
def split_runs(monkeypatch):
    """split_runs(rows, blocks): the runs that follow fold a run of `rows`
    rows in `blocks` blocks of at most ceil(rows / blocks) rows each."""
    def split(rows, blocks):
        monkeypatch.setattr(experiments, "_TRIAL_BLOCK", -(-rows // blocks))
    return split
