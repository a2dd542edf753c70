"""The quick grid's golden digests (see ``golden.py``).

A failure names every cell whose result bytes moved.  If the change is
meant to move them, regenerate with ``PYTHONPATH=src python
tests/golden.py --write quick`` (and ``--write suite``) and say why in
the change description.
"""

import pytest

import golden

#: Knobs that change results (or, for REPRO_TRACE, force full-detail
#: runs); the goldens describe the default engine, so none may leak in.
RESULT_KNOBS = ("REPRO_FF", "REPRO_TRACE", "REPRO_FAULT")


@pytest.fixture
def clean_env(monkeypatch):
    for key in RESULT_KNOBS:
        monkeypatch.delenv(key, raising=False)


def test_quick_grid_matches_golden_digests(clean_env):
    expected = golden.load()["quick"]["cells"]
    actual = golden.cell_digests("quick")
    assert len(actual) == 32
    assert golden.mismatches({"cells": expected}, {"cells": actual}) == []


def test_traced_event_streams_match_golden_digests(clean_env):
    expected = golden.load()["quick"]["traced"]
    actual = golden.traced_digests()
    assert sorted(actual) == ["rfp/spec06_mcf", "vp-composite/spec06_mcf"]
    assert golden.mismatches({"traced": expected}, {"traced": actual}) == []
