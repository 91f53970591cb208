"""Fixtures shared by the test modules."""

import pytest

import uquery.depth
import uquery.measures


@pytest.fixture
def both_paths(monkeypatch):
    """An iterator that yields twice: first with the paths a table of its
    size takes, then with those of large tables (uint64 bitsets from 64
    cells on, the query axes found one frontier at a time), here one
    axis per pass.  The memoized bitset layouts and measure arrays are
    dropped at each switch, so each pass builds its own."""
    def clear():
        uquery.depth._layout.cache_clear()
        uquery.measures._tabulate.cache_clear()

    def paths():
        yield
        monkeypatch.setattr(uquery.depth, "_SMALL_CELLS", 0)
        monkeypatch.setattr(uquery.depth, "_CHUNK", 0)
        clear()
        yield
    yield paths()
    monkeypatch.undo()
    clear()
