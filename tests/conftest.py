"""Fixtures shared by the test modules."""

import pytest

import uquery.depth
import uquery.measures


@pytest.fixture
def both_paths(monkeypatch):
    """An iterator that yields twice: first with the paths a table of its
    size takes, then with those of large tables: uint64 bitsets from 64
    cells on, the query axes found one frontier at a time, here one
    axis per pass, whole-array levels run in blocks, here of one word
    each, so that every word axis numbers blocks, and levels run on the
    words that can still gain bits, here from level 4 on, the first with
    words that cannot, and certificate sizes built a slab at a time, here
    of two axes.  The memoized bitset layouts and measure arrays are
    dropped at each switch, so each pass builds its own."""
    def clear():
        uquery.depth._layout.cache_clear()
        uquery.depth._side_by_side.cache_clear()
        uquery.measures._tabulated.clear()

    def paths():
        yield
        monkeypatch.setattr(uquery.depth, "_SMALL_CELLS", 0)
        monkeypatch.setattr(uquery.depth, "_CHUNK", 0)
        monkeypatch.setattr(uquery.depth, "_BLOCK_WORDS", 1)
        monkeypatch.setattr(uquery.depth, "_GATHER_SHARE", 1)
        monkeypatch.setattr(uquery.measures, "_SLAB_AXES", 2)
        clear()
        yield
    yield paths()
    monkeypatch.undo()
    clear()
