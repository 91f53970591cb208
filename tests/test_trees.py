"""Optimal decision trees for the binary and ternary query models."""

import functools
import hashlib
import io
import itertools
import json
import pickle
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

import reference as R
from test_measure_arrays import _mixed_batch
import uquery.measures
import uquery.trees
from uquery import ArityCapError, BooleanFunction, HazardFreeTable, generate, hazard_free_table
from uquery.algorithms import Oracle, algorithm1_tree, tree_solver, unate_solver
from uquery.core import UNKNOWN, Orientation, TernaryString
from uquery.depth import (
    _depth_levels,
    _forced_bits,
    _forced_words,
    _layout,
    _level_reader,
    _optimal_trees,
    query_complexity,
    query_complexity_u,
)
from uquery.trees import (
    TRIT_KEYS,
    DecisionTree,
    TreeFormatError,
    _join_trees,
    _leaf_grid,
    _split_trees,
    evaluate_tree,
    parse_tree,
    serialize_tree,
    sorted_tree_text,
    tree_depth,
    tree_from_json_dict,
    tree_to_json_dict,
    verify_tree,
    verify_trees,
    write_indented_tree,
)
from uquery.verification import monotone_functions

# spec -> (binary depth, ternary depth)
KNOWN_DEPTHS = {
    "or:1": (1, 1),
    "or:2": (2, 2),
    "or:3": (3, 3),
    "or:4": (4, 4),
    "and:3": (3, 3),
    "parity:3": (3, 3),
    "maj:3": (3, 3),
    "ind:1": (2, 3),
    "ind:2": (3, 6),
    "mind:2": (3, 3),
}


@pytest.mark.parametrize("spec,want", sorted(KNOWN_DEPTHS.items()))
def test_known_depths(spec, want):
    f = generate(spec)
    table = hazard_free_table(f)
    d, tree = query_complexity(table)
    du, tree_u = query_complexity_u(table)
    assert (d, du) == want
    assert tree_depth(tree) == d
    assert tree_depth(tree_u) == du


def _sampled_functions():
    """Every table with n <= 3, then seeded n = 4 tables.

    The n = 3 tables start with a seeded sample (its repeats included),
    followed by the rest in order, so earlier test ids stay as they were.
    """
    for n in (1, 2):
        for bits in range(1 << (1 << n)):
            yield n, bits
    rng = random.Random(11)
    sample = [rng.getrandbits(8) for _ in range(20)]
    for bits in sample + sorted(set(range(256)) - set(sample)):
        yield 3, bits
    for _ in range(24):
        yield 4, rng.getrandbits(16)


@pytest.mark.parametrize("n,bits", list(_sampled_functions()))
def test_depths_match_brute_force(n, bits):
    f = BooleanFunction(n, bits)
    table = hazard_free_table(f)
    d, tree = query_complexity(table)
    du, tree_u = query_complexity_u(table)
    assert d == R.depth(bits, n)
    assert du == R.depth_u(R.full_table(bits, n), n)
    # returned trees attain the optimum and compute the right values
    assert tree_depth(tree) == d
    assert tree_depth(tree_u) == du
    ok, counterexample = verify_tree(tree_u, table)
    assert ok and counterexample is None
    for i in range(1 << n):
        y = format(i, f"0{n}b")
        assert evaluate_tree(tree, y) == f.evaluate(y)
    assert parse_tree(serialize_tree(tree_u)) == tree_u


# sha256 of the sorted-key JSON of (D, D_u and both trees), one line per
# function, over every monotone function of 4 variables and ind:1..3,
# mind:2 and mind:4.  Recorded from the memoized minimax searches that the
# layered kernel replaced.
TREE_DIGEST = "415ff7d8fc154ee92b6cff3673c0c7eb2e788a7ee013ea66f47d0b1e802c8ea6"


def test_trees_byte_identical():
    functions = monotone_functions(4) + [
        generate(spec) for spec in ("ind:1", "ind:2", "ind:3", "mind:2", "mind:4")]
    digest = hashlib.sha256()
    for f in functions:
        table = hazard_free_table(f)
        d, tree = query_complexity(table)
        du, tree_u = query_complexity_u(table)
        record = {"D": d, "D_u": du, "tree": tree_to_json_dict(tree),
                  "tree_u": tree_to_json_dict(tree_u)}
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == TREE_DIGEST


def _kernel_tables(n, count):
    """Every table of arity n <= 3, else ``count`` seeded ones."""
    if n <= 3:
        return range(1 << (1 << n))
    rng = random.Random(800 + n)
    return [rng.getrandbits(1 << n) for _ in range(count)]


MODELS = ((0, 1, UNKNOWN), (0, 1))  # the answers of the u-model and the classical model


def _reference_grid(table, answers):
    """The array the reference kernels read: one axis per variable,
    indexed by ``answers`` and then * (``len(answers)``), 0 where the
    value is forced and 1 elsewhere; classically the hazard-free table
    with u read as *."""
    if len(answers) == 3:
        return (_forced_values(table) == _OPEN).astype(np.uint8)
    return np.frombuffer(table.values, dtype=np.uint8).reshape((3,) * table.arity) >> 1


_OPEN = 3  # a cell whose completions disagree; never a table value


@functools.cache
def _forced_values(table):
    """Per cell of {0, 1, u, *}^n, the value ``reference.forced_value``
    finds every completion of the table taking, or ``_OPEN``."""
    n = table.arity
    values = dict(zip(itertools.product((0, 1, UNKNOWN), repeat=n), table.values))
    grid = np.empty((4,) * n, dtype=np.uint8)
    for cell in itertools.product(range(4), repeat=n):
        value = R.forced_value(values, cell)
        grid[cell] = _OPEN if value is None else value
    grid.flags.writeable = False  # shared through the cache
    return grid


def _cell_levels(table, answers):
    """The depth the level search finds and the level of every cell, in
    the layout of ``_reference_grid``.  The bitsets keep the in-word
    axes in base 4 in both models, so the classical u digit is dropped."""
    n = table.arity
    size = _layout(n, answers).size
    depths, planes = _depth_levels(_forced_bits([table], answers), n, answers)
    level = np.zeros(size, dtype=np.uint8)
    for j, plane in enumerate(planes[:, 0]):
        level |= np.unpackbits(plane, count=size, bitorder="little") << j
    inner, base = min(n, 3), len(answers) + 1
    level = level.reshape((base,) * (n - inner) + (4,) * inner)
    for axis in range(n - inner, n):
        level = np.take(level, list(answers) + [3], axis=axis)
    return int(depths[0]), level


@pytest.mark.parametrize("n", range(1, 7))
def test_forced_bits_match_the_forced_table(both_paths, n):
    """L_0 of the u-model, keyed by base-4 code, marks the cells whose
    completions ``reference.forced_value`` finds taking one value, and
    that value is the table's at the completion with 0 at every *, the
    value the measures read; classically L_0 marks the cells where the
    table, read with u at every * (and at the u digit the in-word axes
    keep), is 0 or 1."""
    inner = min(n, 3)
    codes = np.zeros(1, dtype=np.intp)  # the ternary code read at each classical cell
    zero_fill = np.zeros(1, dtype=np.intp)  # that of each u-model cell with 0 at every *
    for axis in range(n):
        digits = [0, 1, UNKNOWN] + ([UNKNOWN] if axis >= n - inner else [])
        codes = (3 * codes[:, None] + digits).reshape(-1)
        zero_fill = (3 * zero_fill[:, None] + [0, 1, UNKNOWN, 0]).reshape(-1)
    for _ in both_paths:
        for bits in _kernel_tables(n, 30):
            table = hazard_free_table(BooleanFunction(n, bits))
            values = np.frombuffer(table.values, dtype=np.uint8)
            size = _layout(n, MODELS[0]).size
            forced = np.unpackbits(_forced_bits([table], MODELS[0])[0], count=size, bitorder="little")
            want = _forced_values(table).reshape(-1)
            assert (forced == (want != _OPEN)).all()
            assert (values[zero_fill] == want)[want != _OPEN].all()
            classical = np.packbits(values[codes] != UNKNOWN, bitorder="little")
            assert _forced_bits([table], MODELS[1]).tobytes() == classical.tobytes()


# The sha256 of the bytes of the u-model's L_0 that ``_forced_bits``
# gives every table at n <= 3, one batch per arity and then each table
# alone, and mixed batches (``_mixed_batch``) of 1, 2, 7 and 100 tables
# at n = 4-6, recorded when L_0 was still merged in one Python int below
# 2**16 cells.
FORCED_DIGEST = "2b45454422ae342154a2ab8e686fbda7ac1c2c4f2e2d410947e5484d16ca6b55"


def test_forced_bits_reproduce_the_recorded_bytes():
    digest = hashlib.sha256()
    for n in (1, 2, 3):
        tables = [hazard_free_table(BooleanFunction(n, bits)) for bits in range(1 << (1 << n))]
        digest.update(_forced_bits(tables, MODELS[0]).tobytes())
        for table in tables:
            digest.update(_forced_bits([table], MODELS[0]).tobytes())
    for n in (4, 5, 6):
        for count in (1, 2, 7, 100):
            digest.update(_forced_bits(_mixed_batch(n, count, 4500 + 10 * n + count), MODELS[0]).tobytes())
    assert digest.hexdigest() == FORCED_DIGEST


def test_forced_words_match_the_word_loop():
    """The u-model's L_0 merge gives the bytes of the merge that ORed
    every plane into L_0 word by word (``reference.forced_words``) on
    every table at n <= 3, in one batch per arity and each alone, and on
    mixed batches of 1, 7 and 100 tables at n = 4-6, as a writable uint8
    array."""
    batches = []
    for n in (1, 2, 3):
        tables = [hazard_free_table(BooleanFunction(n, bits)) for bits in range(1 << (1 << n))]
        batches += [tables] + [[table] for table in tables]
    batches += [_mixed_batch(n, count, 4700 + 10 * n + count) for n in (4, 5, 6) for count in (1, 7, 100)]
    for tables in batches:
        n = tables[0].arity
        grids = np.stack([np.frombuffer(table.values, dtype=np.uint8) for table in tables])
        got = _forced_words(grids, n, MODELS[0])
        assert got.dtype == np.uint8 and got.flags.writeable
        assert got.shape == (len(tables), _layout(n, MODELS[0]).nbytes)
        assert np.array_equal(got, R.forced_words(grids, n, MODELS[0]))


@pytest.mark.parametrize("n", range(1, 8))
def test_bitsets_leave_the_search_as_bytes(both_paths, n):
    """``_forced_bits`` gives L_0 of a batch as a writable uint8 array of
    ceil(size / 8) bytes a table, and on both routes of the level loop,
    ints below 2**16 cells and uint64 arrays from 64 cells on,
    ``_depth_levels`` gives each table's D and the level planes as one
    (m, tables, ceil(size / 8)) uint8 array; both routes give the same
    bytes in both models."""
    tables = [hazard_free_table(BooleanFunction(n, bits)) for bits in _kernel_tables(n, 10)]
    m = (n + 1).bit_length()
    runs = []
    for _ in both_paths:
        run = []
        for answers in MODELS:
            nbytes = -(-_layout(n, answers).size // 8)
            forced = _forced_bits(tables, answers)
            assert forced.dtype == np.uint8 and forced.shape == (len(tables), nbytes)
            assert forced.flags.writeable
            run.append(forced.tobytes())  # before the levels grow it
            depths, planes = _depth_levels(forced, n, answers)
            assert planes.dtype == np.uint8 and planes.shape == (m, len(tables), nbytes)
            run.append((depths, planes.tobytes()))
        runs.append(run)
    assert runs[0] == runs[1]


def test_forced_bits_keep_no_byte_per_cell():
    """The u-model's merge packs the bool planes of the cells without a *,
    a byte per cell, and frees them before it spreads the words of the
    * cells: at n = 12 building L_0 of the u-model peaks below 0.4 bytes
    per cell of {0, 1, u, *}^n, where holding the planes read 0.54."""
    table = hazard_free_table(generate("random:12:1"))
    want = _forced_bits([table], MODELS[0]).tobytes()  # the cached step tables
    tracemalloc.start()
    try:
        forced = _forced_bits([table], MODELS[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forced.tobytes() == want
    assert peak < 0.4 * 4 ** table.arity, peak / 4 ** table.arity


@pytest.mark.parametrize("m", range(1, 7))
def test_level_reader_decodes_the_planes(m):
    """The lookup reads, at every key, the level whose bit j is the key's
    bit in plane j, for 1 to 6 planes given as one (m, bytes) array, and
    wraps a negative key round from the end."""
    rng = np.random.default_rng(m)
    size = 64 * 40
    planes = rng.integers(0, 1 << 8, (m, size // 8), dtype=np.uint8, endpoint=False)
    want = np.zeros(size, dtype=np.int64)
    for j, plane in enumerate(planes):
        want |= np.unpackbits(plane, bitorder="little").astype(np.int64) << j
    assert want.max() == 2 ** m - 1
    keys = np.arange(-size, size)
    assert (_level_reader(planes)(keys) == np.tile(want, 2)).all()


def test_level_reader_reads_the_planes_in_place():
    """Building the lookup over the (m, bytes) planes of arity 12 in the
    u-model, 8 MB, allocates under 1% of their bytes: it copies none."""
    size = _layout(12, MODELS[0]).size
    planes = np.zeros(((12 + 1).bit_length(), size // 8), dtype=np.uint8)
    tracemalloc.start()
    try:
        _level_reader(planes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < planes.nbytes / 100, (peak, planes.nbytes)


@pytest.mark.parametrize("n", range(1, 7))
def test_depth_kernel_matches_the_far_start(both_paths, n):
    """The level search gives the depth and tree of the byte relaxation
    that starts every open cell far away; the trees are compared as
    serialized text, so that a wrong tree is reported in one line."""
    for _ in both_paths:
        for bits in _kernel_tables(n, 30):
            table = hazard_free_table(BooleanFunction(n, bits))
            for answers in MODELS:
                (got,) = _optimal_trees([table], answers)
                want = R.far_start_tree(_reference_grid(table, answers), len(answers),
                                        answers, table.values)
                assert got[0] == want[0]
                _assert_same_text(serialize_tree(got[1]), json.dumps(want[1], separators=(",", ":")))


@pytest.mark.parametrize("n", range(1, 7))
def test_depth_search_packs_the_measure_arrays_cells(both_paths, n):
    """Given the forced cells the measure arrays hold, the u-model search
    finds the depth and tree it finds building its L_0 from the table."""
    for _ in both_paths:
        for bits in _kernel_tables(n, 10):
            table = hazard_free_table(BooleanFunction(n, bits))
            forced = uquery.measures._measure_arrays(table).forced
            assert query_complexity_u(table, forced=forced) == query_complexity_u(table)


@pytest.mark.parametrize("n", range(1, 7))
def test_layered_tree_matches_the_recursive_reading(both_paths, n):
    """The tree read layer by layer off the level planes serializes to
    the JSON of the tree the recursive reading gives on the same levels."""
    for _ in both_paths:
        for bits in _kernel_tables(n, 20):
            table = hazard_free_table(BooleanFunction(n, bits))
            for answers in MODELS:
                ((_, tree),) = _optimal_trees([table], answers)
                _, level = _cell_levels(table, answers)
                want = R.read_tree(level, len(answers), answers, table.values)
                _assert_same_text(serialize_tree(tree), json.dumps(want, separators=(",", ":")))


@pytest.mark.parametrize("n,count", [(1, 0), (2, 0), (3, 0), (4, 6), (5, 2), (6, 1)])
def test_relaxed_depths_against_the_minimax(both_paths, n, count):
    """No cell's level is below its minimax depth; every cell of depth at
    most D reads it exactly and every other reads the mark above any
    depth; the root and every cell on the returned tree's paths read
    exactly their depth."""
    for _ in both_paths:
        for bits in _kernel_tables(n, count):
            table = hazard_free_table(BooleanFunction(n, bits))
            minimax = (R.cell_depths_u(R.full_table(bits, n), n), R.cell_depths(bits, n))
            for answers, exact in zip(MODELS, minimax):
                star = len(answers)
                ((d, tree),) = _optimal_trees([table], answers)
                depth, grid = _cell_levels(table, answers)
                assert depth == d
                unreached = 2 ** (n + 1).bit_length() - 1

                def want(cell):  # the reference writes * as 3
                    return exact(tuple(3 if c == star else c for c in cell))

                assert all(grid[cell] >= want(cell) for cell in np.ndindex(grid.shape))
                assert all(grid[cell] == (want(cell) if want(cell) <= d else unreached)
                           for cell in np.ndindex(grid.shape))
                root = (star,) * n
                assert grid[root] == d == want(root)
                kids = _first_children(tree)[1]
                todo = [(0, root)]
                while todo:
                    i, cell = todo.pop()
                    assert grid[cell] == want(cell)
                    if tree.var[i]:
                        p = tree.var[i] - 1
                        todo.extend((kids[i] + j, cell[:p] + (a,) + cell[p + 1:])
                                    for j, a in enumerate(answers))


@pytest.mark.parametrize("n,count", [(1, 0), (2, 0), (3, 0), (4, 20), (5, 6), (6, 2)])
def test_no_cell_level_exceeds_its_stars(both_paths, n, count):
    """A cell with j *s has depth at most j, as querying its j free
    variables decides it, so every cell's level is at most its count of
    *s unless the cell reads the unreached mark (a classical cell with a
    u digit in a word, which never grows).  The gathered levels skip the
    words this bound leaves dead; the second pass gathers every level
    from 4 on, so it runs them at n = 4-6."""
    for _ in both_paths:
        gathered = False
        for bits in _kernel_tables(n, count):
            table = hazard_free_table(BooleanFunction(n, bits))
            for answers in MODELS:
                depth, level = _cell_levels(table, answers)
                gathered |= depth >= _layout(n, answers).gather
                stars = sum(np.indices(level.shape) == len(answers))
                unreached = 2 ** (n + 1).bit_length() - 1
                assert ((level <= stars) | (level == unreached)).all()
    assert gathered == (n >= 4)


def _level_bytes(monkeypatch, tables, n, answers, **settings):
    """The depth and the bytes of each level plane of every table, with
    the module's settings patched as given and fresh layouts."""
    for name, value in settings.items():
        monkeypatch.setattr(uquery.depth, name, value)
    uquery.depth._layout.cache_clear()
    run = []
    for table in tables:
        depths, planes = _depth_levels(_forced_bits([table], answers), n, answers)
        run.append((int(depths[0]), [plane.tobytes() for plane in planes[:, 0]]))
    monkeypatch.undo()
    uquery.depth._layout.cache_clear()
    return run


def _searched_alone(tables, answers):
    """Per table searched as a batch of one: its D and tree, and the
    bytes of its level planes."""
    out = []
    for table in tables:
        (found,) = _optimal_trees([table], answers)
        depths, planes = _depth_levels(_forced_bits([table], answers), table.arity, answers)
        assert depths == [found[0]]
        out.append((found, planes[:, 0].tobytes()))
    return out


def _searched_together(tables, answers):
    """The same, the tables searched as one batch."""
    found = _optimal_trees(tables, answers)
    depths, planes = _depth_levels(_forced_bits(tables, answers), tables[0].arity, answers)
    assert depths == [d for d, _ in found]
    return [(pair, planes[:, t].tobytes()) for t, pair in enumerate(found)]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_a_batch_of_every_table_searches_as_each_alone(n):
    """Every table of arity n as one batch gets the depth, the tree and
    the level planes it gets alone, in both models."""
    tables = [hazard_free_table(BooleanFunction(n, bits)) for bits in range(1 << (1 << n))]
    for answers in MODELS:
        assert _searched_together(tables, answers) == _searched_alone(tables, answers)


@pytest.mark.parametrize("count", (1, 2, 7, 100))
@pytest.mark.parametrize("n", (4, 5, 6))
def test_seeded_batches_search_as_each_alone(n, count):
    """Batches of 1 to 100 seeded tables at n = 4-6, with constant
    tables and tables wrong at their all-u entry among them, whose
    tables' roots enter at different levels, search as each alone."""
    tables = _mixed_batch(n, count, 7100 + 10 * n + count)
    for answers in MODELS:
        assert _searched_together(tables, answers) == _searched_alone(tables, answers)


@pytest.mark.parametrize("n", (3, 5))
def test_a_batch_on_the_array_route_searches_as_each_alone(both_paths, n):
    """On the array route, forced by the fixture's second pass, a batch
    runs one table at a time and gives what the int route gives."""
    tables = _mixed_batch(n, 7, 7300 + n)
    runs = []
    for _ in both_paths:
        run = [_searched_together(tables, answers) for answers in MODELS]
        assert run == [_searched_alone(tables, answers) for answers in MODELS]
        runs.append(run)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n,answers", [(8, MODELS[0]), (9, MODELS[0]), (10, MODELS[1])])
def test_gathered_levels_match_the_full_levels(monkeypatch, n, answers):
    """The depth and level planes are the same whether every level runs
    on the whole array, the levels switch to the live words at the
    default share, or every level from 4 on runs on them, and whether
    the whole-array levels run in one block, in blocks of the default
    size or in blocks of the last two word axes (16 words in the u-model,
    9 classically), 64 to 256 of them."""
    tables = [hazard_free_table(BooleanFunction(n, bits)) for bits in _kernel_tables(n, 3)]
    results = [_level_bytes(monkeypatch, tables, n, answers,
                            _GATHER_SHARE=share, _BLOCK_WORDS=words)
               for share in (0, uquery.depth._GATHER_SHARE, 1)
               for words in (1 << 30, uquery.depth._BLOCK_WORDS, (len(answers) + 1) ** 2)]
    assert all(run == results[0] for run in results)


def test_blocked_levels_match_at_n_12(monkeypatch):
    """On two seeded arity-12 tables the u-model levels give the same
    depth and plane bytes in the default blocks (16 of them) as in blocks
    of 4**4 words, 1,024 of them in *s-descending order."""
    tables = [hazard_free_table(generate(f"random:12:{seed}")) for seed in (3, 4)]
    assert len(_layout(12, MODELS[0]).blocks) == 16
    small = _level_bytes(monkeypatch, tables, 12, MODELS[0], _BLOCK_WORDS=4 ** 4)
    assert small == _level_bytes(monkeypatch, tables, 12, MODELS[0])
    assert [depth for depth, _ in small] == [12, 12]


def test_binary_tree_rejects_unresolved_input():
    _, tree = query_complexity(hazard_free_table(generate("or:2")))
    with pytest.raises(ValueError):
        evaluate_tree(tree, "0u")


def test_only_classical_trees_reject_a_u_answer():
    """A classical tree raises on a u its path reads, and says that it is
    classical, whether evaluated or run as a solver; a u its path does not
    read is fine.  A u-model tree cannot lack onU on any node, so it takes
    every ternary input."""
    table = hazard_free_table(generate("or:2"))
    _, tree = query_complexity(table)
    assert tree.var.tolist()[:2] == [1, 2] and evaluate_tree(tree, "1u") == 1
    with pytest.raises(ValueError, match="^classical tree evaluated on an unresolved input$"):
        evaluate_tree(tree, "0u")
    with pytest.raises(ValueError, match="^classical tree received a u answer$"):
        tree_solver(tree)(Oracle("0u"))
    _, tree_u = query_complexity_u(table)
    obj = tree_to_json_dict(tree_u)
    on0 = {key: kid for key, kid in obj["on0"].items() if key != "onU"}
    with pytest.raises(TreeFormatError, match=r"^\$\.on0: missing child 'onU'$"):
        tree_from_json_dict({**obj, "on0": on0})
    for x in R.ternary_strings(2):
        assert evaluate_tree(tree_u, x) == tree_solver(tree_u)(Oracle(x)) == table.evaluate(x)


def test_ternary_tree_handles_unresolved_input():
    table = hazard_free_table(generate("or:2"))
    _, tree = query_complexity_u(table)
    for x in R.ternary_strings(2):
        assert evaluate_tree(tree, x) == table.evaluate(x)


def test_verify_tree_flags_tampering():
    table = hazard_free_table(generate("maj:3"))
    _, tree = query_complexity_u(table)
    assert verify_tree(tree, table) == (True, None)
    tampered = tree_from_json_dict({**tree_to_json_dict(tree), "onU": {"leaf": "0"}})
    ok, x = verify_tree(tampered, table)
    assert not ok
    assert evaluate_tree(tampered, x) != table.evaluate(x)


def test_verify_tree_checks_classical_trees_on_binary_inputs():
    f = generate("maj:3")
    table = hazard_free_table(f)
    _, tree = query_complexity(table)
    assert verify_tree(tree, table) == (True, None)
    # Evaluating a classical tree on a u input raises, so a counterexample
    # at all means only binary inputs were tried; it is the least of them.
    tampered = tree_from_json_dict({**tree_to_json_dict(tree), "on1": {"leaf": "0"}})
    want = next(y for y in itertools.product((0, 1), repeat=3)
                if evaluate_tree(tampered, y) != f.evaluate(y))
    ok, x = verify_tree(tampered, table)
    assert (ok, x.trits) == (False, want) == (False, (1, 0, 1))


def _build(obj):
    """A tree from its JSON form through the ``DecisionTree`` constructor,
    laid out layer by layer, so that every check is the constructor's."""
    order, var, leaf = [obj], [], []
    for node in order:
        if "leaf" in node:
            var.append(0)
            leaf.append("01u".index(node["leaf"]))
        else:
            var.append(node["query"])
            leaf.append(0)
            order.extend(node[key] for key in TRIT_KEYS if key in node)
    return DecisionTree(var, leaf)


def _first_children(tree):
    """The test's own reading of the layout: b, read off the node count,
    1 + b times the query nodes (3 for a leaf alone), and per node the
    index its children would start at, 1 + b*k for query node k."""
    var = tree.var.tolist()
    queries = sum(v != 0 for v in var)
    base = (len(var) - 1) // queries if queries else 3
    kids = list(itertools.accumulate((base * (v != 0) for v in var[:-1]), initial=1))
    return base, kids


def _malformation(obj):
    """Why a tree in JSON form is not well formed, or None: a query node
    whose children differ from the root's (onU present in one, absent in
    the other), a variable repeated on its path, or a variable outside
    1..2**31 - 1."""
    u_model = "onU" in obj
    todo = [(obj, ())]
    while todo:
        node, above = todo.pop()
        if "leaf" in node:
            continue
        var = node["query"]
        if not 1 <= var < 2 ** 31:
            return "variable"
        if var in above:
            return "repeat"
        if ("onU" in node) != u_model:
            return "child count"
        todo.extend((node[key], above + (var,)) for key in TRIT_KEYS if key in node)
    return None


def _node(var, *kids):
    """A query node in JSON form, its children answering 0, 1 and u in order."""
    return {"query": var, **dict(zip(TRIT_KEYS, kids))}


_LEAVES = [{"leaf": value} for value in "01u"]

# Each kind of malformed tree: its JSON form, the JSON path of the node
# that makes it malformed, and that node's index in the layered arrays,
# or None where the layered arrays have no node count 1 + b*q.
MALFORMED = {
    "onU in a classical tree": (_node(1, _LEAVES[0], _node(2, *_LEAVES)), "$.on1", None),
    "onU missing in a u-model tree": (_node(1, _node(2, *_LEAVES[:2]), *_LEAVES[1:]), "$.on0", None),
    "repeat": (_node(1, _LEAVES[0], _node(1, *_LEAVES), _LEAVES[2]), "$.on1", 2),
    "variable 2**31": (_node(2, *_LEAVES[:2], _node(2 ** 31, *_LEAVES)), "$.onU", 3),
    "variable 2**70": (_node(2 ** 70, *_LEAVES[:2]), "$", 0),
    "variable 0": (_node(1, _node(0, *_LEAVES[:2]), _LEAVES[1]), "$.on0", None),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_trees_are_refused_where_they_enter(kind):
    """Each kind of malformed tree is refused by the constructor, naming
    the node, or the node count where a child count differs from the
    root's (a query of variable 0 is a leaf with children in node
    arrays), and by ``tree_from_json_dict`` and ``parse_tree``, naming
    its JSON path."""
    obj, path, node = MALFORMED[kind]
    assert _malformation(obj)
    with pytest.raises(TreeFormatError, match=r"^\d+ nodes with \d+ query nodes: " if node is None
                       else f"^node {node}: "):
        _build(obj)
    for build in (tree_from_json_dict, lambda obj: parse_tree(json.dumps(obj))):
        with pytest.raises(TreeFormatError) as refused:
            build(obj)
        assert str(refused.value).startswith(path + ": ")


@pytest.mark.parametrize("var", [2, 0, 4])
def test_verify_tree_raises_on_malformed_trees(var):
    """Below maj:3's root query of x2, on the all-0 path: a repeat of x2 or
    a query of variable 0 makes a malformed tree, refused when built; a
    query of x4, beyond the arity, makes ``verify_tree`` raise naming it."""
    table = hazard_free_table(generate("maj:3"))
    for onU in ({}, {"onU": {"leaf": "u"}}):
        inner = {"query": var, "on0": {"leaf": "0"}, "on1": {"leaf": "1"}, **onU}
        obj = {"query": 2, "on0": inner, "on1": {"leaf": "1"}, **onU}
        if var == 4:
            with pytest.raises(ValueError, match="^tree queries variable 4 outside 1..3$"):
                verify_tree(_build(obj), table)
            continue
        for build in (_build, tree_from_json_dict):
            with pytest.raises(TreeFormatError):
                build(obj)


# Node arrays that make no well-formed tree, and how the refusal's message
# begins: a fault at a node names the least such node.
BAD_NODE_ARRAYS = [
    ((0,), (-1,), "node 0: a leaf needs a trit"),
    ((0,), (3,), "node 0: a leaf needs a trit"),
    ((1, 0, 0), (0, 0, 7), "node 2: a leaf needs a trit"),  # below a query of x1
    ((0, 0, 0), (0, 0, 1), "3 nodes with 0 query nodes"),   # a query of variable 0
    ((1, 0), (0, 0), "2 nodes with 1 query nodes"),         # a query node with one child
    ((1, 0, 0), (1, 0, 1), "node 0: a query node needs leaf value 0"),
    ((1, 2, 0, 0), (0, 0, 0, 0), "4 nodes with 2 query nodes"),  # not 1 + b*q
    ((1, 0, 0, 0, 0), (0, 0, 0, 0, 0), "5 nodes with 1 query nodes"),  # b = 4
    ((0, 1, 0, 0), (0, 0, 0, 0), "node 1: a query node needs its children after it"),  # a leaf root
    ((1, 0, 0, 0, 2), (0, 0, 0, 0, 0), "node 4: a query node needs its children after it"),
    ((1, 2, 0, 1, 0, 0, 0), (0,) * 7, "node 3: variable 1 repeats along the path"),
    ((1, 2, 0, 1, 0, 0, 0), (0,) * 6 + (7,), "node 3: variable 1 repeats"),  # the least at fault
    ((-1, 0, 0), (0, 0, 0), "node 0: variable -1 is outside 1..2**31 - 1"),
    ((), (), "a tree needs one var and one leaf entry per node"),
    ((1, 0, 0), (0, 0), "a tree needs one var and one leaf entry per node"),
]


@pytest.mark.parametrize("var,leaf,first", BAD_NODE_ARRAYS,
                         ids=[f"var{i}-leaf{i}-first{i}" for i in range(len(BAD_NODE_ARRAYS))])
def test_bad_node_arrays_are_refused(var, leaf, first):
    # Leaf values are trits and variables are 1-based, so a leaf value of
    # -1, 3 or 7 or a query of variable 0 cannot be built, nor arrays that
    # do not lay out a tree: a node count other than 1 + b*q for q query
    # nodes and b = 2 or 3, or a query node k at or after node 1 + b*k,
    # where its children would start.
    with pytest.raises(TreeFormatError, match="^" + re.escape(first)):
        DecisionTree(var, leaf)


def _refusal(check, var, leaf) -> str | None:
    """The message ``check`` refuses the node arrays with, or None."""
    try:
        check(var, leaf)
    except TreeFormatError as refused:
        return str(refused)
    return None


def _plant_repeats(tree, rng, count):
    """The node arrays of a tree with ``count`` query nodes below the
    root, picked at random, each made to query the variable of one of
    its ancestors, picked at random."""
    var, leaf = np.array(tree.var), np.array(tree.leaf)
    query = var.nonzero()[0]
    base = (var.size - 1) // query.size
    for node in rng.sample(query[1:].tolist(), count):
        ancestors, j = [], node
        while j:
            j = int(query[(j - 1) // base])
            ancestors.append(j)
        var[node] = var[rng.choice(ancestors)]
    return var, leaf


@pytest.mark.parametrize("n", [4, 5, 6])
def test_planted_repeats_are_named_as_the_walk_names_them(n):
    """On seeded D, D_u and Algorithm 1 trees, each well formed as built
    and then with 1, 2 or 5 query nodes at random depths made to repeat
    an ancestor's variable, the constructor refuses exactly as the walk
    over every node's ancestors (``reference.check_layout``) does,
    naming the least node at fault."""
    rng = random.Random(9100 + n)
    for _ in range(8):
        table = hazard_free_table(BooleanFunction(n, rng.getrandbits(1 << n)))
        for tree in (query_complexity(table)[1], query_complexity_u(table)[1], algorithm1_tree(table)):
            assert _refusal(DecisionTree, tree.var, tree.leaf) is None
            below = np.count_nonzero(tree.var) - 1
            for count in sorted({min(count, below) for count in (1, 2, 5)} - {0}):
                var, leaf = _plant_repeats(tree, rng, count)
                walked = _refusal(R.check_layout, var, leaf)
                assert walked is not None and "repeats along the path" in walked
                assert _refusal(DecisionTree, var, leaf) == walked


def test_random_node_arrays_are_refused_as_the_walk_refuses_them():
    """Node arrays with query nodes at random places, so that many lay
    out no tree, small variables, so that many repeat, and a rare bad
    leaf: the constructor accepts or refuses them as the walk does."""
    rng = random.Random(9200)
    for _ in range(3000):
        base, queries = rng.choice((2, 3)), rng.randint(1, 12)
        var = np.zeros(1 + base * queries, dtype=np.int64)
        var[rng.sample(range(var.size), queries)] = [rng.randint(1, 6) for _ in range(queries)]
        leaf = np.array([rng.choice((0, 1, 2) * 20 + (3,)) for _ in var]) * (var == 0)
        assert _refusal(DecisionTree, var, leaf) == _refusal(R.check_layout, var, leaf), var.tolist()


def test_a_deep_chain_is_checked_without_walking_its_paths():
    """A classical chain of depth 100,000, the 0-child of each query node
    querying the next variable, is accepted within seconds (walking every
    query node's ancestors took 48 s on a 2-CPU x86-64 machine); with its
    deepest query asking variable 1 again, it is refused naming that
    node."""
    depth = 100_000
    var = np.zeros(2 * depth + 1, dtype=np.int64)
    var[0] = 1
    var[1:2 * depth - 2:2] = np.arange(2, depth + 1)  # query node k > 0 is node 2k - 1
    leaf = np.zeros_like(var)
    start = time.perf_counter()
    assert tree_depth(DecisionTree(var, leaf)) == depth
    assert time.perf_counter() - start < 5
    var[2 * depth - 3] = 1
    with pytest.raises(TreeFormatError, match=f"^node {2 * depth - 3}: variable 1 repeats along the path$"):
        DecisionTree(var, leaf)


def test_a_deep_chain_evaluates_in_linear_time():
    """Evaluating a classical chain of depth 100,000, the 0-child of each
    query node querying the next variable, walks its path in under half
    a second: counting the query nodes before each node afresh took 2.1-3 s
    (2-CPU x86-64).  Both answers of the deepest query reach their own
    leaf, and the solver walks the same path."""
    depth = 100_000
    var = np.zeros(2 * depth + 1, dtype=np.int64)
    var[0] = 1
    var[1:2 * depth - 2:2] = np.arange(2, depth + 1)  # query node k > 0 is node 2k - 1
    leaf = np.zeros_like(var)
    leaf[2 * depth - 1] = 1  # the 0-child of the deepest query node
    tree = DecisionTree(var, leaf)
    zeros = TernaryString((0,) * depth)
    start = time.perf_counter()
    assert evaluate_tree(tree, zeros) == 1
    assert time.perf_counter() - start < 0.5
    assert evaluate_tree(tree, TernaryString((0,) * (depth - 1) + (1,))) == 0
    assert tree_solver(tree)(Oracle(zeros)) == 1


def _replace_random_node(tree, rng, n):
    """A copy of the JSON form of a tree with one node, picked at random,
    replaced: by a random leaf, or by the same node with a variable out
    of range (0 among them) or drawn at random (possibly repeating one on
    its path), without onU, with on0 and on1 swapped, or with onU a
    random leaf.  A variable 0 or repeated, a u-model node without onU
    and a classical one with it make the tree malformed."""
    spots, todo = [], [(tree, ())]
    while todo:
        node, path = todo.pop()
        spots.append(path)
        todo.extend((node[key], path + (key,)) for key in TRIT_KEYS if key in node)
    path = rng.choice(spots)

    def rebuild(node, path):
        if path:
            return {**node, path[0]: rebuild(node[path[0]], path[1:])}
        kind = 0 if "leaf" in node else rng.randrange(5)
        if kind == 0:
            return {"leaf": "01u"[rng.randrange(3)]}
        if kind == 1:
            return {**node, "query": rng.choice((0, n + 1, rng.randint(1, n)))}
        if kind == 2:
            return {key: kid for key, kid in node.items() if key != "onU"}
        if kind == 3:
            return {**node, "on0": node["on1"], "on1": node["on0"]}
        return {**node, "onU": {"leaf": "01u"[rng.randrange(3)]}}

    return rebuild(tree, path)


def _queries(obj):
    """Every variable a tree in JSON form queries."""
    found, todo = [], [obj]
    while todo:
        node = todo.pop()
        if "query" in node:
            found.append(node["query"])
            todo.extend(node[key] for key in TRIT_KEYS if key in node)
    return found


def _assert_refused(obj):
    """Assert that a malformed tree in JSON form is refused from its JSON
    form and from its node arrays.  Node arrays hold a query of variable
    0 as a leaf, so the arrays of a tree with one may lay out another,
    well-formed tree; it then must not be the tree in JSON form."""
    with pytest.raises(TreeFormatError):
        tree_from_json_dict(obj)
    if 0 in _queries(obj):
        try:
            assert tree_to_json_dict(_build(obj)) != obj
        except TreeFormatError:
            pass
        return
    with pytest.raises(TreeFormatError):
        _build(obj)


def _edge_trees(n):
    """Hand-built trees in JSON form over n variables, each a case a layer
    by layer check could get wrong.  Well formed, each with a variable
    above n: the largest variable a tree can hold, 2**31 - 1, at the root
    of a u-model and a classical tree and one layer down; two such nodes
    in different layers, the deeper one reached by the smaller input; one
    three layers down in a classical tree.  Malformed: variables 2**31,
    2**61 and 2**70; a repeat below another malformed node; a malformed
    node below a repeat; a classical tree holding a three-child node,
    whose onU subtree is never reached, once with a repeat and a node
    above n there; a u-model node three layers down without onU."""
    leaf = _LEAVES
    node = _node
    top = 2 ** 31 - 1
    trees = [node(top, *leaf), node(top, *leaf[:2]), node(1, leaf[0], node(top, *leaf), leaf[2]),
             node(2 ** 31, *leaf), node(2 ** 61, *leaf), node(1, leaf[0], node(2 ** 70, *leaf), leaf[2])]
    if n >= 2:
        trees += [
            node(1, node(2, node(n + 1, *leaf), *leaf[1:]), node(n + 1, *leaf), leaf[2]),
            node(1, node(2, node(2, *leaf), *leaf[1:]), node(n + 1, *leaf), leaf[2]),
            node(1, leaf[0], node(1, node(n + 1, *leaf), *leaf[1:]), leaf[2]),
            node(1, node(2, leaf[1], leaf[0], node(n + 1, *leaf)), leaf[1]),
        ]
    if n >= 3:
        trees.append(node(1, node(2, leaf[0], node(3, leaf[1], node(n + 1, leaf[0], leaf[1]))), leaf[1]))
        # The onU subtree repeats x2, so the malformed node in it adds up the
        # code of the least input of the malformed node below x1 = 1.
        unreached = node(2, leaf[0], node(n + 1, leaf[0], leaf[0]))
        trees.append(node(1, node(2, leaf[0], leaf[0], unreached),
                          node(2, node(3, node(1, leaf[0], leaf[0]), leaf[0]), leaf[0])))
    if n >= 4:
        trees.append(node(1, node(2, node(3, node(4, leaf[0], leaf[1]), *leaf[1:]), *leaf[1:]),
                          *leaf[1:]))
    return trees


def _flip_last_leaf(tree):
    """The tree with its last node, a leaf of the deepest layer, changed."""
    leaf = tree.leaf.tolist()
    leaf[-1] = (leaf[-1] + 1) % 2
    return DecisionTree(tree.var, leaf)


@pytest.mark.parametrize("n", range(1, 8))
def test_verify_tree_matches_the_input_replay(n):
    """Over the optimal trees, seeded tamperings of them and the edge
    trees: a malformed tree is refused when built, through the constructor
    and through ``tree_from_json_dict`` (see ``_assert_refused``); a
    well-formed one with a variable above n makes ``verify_tree`` raise
    ``ValueError`` naming it; any other gets the result of the
    input-by-input replay."""
    rng = random.Random(600 + n)
    if n <= 3:
        tables = range(1 << (1 << n))
    elif n <= 6:
        tables = [rng.getrandbits(1 << n) for _ in range(12)] + [0, (1 << (1 << n)) - 1]
    else:  # the replay takes 3**7 steps a tree: a few trees only
        tables = [rng.getrandbits(1 << n) for _ in range(2)]
    kinds = set()
    for bits in tables:
        f = BooleanFunction(n, bits)
        table = hazard_free_table(f)
        candidates = list(_edge_trees(n))
        for tree in (query_complexity(table)[1], query_complexity_u(table)[1]):
            obj = tree_to_json_dict(tree)
            candidates += [obj, tree_to_json_dict(_flip_last_leaf(tree))]
            for _ in range(5 if n <= 6 else 0):
                obj = _replace_random_node(obj, rng, n)
                candidates.append(obj)
        if f.is_constant():
            # Every leaf below the root is right, yet a root above n raises
            # and a root of variable 0 cannot be built.
            leaf = {"leaf": "01u"[f.value_at_index(0)]}
            candidates += [{"query": n + 1, "on0": leaf, "on1": leaf, "onU": leaf},
                           {"query": 0, "on0": leaf, "on1": leaf}]
        for obj in candidates:
            if _malformation(obj):
                _assert_refused(obj)
                kinds.add("refused")
                continue
            tree = _build(obj)
            assert tree == tree_from_json_dict(obj)
            top = max(_queries(obj), default=0)
            if top > n:
                with pytest.raises(ValueError, match=f"^tree queries variable {top} outside 1..{n}$"):
                    verify_tree(tree, table)
                kinds.add("ValueError")
                continue
            got = verify_tree(tree, table)
            assert got == R.verify_tree_by_inputs(tree, table)
            kinds.add(got[0])
    assert kinds == {True, False, "ValueError", "refused"}


@pytest.mark.parametrize("n", range(1, 7))
def test_built_trees_take_the_leaf_grid(n):
    # The grid of every tree the package builds sends each input to a leaf
    # holding the table value.
    rng = random.Random(700 + n)
    tables = range(1 << (1 << n)) if n <= 3 else [rng.getrandbits(1 << n) for _ in range(12)]
    for bits in tables:
        f = BooleanFunction(n, bits)
        table = hazard_free_table(f)
        values = np.frombuffer(table.values, dtype=np.uint8).reshape((3,) * n)
        for tree in (query_complexity(table)[1], query_complexity_u(table)[1],
                     algorithm1_tree(table)):
            classical = _first_children(tree)[0] == 2
            block = values[(slice(0, 2 if classical else 3),) * n]
            leaves = _leaf_grid(tree.var, n, np.arange(len(tree.var)))
            assert leaves.grid.shape == (1, block.size)
            assert (np.array(tree.leaf)[leaves.grid] == block.reshape(1, -1)).all()


@pytest.mark.parametrize("n", range(1, 5))
def test_leaf_grid_refuses_malformed_trees(monkeypatch, n):
    """No tree the leaf grid cannot take reaches it: each malformed edge
    tree, and a repeat alone, is refused when built (see
    ``_assert_refused``), and ``verify_tree`` refuses a well-formed one
    with a variable above n, a root among them, before the grid is
    written."""
    leaf = {"leaf": "0"}

    def node(var, kid):
        return {"query": var, "on0": kid, "on1": leaf, "onU": leaf}

    def no_grid(*args):
        raise AssertionError("the leaf grid was written")

    monkeypatch.setattr(uquery.trees, "_leaf_grid", no_grid)
    table = hazard_free_table(BooleanFunction(n, 0))
    for obj in _edge_trees(n) + [node(n + 1, leaf), node(1, node(1, leaf))]:
        if _malformation(obj):
            _assert_refused(obj)
            continue
        with pytest.raises(ValueError, match="^tree queries variable"):
            verify_tree(_build(obj), table)


@functools.cache
def _trees_at_scale():
    """(table, tree) for the u-model and the classical tree of maj:11 and
    of random:12:1: u-model trees of about 100,000 nodes in many groups of
    leaves, and classical ones, which take the replay's base-2 codes."""
    cases = []
    for spec in ("maj:11", "random:12:1"):
        table = hazard_free_table(generate(spec))
        cases += [(table, query_complexity_u(table)[1]), (table, query_complexity(table)[1])]
    return cases


def _walk(var, kids, trits):
    """The node a per-input walk reaches, over a tree's variables and the
    first child of each node (see ``_first_children``), and the answers
    on its path as (variable, answer) pairs."""
    i, path = 0, []
    while var[i]:
        v = var[i]
        path.append((v, trits[v - 1]))
        i = kids[i] + trits[v - 1]
    return i, path


@pytest.mark.parametrize("case", range(4))
def test_leaf_grid_matches_the_walk_at_scale(case):
    """Against brute force on large trees: the grid sends seeded inputs to
    the leaf the walk reaches, and ``evaluate_tree`` and ``tree_solver``
    give that leaf's value; per node, the queried axes and least-input
    code the solver's check decodes are those of its path; and a tree with
    one leaf flipped fails first at the least input of that leaf's block."""
    table, tree = _trees_at_scale()[case]
    assert DecisionTree(tree.var, tree.leaf) == tree  # the constructor takes it
    n, size = table.arity, len(tree.var)
    var, leaf = tree.var.tolist(), tree.leaf.tolist()
    base, kids = _first_children(tree)
    leaves = _leaf_grid(tree.var, n, np.arange(size))
    rng = random.Random(900 + case)
    inputs = [tuple(rng.randrange(base) for _ in range(n)) for _ in range(2000)]
    reached = [_walk(var, kids, x)[0] for x in inputs]
    assert [int(leaves.grid.reshape((base,) * n)[x]) for x in inputs] == reached
    solve = tree_solver(tree)
    assert [evaluate_tree(tree, x) for x in inputs] == [leaf[i] for i in reached]
    assert [solve(Oracle(TernaryString(x))) for x in inputs] == [leaf[i] for i in reached]

    axes, codes = [0] * size, [0] * size
    for i in range(size):
        for answer in range(base if var[i] else 0):
            kid = kids[i] + answer
            axes[kid] = axes[i] | 1 << var[i] - 1
            codes[kid] = codes[i] + answer * base ** (n - var[i])
    got = leaves.paths(np.arange(size))
    assert got[0].tolist() == axes and got[1].tolist() == codes

    assert verify_tree(tree, table) == (True, None)
    leaf, path = _walk(var, kids, inputs[0])
    flipped = tree.leaf.copy()
    flipped[leaf] = (flipped[leaf] + 1) % base
    least = [0] * n
    for v, answer in path:
        least[v - 1] = answer
    assert verify_tree(DecisionTree(tree.var, flipped), table) == \
        (False, TernaryString(tuple(least)))


def _layers(tree):
    """Per node of a tree, its layer, from the first child of each node."""
    base, kids = _first_children(tree)
    layer = [0] * len(tree.var)
    for i, v in enumerate(tree.var.tolist()):
        for answer in range(base if v else 0):
            layer[kids[i] + answer] = layer[i] + 1
    return layer


@pytest.mark.parametrize("n", range(1, 7))
def test_forest_replay_matches_each_tree_alone(n):
    """Forests mixing one-leaf trees, trees of both models and of
    different depths, and tampered trees, over every table at n <= 3
    and seeded tables at n = 4-6, in a seeded order: ``verify_trees``
    gives every tree the verdict of the input-by-input replay, so a
    tampered tree gets its own least counterexample and the others keep
    theirs.  Each forest of one answer count is the trees joined layer
    by layer, which ``_split_trees`` splits back, and its leaf grid, the
    places of its nodes' least inputs and its layers agree, tree by tree,
    with the one-tree grid of ``reference.leaf_grid``."""
    rng = random.Random(800 + n)
    everything = 1 << (1 << n)
    bits_list = range(everything) if n <= 3 else \
        [rng.getrandbits(1 << n) for _ in range(12)] + [0, everything - 1]
    pairs = []
    for bits in bits_list:
        table = hazard_free_table(BooleanFunction(n, bits))
        for tree in (query_complexity(table)[1], query_complexity_u(table)[1], algorithm1_tree(table)):
            pairs += [(tree, table), (_flip_last_leaf(tree), table)]
        pairs.append((DecisionTree((0,), (rng.randrange(3),)), table))
    rng.shuffle(pairs)
    trees, tables = (list(side) for side in zip(*pairs))
    verdicts = verify_trees(trees, tables)
    assert verdicts == [R.verify_tree_by_inputs(tree, table) for tree, table in pairs]
    assert {ok for ok, _ in verdicts} == {True, False}

    for base in (2, 3):
        members = [tree for tree in trees if _first_children(tree)[0] == base]
        var, leaf = _join_trees(members)
        size = len(var)
        leaves = _leaf_grid(var, n, np.arange(size), len(members))
        assert leaves.grid.shape == (len(members), base ** n)
        axes, places = leaves.paths(np.arange(size))
        owner, codes = np.divmod(places, base ** n)
        assert _split_trees(var, leaf, owner, len(members)) == members
        layer = leaves.layers(np.arange(size))
        for k, tree in enumerate(members):
            mine = np.flatnonzero(owner == k)  # the tree's nodes, in its own order
            grid, reach = R.leaf_grid(tree, n, np.arange(len(tree.var)))
            assert np.array_equal(leaves.grid[k], mine[grid.reshape(-1)])
            assert np.array_equal(axes[mine], reach >> 40)
            assert np.array_equal(codes[mine], reach & (1 << 40) - 1)
            assert layer[mine].tolist() == _layers(tree)


def test_forest_refuses_a_variable_above_n(monkeypatch):
    """A tree that queries a variable above its table's arity makes
    ``verify_trees`` raise ``ValueError`` naming that variable before any
    input is replayed, first, last or amid trees of both models; with
    two such trees the first is named."""
    def no_grid(*args):
        raise AssertionError("the leaf grid was written")

    monkeypatch.setattr(uquery.trees, "_leaf_grid", no_grid)
    table = hazard_free_table(generate("maj:3"))
    good = [query_complexity(table)[1], query_complexity_u(table)[1], DecisionTree((0,), (1,))]
    above = [DecisionTree((4, 0, 0, 0), (0, 0, 0, 0)), DecisionTree((1, 5, 0, 0, 0), (0,) * 5)]
    for bad in above:
        for at in range(len(good) + 1):
            trees = good[:at] + [bad] + good[at:]
            with pytest.raises(ValueError, match=f"^tree queries variable {int(bad.var.max())} outside 1..3$"):
                verify_trees(trees, [table] * len(trees))
    with pytest.raises(ValueError, match="^tree queries variable 5 outside 1..3$"):
        verify_trees([good[0], above[1], above[0]], [table] * 3)


def test_leaf_grid_allocates_about_its_grid():
    """At n = 12 the replay of a single leaf and of the trees of or:12
    allocates at most about twice the grid's bytes: groups of leaves with
    large blocks are written by broadcasting, and flat codes a chunk at a
    time, never an int64 index per input."""
    table = hazard_free_table(generate("or:12"))
    for tree in (DecisionTree((0,), (1,)), query_complexity_u(table)[1],
                 query_complexity(table)[1]):
        _leaf_grid(tree.var, 12, tree.leaf)  # the cached step tables
        tracemalloc.start()
        try:
            grid = _leaf_grid(tree.var, 12, tree.leaf).grid
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * grid.nbytes + (1 << 16), (len(tree.var), peak, grid.nbytes)


def test_no_single_query_tree_computes_or2():
    # exhaust every depth<=1 ternary tree: none computes the extension
    table = hazard_free_table(generate("or:2"))
    leaves = [{"leaf": v} for v in "01u"]
    candidates = [tree_from_json_dict(leaf) for leaf in leaves]
    for var in (1, 2):
        for kids in itertools.product(leaves, repeat=3):
            candidates.append(tree_from_json_dict({"query": var, **dict(zip(TRIT_KEYS, kids))}))
    assert all(not verify_tree(t, table)[0] for t in candidates)
    # while a depth-2 tree does
    du, tree = query_complexity_u(table)
    assert du == 2 and verify_tree(tree, table)[0]


def test_depth_is_permutation_invariant():
    rng = random.Random(3)
    for _ in range(10):
        bits = rng.getrandbits(8)
        f = BooleanFunction(3, bits)
        base = query_complexity_u(hazard_free_table(f))[0]
        for perm in itertools.permutations((1, 2, 3)):
            g_bits = 0
            for i in range(8):
                x = [(i >> (3 - k)) & 1 for k in (1, 2, 3)]
                y = tuple(x[perm[k - 1] - 1] for k in (1, 2, 3))
                g_bits |= f.evaluate(y) << i
            g = BooleanFunction(3, g_bits)
            assert query_complexity_u(hazard_free_table(g))[0] == base


def _routes(table):
    """Trees by every route that builds one, in groups of trees with the
    same nodes: each depth search's tree, Algorithm 1's, a constant
    function's, and the u-model and classical edge trees of variable
    2**31 - 1, each also parsed, read from its JSON form and passed to
    the public constructor."""
    def copies(tree):
        return [tree, parse_tree(serialize_tree(tree)), tree_from_json_dict(tree_to_json_dict(tree)),
                DecisionTree(tree.var, tree.leaf),
                DecisionTree(tree.var.tolist(), tree.leaf.tolist())]

    constant = hazard_free_table(BooleanFunction(table.arity, 0))
    groups = [copies(tree) for tree in (query_complexity(table)[1], query_complexity_u(table)[1],
                                        algorithm1_tree(table), algorithm1_tree(constant))]
    groups += [[tree_from_json_dict(obj), parse_tree(json.dumps(obj)), _build(obj)]
               for obj in _edge_trees(table.arity)[:2]]
    return groups


def test_a_tree_is_its_read_only_node_arrays():
    """Whatever its route, a tree's fields are read-only NumPy arrays of
    the documented dtypes; trees with the same nodes are equal and hash
    equal, and a pickled copy is an equal tree, read-only too."""
    groups = _routes(hazard_free_table(generate("maj:3")))
    for group in groups:
        for tree in group:
            for copy in (tree, pickle.loads(pickle.dumps(tree))):
                assert copy == group[0] and hash(copy) == hash(group[0])
                assert [values.dtype for values in (copy.var, copy.leaf)] == \
                    [np.dtype(np.int64), np.dtype(np.uint8)]
                for values in (copy.var, copy.leaf):
                    assert type(values) is np.ndarray
                    with pytest.raises(ValueError):
                        values[0] = 1
    # A classical and a u-model tree, the two edge trees, and a tree and its JSON form differ.
    assert groups[0][0] != groups[1][0] and groups[4][0] != groups[5][0]
    assert groups[0][0] != tree_to_json_dict(groups[0][0])


def test_tree_walkers_give_plain_ints():
    """The walkers give Python ints, never NumPy scalars, so that their
    results go into JSON and the verify records as they are."""
    table = hazard_free_table(generate("maj:3"))
    f = table.function
    searched = query_complexity_u(table)[1]
    for tree in (searched, query_complexity(table)[1], parse_tree(serialize_tree(searched)),
                 algorithm1_tree(table)):
        assert type(tree_depth(tree)) is int
        json.dumps(tree_to_json_dict(tree))
        solvers = (tree_solver(tree), unate_solver(f, Orientation((0,) * 3), tree))
        for x in itertools.product((0, 1), repeat=3):
            assert type(evaluate_tree(tree, x)) is int
            assert all(type(solve(Oracle(x))) is int for solve in solvers)


def test_serialization_roundtrip():
    for spec in ("or:3", "ind:1", "parity:2"):
        table = hazard_free_table(generate(spec))
        _, tree = query_complexity_u(table)
        assert parse_tree(serialize_tree(tree)) == tree
        assert tree_from_json_dict(tree_to_json_dict(tree)) == tree
    _, binary = query_complexity(hazard_free_table(generate("maj:3")))
    assert parse_tree(serialize_tree(binary)) == binary


@pytest.mark.parametrize("text", [
    '{"leaf":"2"}',
    '{"query":0,"on0":{"leaf":"0"},"on1":{"leaf":"1"}}',
    '{"query":1,"on0":{"leaf":"0"}}',
    '{"query":1,"on0":{"leaf":"0"},"on1":{"leaf":"1"},"extra":3}',
    '{"query":1,"on0":{"query":1,"on0":{"leaf":"0"},"on1":{"leaf":"1"}},'
    '"on1":{"leaf":"1"}}',
    'not json',
    '[1,2]',
])
def test_malformed_trees_rejected(text):
    with pytest.raises(TreeFormatError):
        parse_tree(text)


def _assert_same_text(got, want):
    """Assert that two texts are equal.  A failing plain ``assert`` on
    texts of 100 kB and more makes pytest diff them for minutes, so a
    mismatch is reported by lengths, sha256 and the first differing
    offset with 40 characters of context on each side."""
    if got == want:
        return
    lo, hi = 0, min(len(got), len(want))  # the texts agree on [0, lo)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if got[:mid] == want[:mid]:
            lo = mid
        else:
            hi = mid - 1
    digests = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (got, want)]
    start = max(lo - 40, 0)
    pytest.fail(f"texts differ: lengths {len(got)} and {len(want)}, sha256 {digests[0]} and "
                f"{digests[1]}, first at offset {lo}: {got[start:lo + 40]!r} where "
                f"{want[start:lo + 40]!r} was wanted", pytrace=False)


def _chain(depth, var_of_level):
    tree = {"leaf": "0"}
    for level in range(depth):
        tree = {"query": var_of_level(level), "on0": tree, "on1": {"leaf": "1"}}
    return tree


def _chain_text(depth):
    text = '{"leaf":"0"}'
    for level in range(depth):
        text = f'{{"query":{level + 1},"on0":{text},"on1":{{"leaf":"1"}}}}'
    return text


@pytest.mark.parametrize("depth", [1000, 1500, 3000])
def test_deeply_nested_trees_rejected(depth):
    with pytest.raises(TreeFormatError):
        parse_tree(_chain_text(depth))
    # Built without JSON: a path longer than its distinct variables repeats one.
    with pytest.raises(TreeFormatError, match="repeats along the path"):
        tree_from_json_dict(_chain(depth, lambda level: level % 7 + 1))


def _sorted_chain_text(depth):
    """The text ``json.dumps(_chain(depth, ...), sort_keys=True)`` gives,
    variable level + 1 at each level, made without the json module, which
    does not nest that deep."""
    text = '{"leaf": "0"}'
    for level in range(depth):
        text = f'{{"on0": {text}, "on1": {{"leaf": "1"}}, "query": {level + 1}}}'
    return text


def _indented_chain_text(depth, nesting):
    """The text ``json.dumps(_chain(depth, ...), indent=2, sort_keys=True)``
    gives, variable level + 1 at each level, where the chain sits
    ``nesting`` objects deep, made without the json module."""
    def pad(layer):
        return "\n" + "  " * (nesting + layer)

    heads, tails = [], []
    for layer in range(depth):
        heads.append("{" + pad(layer + 1) + '"on0": ')
        tails.append("," + pad(layer + 1) + '"on1": {' + pad(layer + 2) + '"leaf": "1"'
                     + pad(layer + 1) + "}," + pad(layer + 1) + '"query": %d' % (depth - layer)
                     + pad(layer) + "}")
    leaf = "{" + pad(depth + 1) + '"leaf": "0"' + pad(depth) + "}"
    return "".join(heads) + leaf + "".join(reversed(tails))


def test_deep_tree_without_repeats_builds():
    tree = tree_from_json_dict(_chain(3000, lambda level: level + 1))
    assert tree_depth(tree) == 3000
    assert tree_from_json_dict(tree_to_json_dict(tree)) == tree
    kids = _first_children(tree)[1]
    i = 0
    for depth in range(3000):
        on0, on1 = kids[i], kids[i] + 1
        assert tree.var[i] == 3000 - depth and (tree.var[on1], tree.leaf[on1]) == (0, 1)
        i = on0
    assert (tree.var[i], tree.leaf[i]) == (0, 0)
    # Keyed by layer, its 3001 layers of 3000 variables span too many keys
    # for the table of keys, and the indented text numbers them by sorting.
    _assert_same_text(sorted_tree_text(tree), _sorted_chain_text(3000))
    for nesting in (0, 2):
        handle = io.StringIO()
        write_indented_tree(tree, handle, nesting)
        _assert_same_text(handle.getvalue(), _indented_chain_text(3000, nesting))
    # Written bottom-up, the text nests deeper than parse_tree's json.loads reads.
    text = serialize_tree(tree)
    _assert_same_text(text, _chain_text(3000))
    with pytest.raises(TreeFormatError, match="nested too deeply"):
        parse_tree(text)


def test_search_cap():
    f = generate("maj:3")
    capped = HazardFreeTable(f, hazard_free_table(f).values, cap=2)
    with pytest.raises(ArityCapError):
        query_complexity_u(capped)
    with pytest.raises(ArityCapError):
        query_complexity(capped)


def test_constant_trees():
    f = BooleanFunction(2, 0b1111)
    table = hazard_free_table(f)
    d, tree = query_complexity(table)
    du, tree_u = query_complexity_u(table)
    assert (d, du) == (0, 0)
    assert tree == tree_u == DecisionTree((0,), (1,))


def _text_trees():
    """The optimal trees of every table of arity n <= 3 and of seeded
    n = 4-6 ones, in both models, then the well-formed edge trees.  Those
    of variable 2**31 - 1 span too many keys for the table of keys, so
    their texts number their keys by sorting."""
    for n in range(1, 7):
        for bits in _kernel_tables(n, 4):
            f = BooleanFunction(n, bits)
            table = hazard_free_table(f)
            yield query_complexity(table)[1]
            yield query_complexity_u(table)[1]
        yield from (_build(obj) for obj in _edge_trees(n) if not _malformation(obj))
    yield DecisionTree((0,), (2,))


def _json_at_nesting(obj, nesting):
    """The text ``json.dumps(..., indent=2, sort_keys=True)`` gives obj
    where it sits ``nesting`` objects deep."""
    for _ in range(nesting):
        obj = {"t": obj}
    text = json.dumps(obj, indent=2, sort_keys=True)
    for depth in range(nesting):
        text = text[len("{\n" + "  " * (depth + 1) + '"t": '):-len("\n" + "  " * depth + "}")]
    return text


def test_indented_text_matches_the_json_module():
    for tree in _text_trees():
        obj = tree_to_json_dict(tree)
        _assert_same_text(serialize_tree(tree), json.dumps(obj, separators=(",", ":")))
        _assert_same_text(sorted_tree_text(tree), json.dumps(obj, sort_keys=True))
        for nesting in range(3):
            handle = io.StringIO()
            write_indented_tree(tree, handle, nesting)
            _assert_same_text(handle.getvalue(), _json_at_nesting(obj, nesting))


def test_sorted_chain_text_is_the_json_module_text():
    for depth in range(4):
        chain = _chain(depth, lambda level: level + 1)
        assert _sorted_chain_text(depth) == json.dumps(chain, sort_keys=True)
        for nesting in range(3):
            assert _indented_chain_text(depth, nesting) == _json_at_nesting(chain, nesting)


@pytest.mark.parametrize("n", range(1, 9))
def test_witness_tree_text_is_the_json_module_text(n):
    """The one-line text of the D and D_u witness trees of every table at
    n <= 3 and of seeded tables at n = 4-8, and of Algorithm 1's tree at
    n <= 4, is ``json.dumps`` of their JSON form with sorted keys."""
    for bits in _kernel_tables(n, 6):
        table = hazard_free_table(BooleanFunction(n, bits))
        witnesses = uquery.measures.measure_report(table, with_witnesses=True).witnesses
        trees = [witnesses["D"]["tree"], witnesses["D_u"]["tree"]]
        if n <= 4:
            trees.append(algorithm1_tree(table))
        for tree in trees:
            _assert_same_text(sorted_tree_text(tree), json.dumps(tree_to_json_dict(tree), sort_keys=True))
