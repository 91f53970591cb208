"""Brute-force reference implementations the test suite trusts.

Everything here recomputes definitions by plain enumeration over raw
truth-table integers, deliberately independent of the package's
optimized code paths.  Trits are 0, 1 and U = 2; truth-table bit i is
the value at binary index i with variable 1 as the most significant
bit of the index.  The exceptions run package code the plain way, or
are package kernels as they were before a faster one replaced them:
``merged_table`` is the hazard-free table builder that merged one axis
at a time, ``max_disjoint_indices`` the packing search whose bound
counted the blocks left but not the free positions,
``verify_tree_by_inputs`` replays package trees on package tables input
by input, ``read_tree`` is the recursive tree extraction the layered one
of ``depth._read_tree`` replaced, ``far_start_tree`` is a byte
relaxation of the depths from a start far above them, the depth kernel
before the level search, ``solve_by_scan`` is the certificate-guided
solver that scanned every decoded input for the least consistent one,
``min_over_coarsenings``, ``packing_scan`` and ``block_lattice`` are
the certificate transform over the whole unpacked array, the bs scan
that walked every input in code order, and the block lattice built
block by block, ``sensitivity_array`` is the s_u array counted a layer
at a time, ``algorithm1_tree`` is Algorithm 1's compile that stepped
one answer state at a time through the oracle driver's step,
``check_layout`` is the tree constructor's check that walked every
query node's ancestors, ``leaf_grid`` is the leaf grid of one tree
before the replay took a forest, and ``forced_words`` is the u-model
L_0 merge that ORed its planes word by word at every arity.
"""

import operator
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from uquery.algorithms import SolveResult, _algorithm1_step
from uquery.core import STAR, TernaryString
from uquery.depth import _cell_codes, _kids_by_shift, _layout, _packed
from uquery.measures import block_summary, certificate_summary, certificate_u_at
from uquery.trees import _CODE_BITS, _VAR_LIMIT, DecisionTree, TreeFormatError, _answers, _axis_steps, evaluate_tree

U = 2

KLEENE_AND = {
    (0, 0): 0, (0, 1): 0, (0, U): 0,
    (1, 0): 0, (1, 1): 1, (1, U): U,
    (U, 0): 0, (U, 1): U, (U, U): U,
}
KLEENE_OR = {
    (0, 0): 0, (0, 1): 1, (0, U): U,
    (1, 0): 1, (1, 1): 1, (1, U): 1,
    (U, 0): U, (U, 1): 1, (U, U): U,
}
KLEENE_NOT = {0: 1, 1: 0, U: U}


def ternary_strings(n):
    return product((0, 1, U), repeat=n)


def bin_index(y) -> int:
    idx = 0
    for t in y:
        idx = idx * 2 + t
    return idx


def resolution_eval(bits: int, n: int, x) -> int:
    """Extension value of x by enumerating every binary resolution."""
    spots = [p for p in range(n) if x[p] == U]
    seen = set()
    for fill in product((0, 1), repeat=len(spots)):
        y = list(x)
        for k, p in enumerate(spots):
            y[p] = fill[k]
        seen.add((bits >> bin_index(y)) & 1)
        if len(seen) == 2:
            return U
    return seen.pop()


def full_table(bits: int, n: int) -> dict:
    return {x: resolution_eval(bits, n, x) for x in ternary_strings(n)}


def merged_table(bits: int, n: int) -> bytes:
    """The hazard-free table's values as the builder before the byte
    lookup made them: the truth bits unpacked into the binary entries of
    a (3,) * n array, then in place, along each axis in turn, the u layer
    takes the 0 layer where that agrees with the 1 layer and u elsewhere.
    The entry with u on a set S of axes is last written at the last axis
    of S, from children whose sets are subsets of S already final."""
    size = 1 << n
    packed = np.frombuffer(bits.to_bytes(max(1, size // 8), "little"), np.uint8)
    vals = np.empty((3,) * n, dtype=np.uint8)
    vals[np.ix_(*([0, 1],) * n)] = np.unpackbits(
        packed, bitorder="little")[:size].reshape((2,) * n)
    for axis in range(n):
        view = vals.reshape(3 ** axis, 3, 3 ** (n - 1 - axis))
        view[:, U] = view[:, 0]
        np.copyto(view[:, U], U, where=view[:, 0] != view[:, 1])
    return vals.tobytes()


def forced_value(table: dict, cell):
    """Common value of every {0, 1, U}-completion of the * cells (3), or
    None when two completions differ."""
    stars = [p for p in range(len(cell)) if cell[p] == 3]
    seen = set()
    for fill in product((0, 1, U), repeat=len(stars)):
        y = list(cell)
        for k, p in enumerate(stars):
            y[p] = fill[k]
        seen.add(table[tuple(y)])
    return seen.pop() if len(seen) == 1 else None


# ---------------------------------------------------------------------------
# Variable influence, straight from the definitions.


def flips(bits: int, n: int, p: int):
    """(f at x with bit p cleared, f at x with bit p set) over all x."""
    for idx in range(1 << n):
        x = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        x[p] = 0
        lo = bin_index(x)
        x[p] = 1
        yield (bits >> lo) & 1, (bits >> bin_index(x)) & 1


def dependent_variables(bits: int, n: int) -> frozenset:
    """1-based variables whose flip changes the value somewhere."""
    return frozenset(p + 1 for p in range(n)
                     if any(lo != hi for lo, hi in flips(bits, n, p)))


def is_monotone(bits: int, n: int) -> bool:
    return all(lo <= hi for p in range(n) for lo, hi in flips(bits, n, p))


def unate_orientation(bits: int, n: int):
    """Bits s with x -> f(x xor s) monotone, 0 where either works; or None."""
    out = []
    for p in range(n):
        pairs = list(flips(bits, n, p))
        if all(lo <= hi for lo, hi in pairs):
            out.append(0)
        elif all(lo >= hi for lo, hi in pairs):
            out.append(1)
        else:
            return None
    return tuple(out)


# ---------------------------------------------------------------------------
# Measures, straight from the definitions.


def sensitive_blocks(table: dict, n: int, x) -> list:
    """Every nonempty block sensitive at x: some change inside it
    (over all three trits) moves the table value."""
    v = table[x]
    out = []
    for r in range(1, n + 1):
        for blk in combinations(range(n), r):
            for alt in product((0, 1, U), repeat=r):
                y = list(x)
                for k, p in enumerate(blk):
                    y[p] = alt[k]
                if table[tuple(y)] != v:
                    out.append(frozenset(blk))
                    break
    return out


def max_disjoint_indices(blocks) -> list:
    """Indices of the first maximum disjoint subfamily, in search order,
    of blocks ordered by size: a branch is cut only when the blocks left
    could not beat the best family even if all of them fit."""
    masks = [sum(1 << p for p in blk) for blk in blocks]
    best, chosen = [], []

    def dfs(start, used):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
        for j in range(start, len(blocks)):
            if len(chosen) + len(blocks) - j <= len(best):
                break
            if masks[j] & used:
                continue
            chosen.append(j)
            dfs(j + 1, used | masks[j])
            chosen.pop()

    dfs(0, 0)
    return best


def max_disjoint(blocks) -> int:
    """Largest pairwise-disjoint subfamily, branch and bound."""
    blocks = sorted(blocks, key=lambda b: (len(b), sorted(b)))
    best = 0

    def go(i, used, count):
        nonlocal best
        if count > best:
            best = count
        if i == len(blocks) or count + len(blocks) - i <= best:
            return
        if not (used & blocks[i]):
            go(i + 1, used | blocks[i], count + 1)
        go(i + 1, used, count)

    go(0, frozenset(), 0)
    return best


def bs_u(table: dict, n: int, value=None) -> int:
    best = 0
    for x in table:
        if value is not None and table[x] != value:
            continue
        best = max(best, max_disjoint(sensitive_blocks(table, n, x)))
    return best


def sensitivity_at(table: dict, n: int, x) -> int:
    """Positions where some other trit moves the table value."""
    v = table[x]
    count = 0
    for p in range(n):
        for d in (0, 1, U):
            if d == x[p]:
                continue
            y = list(x)
            y[p] = d
            if table[tuple(y)] != v:
                count += 1
                break
    return count


def s_u(table: dict, n: int) -> int:
    return max(sensitivity_at(table, n, x) for x in table)


def certificate_domain_at(table: dict, n: int, x) -> tuple:
    """The lex-least of the smallest domains forcing the value on all
    consistent strings (0-based positions)."""
    v = table[x]
    for r in range(n + 1):
        for dom in combinations(range(n), r):
            if all(table[y] == v for y in table
                   if all(y[p] == x[p] for p in dom)):
                return dom
    raise AssertionError("the full domain forces the value")


def certificate_at(table: dict, n: int, x) -> int:
    """Minimum domain size forcing the value on all consistent strings."""
    return len(certificate_domain_at(table, n, x))


def certificate_u(table: dict, n: int):
    """(C_u_0, C_u_1, C_u_uval), each a max of minimum certificates."""
    out = []
    for value in (0, 1, U):
        best = 0
        for x in table:
            if table[x] == value:
                best = max(best, certificate_at(table, n, x))
        out.append(best)
    return tuple(out)


def certificate_holds(table: dict, n: int, cells, value) -> bool:
    """Whether every ternary string agreeing with the assigned cells of
    an assignment (3 marks a *) has ``value``; an assignment of another
    length than n certifies nothing."""
    if len(cells) != n:
        return False
    return all(table[y] == value for y in table
               if all(c == 3 or y[p] == c for p, c in enumerate(cells)))


def survivor(table: dict, transcript):
    """The least 1-valued input agreeing with every (variable, answer)
    of a solver transcript, else the least such 0-valued one, else None.
    A sound solver answers u only when this is None."""
    for want in (1, 0):
        for x in table:
            if table[x] == want and all(x[var - 1] == a for var, a in transcript):
                return x
    return None


def least_input(table: dict, cells, value):
    """The lex-least input of the given value agreeing with every
    assigned cell (3 marks a *), else None."""
    for x in table:
        if table[x] == value and all(c == 3 or x[p] == c for p, c in enumerate(cells)):
            return x
    return None


def classical_measures(bits: int, n: int):
    """(s, bs, C) over binary inputs with flip blocks."""
    def value(idx):
        return (bits >> idx) & 1

    s = bs = c = 0
    for idx in range(1 << n):
        v = value(idx)
        flips = [p for p in range(n)
                 if value(idx ^ (1 << (n - 1 - p))) != v]
        s = max(s, len(flips))
        blocks = []
        for r in range(1, n + 1):
            for blk in combinations(range(n), r):
                mask = 0
                for p in blk:
                    mask |= 1 << (n - 1 - p)
                if value(idx ^ mask) != v:
                    blocks.append(frozenset(blk))
        bs = max(bs, max_disjoint(blocks))
        for r in range(n + 1):
            found = False
            for dom in combinations(range(n), r):
                ok = True
                for y in range(1 << n):
                    agrees = all(((y >> (n - 1 - p)) & 1) ==
                                 ((idx >> (n - 1 - p)) & 1) for p in dom)
                    if agrees and value(y) != v:
                        ok = False
                        break
                if ok:
                    found = True
                    break
            if found:
                c = max(c, r)
                break
    return s, bs, c


# ---------------------------------------------------------------------------
# Exact depths as plain minimax games.


def cell_depths_u(table: dict, n: int):
    """Optimal ternary-tree depth at each cell (a tuple of 0, 1, U and
    3 for *): the adversary picks any trit answer."""

    @lru_cache(maxsize=None)
    def go(cells):
        vs = {table[y] for y in table
              if all(c == 3 or c == t for c, t in zip(cells, y))}
        if len(vs) == 1:
            return 0
        best = n + 1
        for p in range(n):
            if cells[p] != 3:
                continue
            worst = 0
            for a in (0, 1, U):
                child = list(cells)
                child[p] = a
                worst = max(worst, go(tuple(child)))
                if worst + 1 >= best:
                    break
            best = min(best, 1 + worst)
        return best

    return go


def depth_u(table: dict, n: int) -> int:
    """Optimal ternary-tree depth: adversary picks any trit answer."""
    return cell_depths_u(table, n)((3,) * n)


def cell_depths(bits: int, n: int):
    """Optimal classical depth at each cell (a tuple of 0, 1 and 3 for
    *) over binary inputs and answers."""

    @lru_cache(maxsize=None)
    def go(cells):
        vs = set()
        for idx in range(1 << n):
            if all(c == 3 or c == ((idx >> (n - 1 - p)) & 1)
                   for p, c in enumerate(cells)):
                vs.add((bits >> idx) & 1)
        if len(vs) == 1:
            return 0
        best = n + 1
        for p in range(n):
            if cells[p] != 3:
                continue
            worst = max(go(tuple(a if q == p else c
                                 for q, c in enumerate(cells)))
                        for a in (0, 1))
            best = min(best, 1 + worst)
        return best

    return go


def depth(bits: int, n: int) -> int:
    """Optimal classical depth over binary inputs and answers."""
    return cell_depths(bits, n)((3,) * n)


def read_tree(grid, star, answers, values):
    """The JSON form of the optimal tree below the all-* cell of an array
    of exact cell depths (cells off every optimal tree may read more),
    read recursively: each node queries the lowest * axis whose children
    all sit below its depth, and a leaf reads ``values`` at the cell's
    coarsest completion (u at every *)."""
    n, base = grid.ndim, star + 1
    reach = memoryview(grid.reshape(-1)).__getitem__
    steps = [[(a - star) * base ** (n - 1 - p) for a in answers] for p in range(n)]
    coarse_steps = [[(a - U) * 3 ** (n - 1 - p) for a in answers] for p in range(n)]
    keys = ("on0", "on1", "onU")

    def read(key, coarse, free):
        d = reach(key)
        if not d:
            return {"leaf": "01u"[values[coarse]]}
        for p in free:
            kids = [key + step for step in steps[p]]
            if max(map(reach, kids)) < d:
                rest = [q for q in free if q != p]
                return {"query": p + 1, **{
                    name: read(kid, coarse + step, rest)
                    for name, kid, step in zip(keys, kids, coarse_steps[p])}}
        raise AssertionError("depth array has no optimal query")

    return read(grid.size - 1, 3 ** n - 1, list(range(n)))


def far_start_tree(grid, star, answers, values):
    """A byte relaxation of the depths: ``grid`` (0 where forced, 1
    elsewhere) starts every cell that is not forced at 0xFE, and sweeps
    set each cell with a * to min(itself, 1 + the max over its children
    on that axis) until the root reads at most sweep + 1.  The tree, in
    its JSON form, is read off the relaxed array by ``read_tree``.
    """
    grid *= 0xFE
    n, base = grid.ndim, star + 1
    flat = grid.reshape(-1)
    worst = np.empty(base ** (n - 1), dtype=np.uint8)
    axes = []
    for axis in range(n):
        view = grid.reshape(base ** axis, base, base ** (n - 1 - axis))
        kids = [view[:, a] for a in answers]
        axes.append((kids, view[:, star], worst.reshape(kids[0].shape)))
    sweep = 0
    while flat[-1] > sweep + 1:
        sweep += 1
        for kids, top, w in axes:
            np.maximum(kids[0], kids[1], out=w)
            for kid in kids[2:]:
                np.maximum(w, kid, out=w)
            w += 1
            np.minimum(top, w, out=top)
    return int(flat[-1]), read_tree(grid, star, answers, values)


def to_hex(bits: int, n: int) -> str:
    """The hex serialization of a table, entry by entry: entry idx lands
    at bit 4 * width - 1 - idx of the packed digits."""
    width = max(1, (1 << n) // 4)
    packed = 0
    for idx in range(1 << n):
        packed |= ((bits >> idx) & 1) << (4 * width - 1 - idx)
    return format(packed, f"0{width}x")


def from_hex(text: str, n: int) -> int:
    """Inverse of ``to_hex``, entry by entry."""
    packed = int(text, 16)
    bits = 0
    for idx in range(1 << n):
        bits |= ((packed >> (4 * len(text) - 1 - idx)) & 1) << idx
    return bits


def downward_closure_bits(bits: int, n: int) -> int:
    """OR of f over all binary points below x, as a table integer."""
    out = 0
    for idx in range(1 << n):
        hit = 0
        for sub in range(1 << n):
            if sub & ~idx:
                continue
            hit |= (bits >> sub) & 1
        out |= hit << idx
    return out


# ---------------------------------------------------------------------------
# Decision trees, replayed input by input.


def verify_tree_by_inputs(tree, table):
    """``trees.verify_tree`` by evaluating the tree on each input in code
    order: the first input that raises or mismatches decides."""
    n = table.arity
    # A tree of q query nodes has 1 + b*q nodes, b = 2 in a classical one.
    if tree.var[0] and len(tree.var) == 1 + 2 * np.count_nonzero(tree.var):
        inputs, value = product((0, 1), repeat=n), table.function.value_at_index
    else:
        inputs, value = product((0, 1, U), repeat=n), table.values.__getitem__
    # The position of an input in either product is its truth-table
    # index or its ternary code, whichever ``value`` reads.
    for index, trits in enumerate(inputs):
        y = TernaryString(trits)
        if evaluate_tree(tree, y) != value(index):
            return False, y
    return True, None


def leaf_grid(tree, n, entry):
    """``trees._leaf_grid`` of one tree as it was before it took a
    forest: ``entry[i]`` written at every input of length n reaching
    leaf i, a grid with one axis per variable, and per node its queried
    axes and the code of its least input, packed as the package packs
    them.  The layers are found from the root down, each leaf's block
    written through flat codes when small and by broadcasting when
    large."""
    var = tree.var
    base, query = _answers(var), var.nonzero()[0]
    spread, step = _axis_steps(n, base)
    asked = var[query]
    reach = np.zeros(var.size, dtype=np.int64)
    starts = [0, 1]
    while starts[-1] < var.size:
        starts.append(starts[-1] + base * int(np.count_nonzero(var[starts[-2]:starts[-1]])))
    for start, stop in zip(starts[1:], starts[2:]):
        parents = slice((start - 1) // base, (stop - 1) // base)
        reach[start:stop] = (reach[query[parents], None] + step[asked[parents]]).ravel()
    leaves = (var == 0).nonzero()[0]
    leaves = leaves[(reach[leaves] >> _CODE_BITS).argsort(kind="stable")]
    grid = np.empty((base,) * n, dtype=entry.dtype)
    groups, codes = reach[leaves] >> _CODE_BITS, reach[leaves] & (1 << _CODE_BITS) - 1
    entry = entry[leaves]
    flat = grid.reshape(-1)
    edges = ((groups[1:] != groups[:-1]).nonzero()[0] + 1).tolist()
    for lo, hi in zip([0, *edges], [*edges, leaves.size]):
        mask = int(groups[lo])
        free = [p for p in range(n) if not mask >> p & 1]
        if base ** len(free) > 16:
            fixed = [p for p in range(n) if mask >> p & 1]
            digits = np.unravel_index(codes[lo:hi], (base,) * n)
            grid.transpose(fixed + free)[tuple(digits[p] for p in fixed)] = \
                entry[lo:hi].reshape((-1,) + (1,) * len(free))
            continue
        offsets = np.zeros(1, dtype=np.int64)
        for p in free:
            offsets = np.add.outer(offsets, spread[p + 1]).ravel()
        flat[codes[lo:hi, None] + offsets] = entry[lo:hi, None]
    return grid, reach


def check_layout(var, leaf):
    """``trees._check_layout`` walking every query node's ancestors a
    layer at a time, each walk ending at the root or at a parent that
    does not come first: O(depth x query nodes)."""
    size = var.size
    if not size or var.shape != (size,) or leaf.shape != (size,):
        raise TreeFormatError("a tree needs one var and one leaf entry per node, and at least one node")
    query, base = var.nonzero()[0], _answers(var)
    if size != 1 + base * query.size or base not in (2, 3):
        raise TreeFormatError(f"{size} nodes with {query.size} query nodes: a tree of q query nodes "
                              "has 1 + b*q nodes, b = 2 or 3")
    parent = np.append(0, query.repeat(base))
    node = above = query
    repeats = [query[:0]]
    while node.size:
        up = parent[above]
        live = (above > 0) & (up < above)
        node, above = node[live], up[live]
        repeats.append(node[var[above] == var[node]])
    rules = [(np.flatnonzero((var < 0) | (var >= _VAR_LIMIT)), "variable {} is outside 1..2**31 - 1"),
             (np.flatnonzero((var == 0) & ((leaf < 0) | (leaf > U))), "a leaf needs a trit (0, 1 or 2)"),
             (query[leaf[query] != 0], "a query node needs leaf value 0"),
             (query[query >= 1 + base * np.arange(query.size)], "a query node needs its children after it"),
             (np.concatenate(repeats), "variable {} repeats along the path")]
    faults = [(int(nodes.min()), text) for nodes, text in rules if nodes.size]
    if faults:
        i, text = min(faults, key=operator.itemgetter(0))  # the first rule broken at the least node
        raise TreeFormatError(f"node {i}: " + text.format(var[i]))


# ---------------------------------------------------------------------------
# The certificate-guided solver, scanning decoded inputs.


def solve_by_scan(table, oracle):
    """``algorithms.algorithm1_solve`` with each round's least consistent
    input of the stage value found by scanning all 3**n inputs in code
    order; the budget and the certificates come from the package."""
    n, f = table.arity, table.function
    if f.is_constant():
        return SolveResult(f.value_at_index(0), oracle.query_count, 0, oracle.transcript)
    blocks, certs = block_summary(table), certificate_summary(table)
    bound = blocks.by_value[1] * certs.c_u_0 + blocks.by_value[0] * certs.c_u_1
    inputs = list(ternary_strings(n))
    answers = {}
    for want in (0, 1):
        while True:
            x = next((y for code, y in enumerate(inputs) if table.values[code] == want
                      and all(answers.get(p, y[p]) == y[p] for p in range(n))), None)
            if x is None:
                break
            cert = certificate_u_at(table, TernaryString(x))
            for var in sorted(cert.assignment.domain()):
                answers[var - 1] = oracle.query(var)
            # The coarsest consistent input, u wherever unanswered.
            value = table.evaluate([answers.get(p, U) for p in range(n)])
            if value != U:
                return SolveResult(value, oracle.query_count, bound, oracle.transcript)
    return SolveResult(U, oracle.query_count, bound, oracle.transcript)


def algorithm1_tree(table):
    """``algorithms.algorithm1_tree`` built from a frontier of answer
    states one at a time, each round's step taken by the oracle driver's
    ``_algorithm1_step``: a round becomes a chain of query nodes over its
    domain, and the step at the end of the chain gives the next round or
    the leaf."""
    f = table.function
    if f.is_constant():
        return DecisionTree._of([0], [f.value_at_index(0)])
    var, leaf = [], []
    layer = [((STAR,) * table.arity, None, ())]
    while layer:
        below = []
        for cells, stage, todo in layer:
            if not todo:
                step = _algorithm1_step(table, cells, stage)
                if isinstance(step, int):
                    var.append(0)
                    leaf.append(step)
                    continue
                stage, todo = step
            p = todo[0] - 1
            var.append(todo[0])
            leaf.append(0)
            below.extend((cells[:p] + (a,) + cells[p + 1:], stage, todo[1:])
                         for a in (0, 1, U))
        layer = below
    return DecisionTree._of(var, leaf)


# ---------------------------------------------------------------------------
# Measure kernels as they were before the slab transform, the seeded bs
# scan and the bitmask block lattice replaced them.


def min_over_coarsenings(a):
    """In place over {0, 1, u, *}^n: a[x] becomes the least a[y] - k over
    x and every cell y made from x by turning k of its cells into *, by
    one pass per axis over the whole array, each of the 0, 1 and u layers
    taking the min with the * layer less one."""
    def layer(axis, k):
        return a[(slice(None),) * axis + (slice(k, k + 1),)]

    lower = np.empty_like(layer(0, 3))
    for axis in range(a.ndim):
        scratch = lower.reshape(layer(axis, 3).shape)
        np.subtract(layer(axis, 3), 1, out=scratch)
        for k in (0, 1, U):
            np.minimum(layer(axis, k), scratch, out=layer(axis, k))


def certificate_sizes(forced: bytes, n: int):
    """The minimum certificate size at every ternary input, by code, from
    the forced bits of {0, 1, u, *}^n unpacked whole, a byte per cell:
    n at a forced cell and 0xFE elsewhere, less the most *s a forced
    coarsening adds."""
    cert = np.unpackbits(np.frombuffer(forced, dtype=np.uint8), count=4 ** n,
                         bitorder="little")
    cert *= np.uint8(n + 2)
    cert += np.uint8(0xFE)
    cert = cert.reshape((4,) * n)
    min_over_coarsenings(cert)
    return np.ascontiguousarray(cert[(slice(0, 3),) * n]).reshape(-1)


def packing_scan(table, arrays, codes, bounds) -> list:
    """Per output trit, None or (size, x, family) at the first input x of
    ``codes`` attaining the largest packing of its value class, scanned
    one input at a time in the order given; an input whose bound does not
    exceed the best of its class so far is skipped unpacked."""
    from uquery.measures import _block_witnesses, _max_disjoint, _minimal_blocks, _weights

    n = table.arity
    vals, pw = table.values, _weights(n)
    forced = np.frombuffer(arrays.forced, dtype=np.uint8)
    best = [None, None, None]
    for base, bound in zip(codes, bounds):
        v = vals[base]
        if best[v] is not None and bound <= best[v][0]:
            continue
        x = TernaryString.from_code(base, n)
        blocks = _minimal_blocks(table, forced, x.trits, v)
        picked = _max_disjoint(blocks)
        if best[v] is None or len(picked) > best[v][0]:
            family = _block_witnesses(vals, x, base, pw, [blocks[j] for j in picked])
            best[v] = (len(picked), x, family)
    return best


def block_lattice(n: int):
    """``measures._block_lattice`` built block by block: the blocks by
    size then in ``combinations`` order, the cell and 0-fill weights and
    offsets per block and then the empty block, and each block's index
    less each member (the empty block's where there is none)."""
    blocks = [blk for size in range(1, n + 1) for blk in combinations(range(n), size)]
    index = {blk: i for i, blk in enumerate(blocks)}
    kept = np.ones((len(blocks) + 1, n), dtype=np.int64)
    less = np.full((n, len(blocks)), len(blocks), dtype=np.intp)
    for i, blk in enumerate(blocks):
        kept[i, list(blk)] = 0
        if len(blk) > 1:
            for p in blk:
                less[p, i] = index[tuple(q for q in blk if q != p)]
    pw3 = np.array([3 ** (n - 1 - p) for p in range(n)])
    pw4 = np.array([4 ** (n - 1 - p) for p in range(n)])
    offsets = np.outer((1, 0), (1 - kept) @ (3 * pw4))
    return tuple(blocks), np.stack((kept * pw4, kept * pw3)), offsets, less


def sensitivity_array(grid):
    """s_u at every ternary input, as a (3,) * n uint8 array: per axis,
    the 0, 1 and u layers each count the positions where one of the
    other two trits changes the value, from three pairwise masks."""
    def layer(a, axis, k):
        return a[(slice(None),) * axis + (slice(k, k + 1),)]

    sens = np.zeros(grid.shape, dtype=np.uint8)
    for axis in range(grid.ndim):
        v0, v1, vu = (layer(grid, axis, k) for k in (0, 1, U))
        d01, d0u, d1u = v0 != v1, v0 != vu, v1 != vu
        for k, moved in ((0, d01 | d0u), (1, d01 | d1u), (U, d0u | d1u)):
            cell = layer(sens, axis, k)
            cell += moved
    return sens


def forced_words(grids, n, answers):
    """``depth._forced_words`` as it was before the planes of an arity
    with no word axes were ORed in one call: every plane spread over the
    words and ORed into L_0 in turn, the shifts and masks Python ints."""
    values = np.array(answers, dtype=np.uint8)
    count, inner = len(grids), min(n, 3)
    outer = n - inner
    codes, starless = _cell_codes(inner)
    planes = grids.reshape(count, -1, 3 ** inner).take(codes, axis=2) == values[:, None, None, None]
    packed = _packed(planes)
    del planes  # a byte per cell: freed before the word axes are spread
    packed = packed.view(f"<u{packed.shape[-1]}")[..., 0]  # a table of fewer cells in a shorter word
    packed &= starless
    for stride, digit, mask in _layout(inner, answers).shifts:  # those of the in-word axes
        kids = _kids_by_shift(packed, stride, digit, (0, 1))
        kids &= mask
        packed |= kids
    forced = np.zeros((count, 4 ** outer), dtype=packed.dtype)
    words = np.empty((count,) + (4,) * outer, dtype=packed.dtype)
    ternary = words[(slice(None),) + (slice(0, 3),) * outer]  # the words of ternary cells
    for plane in packed:
        # Every word of * cells is written by the merge on its last * axis,
        # from children whose *s all lie on earlier axes, so what a word
        # held before, from the plane before or from np.empty, is never read.
        ternary[...] = plane.reshape(ternary.shape)
        for p in range(outer):
            view = words.reshape(count * 4 ** p, 4, -1)
            np.bitwise_and(view[:, 0], view[:, 1], out=view[:, 3])
        forced |= words.reshape(count, -1)
    return forced.view(np.uint8)
