"""Measures under the NPN symmetries: permuting and negating inputs, and
negating the output.

The hazard-free extension commutes with permuting variables and with
negating inputs (u stays u), and negating the output swaps 0 and 1 and
fixes u.  So every measure is invariant under input permutation and
negation, while output negation swaps the measures of the 0- and the
1-valued inputs.  None of these checks needs a brute-force reference.
"""

import itertools
import random

import pytest

from uquery import BooleanFunction, generate, hazard_free_table, measure_report
from uquery.check import _witness_problems

# The report fields an output negation swaps; every other field is kept.
OUTPUT_SWAP = {"bs_u_0": "bs_u_1", "bs_u_1": "bs_u_0",
               "C_u_0": "C_u_1", "C_u_1": "C_u_0"}


def _transform(f, perm, flips, negate):
    """g(x) = f(y) xor negate, where y_k = x_perm[k] xor flips[k]."""
    n = f.arity
    bits = 0
    for i in range(1 << n):
        x = [(i >> (n - 1 - p)) & 1 for p in range(n)]
        y = 0
        for k in range(n):
            y = 2 * y + (x[perm[k]] ^ flips[k])
        bits |= (f.value_at_index(y) ^ negate) << i
    return BooleanFunction(n, bits)


def _values(report):
    return {k: v for k, v in report.to_json_dict().items() if k != "witnesses"}


@pytest.mark.parametrize("n", range(1, 9))
def test_measures_follow_npn_transforms(n):
    rng = random.Random(900 + n)
    if n <= 3:
        tables = range(1 << (1 << n))
    else:
        tables = [rng.getrandbits(1 << n) for _ in range(12 if n == 4 else 6)]
    for i, bits in enumerate(tables):
        f = BooleanFunction(n, bits)
        perm = rng.sample(range(n), n)
        flips = [rng.randrange(2) for _ in range(n)]
        negate = i % 2
        g = _transform(f, perm, flips, negate)
        table = hazard_free_table(g)
        report = measure_report(table, with_witnesses=True)
        want = _values(measure_report(hazard_free_table(f)))
        if negate:
            want = {OUTPUT_SWAP.get(k, k): v for k, v in want.items()}
        assert _values(report) == want, (f.to_spec(), perm, flips, negate)
        assert _witness_problems(table, report) is None


def _npn_orbit(f):
    n = f.arity
    return {_transform(f, perm, flips, negate).bits
            for perm in itertools.permutations(range(n))
            for flips in itertools.product((0, 1), repeat=n)
            for negate in (0, 1)}


def test_bs_u_above_c_u_inventory_is_three_npn_orbits():
    # The n = 3 functions whose bs_u exceeds C_u, the catalogued
    # extremal case table:e0:3 among them.
    reports = {bits: measure_report(hazard_free_table(BooleanFunction(3, bits)))
               for bits in range(256)}
    above = {bits for bits, r in reports.items() if r.bs_u > r.C_u}
    assert len(above) == 80 and generate("table:e0:3").bits in above
    orbits = []
    left = set(above)
    while left:
        orbit = _npn_orbit(BooleanFunction(3, min(left)))
        assert orbit <= left
        orbits.append(len(orbit))
        left -= orbit
    assert sorted(orbits) == [8, 24, 48]
