"""Boolean functions and their hazard-free extensions to three-valued inputs.

A Boolean function on n variables is extended to inputs over {0, 1, u},
where u stands for an unresolved/unknown bit.  The extension takes the
value b in {0, 1} on input y exactly when every way of resolving the u
positions of y to constants yields b; otherwise it takes the value u.
This is the unique hazard-free extension and it restricts to Kleene's
strong three-valued logic on AND, OR and NOT.

Conventions used throughout the package:

* variables are numbered 1..n and variable 1 is the most significant bit
  of every index (truth tables, ternary codes, hex serializations);
* trits are the ints 0, 1 and 2, with 2 rendered as the character 'u';
* partial assignments add a fourth cell value 3, rendered as '*', for
  unassigned positions (``depth._forced_bits`` finds those forcing a value);
* a hazard-free table's ``grid`` is its values viewed read-only as a
  (3,) * n array, one axis per variable, so C order is code order and a
  partial assignment's consistent inputs are a block of it.

All types here are immutable; every function of the module is pure.
"""

from __future__ import annotations

import random as _random
import re
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

ZERO = 0
ONE = 1
UNKNOWN = 2  # the trit 'u'
STAR = 3     # unassigned cell of a partial assignment, never a query answer

TRIT_CHARS = "01u"
_TRITS = frozenset({ZERO, ONE, UNKNOWN})
CELL_CHARS = "01u*"

# Arity caps guard against accidental huge allocations (3**n and 4**n
# table/memo sizes).  They are defaults, not hard limits: a hazard-free
# table is built under a cap, and every array and search on it obeys it.
DEFAULT_TABLE_CAP = 16
DEFAULT_SEARCH_CAP = 12


class SpecError(ValueError):
    """Raised for malformed function spec strings."""


class ArityCapError(ValueError):
    """Raised when an operation would exceed the configured arity cap."""


def check_cap(arity: int, cap: int | None, default: int, what: str) -> None:
    limit = default if cap is None else cap
    if arity > limit:
        raise ArityCapError(
            f"{what} on {arity} variables exceeds the cap of {limit}; "
            f"raise the cap explicitly if this size is intended"
        )


def _parse_chars(text: str, alphabet: str, kind: str) -> tuple[int, ...]:
    values = []
    for ch in text:
        idx = alphabet.find(ch)
        if idx < 0:
            raise ValueError(f"invalid character {ch!r} in {kind} {text!r}")
        values.append(idx)
    if not values:
        raise ValueError(f"empty {kind}")
    return tuple(values)


@dataclass(frozen=True)
class TernaryString:
    """A string over {0, 1, u}; the input alphabet of the u-query model."""

    trits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.trits:
            raise ValueError("ternary string must have length >= 1")
        try:
            trits = _TRITS.issuperset(self.trits)
        except TypeError:  # an unhashable element is no trit either
            trits = False
        if not trits:
            raise ValueError(f"trits must be 0, 1 or 2, got {self.trits}")

    @classmethod
    def parse(cls, text: str) -> "TernaryString":
        return cls(_parse_chars(text, TRIT_CHARS, "ternary string"))

    @classmethod
    def from_code(cls, code: int, arity: int) -> "TernaryString":
        """Inverse of :meth:`code`: base-3 digits, variable 1 most significant."""
        trits = [0] * arity
        for pos in range(arity - 1, -1, -1):
            code, trits[pos] = divmod(code, 3)
        if code:
            raise ValueError(f"code outside 0..3**{arity} - 1")
        return cls(tuple(trits))

    def code(self) -> int:
        """Base-3 encoding with digit map 0->0, 1->1, u->2."""
        c = 0
        for t in self.trits:
            c = c * 3 + t
        return c

    def __str__(self) -> str:
        return "".join(TRIT_CHARS[t] for t in self.trits)

    def __len__(self) -> int:
        return len(self.trits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.trits)

    def __getitem__(self, pos: int) -> int:
        return self.trits[pos]

    def is_binary(self) -> bool:
        return UNKNOWN not in self.trits

    def u_positions(self) -> tuple[int, ...]:
        """0-based positions holding u."""
        return tuple(p for p, t in enumerate(self.trits) if t == UNKNOWN)

    def bin_index(self) -> int:
        """Truth-table index of a fully resolved string (variable 1 = MSB)."""
        if not self.is_binary():
            raise ValueError(f"{self} contains u and has no truth-table index")
        idx = 0
        for t in self.trits:
            idx = idx * 2 + t
        return idx


def as_ternary(value: "TernaryString | str | Sequence[int]") -> TernaryString:
    if isinstance(value, TernaryString):
        return value
    if isinstance(value, str):
        return TernaryString.parse(value)
    return TernaryString(tuple(value))


def resolutions(y: TernaryString | str) -> list[TernaryString]:
    """All binary strings obtained by resolving every u of y, in lex order."""
    y = as_ternary(y)
    spots = y.u_positions()
    out = []
    for bits in product((0, 1), repeat=len(spots)):
        z = list(y.trits)
        for pos, b in zip(spots, bits):
            z[pos] = b
        out.append(TernaryString(tuple(z)))
    return out


@dataclass(frozen=True)
class PartialAssignment:
    """Cells over {0, 1, u, *}; '*' marks positions outside the domain.

    A ternary string y is consistent with the assignment when it agrees
    with every non-* cell.  Note that u is an ordinary cell value here:
    a recorded oracle answer of u constrains y to have u at that spot.
    """

    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("partial assignment must have length >= 1")
        if any(c not in (0, 1, 2, 3) for c in self.cells):
            raise ValueError(f"cells must be 0..3, got {self.cells}")

    @classmethod
    def parse(cls, text: str) -> "PartialAssignment":
        return cls(_parse_chars(text, CELL_CHARS, "partial assignment"))

    @classmethod
    def restriction(cls, x: TernaryString, domain: Iterable[int]) -> "PartialAssignment":
        """x kept on the given variable indices (1-based), '*' elsewhere."""
        cells = [STAR] * len(x)
        for var in domain:
            if not 0 < var <= len(cells):
                raise ValueError(f"variable {var} outside 1..{len(cells)}")
            cells[var - 1] = x.trits[var - 1]
        return cls(tuple(cells))

    def __str__(self) -> str:
        return "".join(CELL_CHARS[c] for c in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, pos: int) -> int:
        return self.cells[pos]

    @property
    def size(self) -> int:
        """Number of assigned positions."""
        return sum(1 for c in self.cells if c != STAR)

    def domain(self) -> frozenset[int]:
        """Assigned variable indices, 1-based."""
        return frozenset(p + 1 for p, c in enumerate(self.cells) if c != STAR)

    def is_consistent(self, y: TernaryString | str) -> bool:
        y = as_ternary(y)
        if len(y) != len(self):
            raise ValueError("length mismatch")
        return all(c == STAR or c == t for c, t in zip(self.cells, y.trits))


def _hex_width(arity: int) -> int:
    return max(1, (1 << arity) // 4)


@dataclass(frozen=True)
class BooleanFunction:
    """A total function {0,1}^arity -> {0,1}, stored as a packed truth table.

    Bit i of ``bits`` is the value at truth-table index i, where the index
    of a binary input has variable 1 as its most significant bit.
    """

    arity: int
    bits: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.bits < 0 or self.bits.bit_length() > (1 << self.arity):
            raise ValueError("truth table does not fit the declared arity")

    @classmethod
    def from_table(cls, table: Iterable[int]) -> "BooleanFunction":
        entries = list(table)
        n = max(1, (len(entries) - 1).bit_length())
        if len(entries) != 1 << n or len(entries) < 2:
            raise ValueError(f"table length {len(entries)} is not a power of two >= 2")
        bits = 0
        for idx, v in enumerate(entries):
            if v not in (0, 1):
                raise ValueError(f"table entry {v!r} is not a bit")
            bits |= v << idx
        return cls(n, bits)

    @classmethod
    def from_hex(cls, hex_table: str, arity: int) -> "BooleanFunction":
        if arity < 1:
            raise SpecError("arity must be >= 1")
        width = _hex_width(arity)
        if len(hex_table) != width:
            raise SpecError(
                f"hex table {hex_table!r} must have exactly {width} digits for arity {arity}"
            )
        if not re.fullmatch("[0-9a-fA-F]+", hex_table):
            raise SpecError(f"malformed hex table {hex_table!r}")
        packed = int(hex_table, 16)
        size = 1 << arity
        pad = 4 * width - size
        if packed & ((1 << pad) - 1):
            raise SpecError(f"hex table {hex_table!r} has nonzero padding bits")
        return cls(arity, int(format(packed >> pad, f"0{size}b")[::-1], 2))

    def to_hex(self) -> str:
        """Table bits MSB-first: entry 0 lands in the top bit of digit 0."""
        width = _hex_width(self.arity)
        size = 1 << self.arity
        packed = int(format(self.bits, f"0{size}b")[::-1], 2) << (4 * width - size)
        return format(packed, f"0{width}x")

    def to_spec(self) -> str:
        return f"table:{self.to_hex()}:{self.arity}"

    def value_at_index(self, idx: int) -> int:
        return (self.bits >> idx) & 1

    def evaluate(self, x: TernaryString | str | Sequence[int]) -> int:
        """Value on a fully resolved input; use a hazard table for u inputs."""
        x = as_ternary(x)
        if len(x) != self.arity:
            raise ValueError(f"input length {len(x)} != arity {self.arity}")
        return self.value_at_index(x.bin_index())

    def truth_table(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(1 << self.arity))

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == (1 << (1 << self.arity)) - 1


@dataclass(frozen=True)
class Orientation:
    """Per-variable complementation pattern witnessing unateness.

    Bit s_i = 0 means the function is nondecreasing in variable i after
    the shift x -> f(x xor s), bit 1 means it had to be flipped.
    """

    bits: tuple[int, ...]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


class HazardFreeTable:
    """The hazard-free extension of a function, tabulated over all 3**n inputs.

    ``values[code]`` is the extension's value at the ternary string with
    that base-3 code (digits 0, 1, u->2; variable 1 most significant), kept
    as ``bytes`` whatever buffer it came in, and ``grid`` the same bytes
    viewed read-only as a (3,) * n array.  ``cap`` is the arity cap the
    table was built under: its per-table arrays and depth searches obey
    it, and None means their defaults.  Equality and hashing ignore it.
    Instances are immutable and safe to share across threads/processes.
    """

    __slots__ = ("function", "values", "grid", "cap")

    def __init__(self, function: BooleanFunction, values: bytes, cap: int | None = None):
        if len(values) != 3 ** function.arity:
            raise ValueError("value table has wrong size")
        self.function = function
        self.cap = cap
        self.values = values = bytes(values)
        self.grid = np.frombuffer(values, np.uint8).reshape((3,) * function.arity)

    @property
    def arity(self) -> int:
        return self.function.arity

    def evaluate(self, y: TernaryString | str | Sequence[int]) -> int:
        y = as_ternary(y)
        if len(y) != self.arity:
            raise ValueError(f"input length {len(y)} != arity {self.arity}")
        return self.values[y.code()]

    def least_input(self, cells: Sequence[int], value: int) -> TernaryString | None:
        """The least input of the given value agreeing with every cell
        that is not STAR, or None.  The cells fix a block of the grid,
        free on the STAR axes, and as C order over those axes is lex order
        of the whole input, the block's first hit is the least input."""
        if len(cells) != self.arity:
            raise ValueError(f"cells length {len(cells)} != arity {self.arity}")
        block = self.grid[tuple(slice(None) if c == STAR else c for c in cells)]
        hits = np.flatnonzero(block == value)
        if not hits.size:
            return None
        free = iter(np.unravel_index(hits[0], block.shape))
        return TernaryString(tuple(int(next(free)) if c == STAR else c for c in cells))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HazardFreeTable):
            return NotImplemented
        return self.function == other.function and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.function, self.values))

    def __reduce__(self):
        # Rebuilt from its bytes, so a copy's grid is a read-only view too.
        return HazardFreeTable, (self.function, self.values, self.cap)


def _add_u_layers(codes: np.ndarray, axes: int, block: int) -> np.ndarray:
    """Extend ``axes`` binary axes of value codes to ternary ones, innermost first.

    ``codes`` holds blocks of ``block`` entries in C order, each closed
    over its own variables, one block per setting of the binary axes.
    Each step pairs the blocks that differ only in the innermost binary
    axis, keeps the pair as its 0 and 1 layers and adds their OR as its
    u layer, so a step triples the block and halves the number of
    blocks.  The OR is right because the resolutions of an entry with a
    u on that axis are those of its two neighbours there together.
    """
    for _ in range(axes):
        pairs = codes.reshape(-1, 2, block)
        codes = np.empty((len(pairs), 3, block), np.uint8)
        codes[:, :2] = pairs
        np.bitwise_or(pairs[:, 0], pairs[:, 1], out=codes[:, UNKNOWN])
        block *= 3
    return codes.reshape(-1, block)


@cache
def _byte_codes(m: int) -> np.ndarray:
    """Row b: the 3**m value codes of the function of m <= 3 variables
    whose truth bits are the byte b, as ``hazard_free_table`` codes them."""
    size = 1 << m
    bits = np.arange(1 << size)[:, None] >> np.arange(size) & 1
    codes = _add_u_layers((bits + 1).astype(np.uint8), m, 1)
    codes.flags.writeable = False
    return codes


def hazard_free_table(f: BooleanFunction, cap: int | None = None) -> HazardFreeTable:
    """Tabulate the hazard-free extension of f over all 3**n ternary inputs.

    Each entry is first coded by the values its resolutions take: 1 for
    0 alone, 2 for 1 alone and 3 for both, that is u, so the code is
    one plus the table value.  An entry with a u at some position
    resolves exactly as its two neighbours there, 0 and 1, together, so
    its code is their bitwise OR: equal codes stay, different ones give
    3.  Byte j of the truth table holds the bits of the last m = min(n, 3)
    variables at the j-th setting of the others, so one lookup of each
    byte in ``_byte_codes(m)`` gives those 3**m entries, and
    ``_add_u_layers`` adds the other n - m variables' u layers with one
    OR each over blocks of at least 3**m entries.  No entry ever
    enumerates its resolutions.
    """
    n = f.arity
    check_cap(n, cap, DEFAULT_TABLE_CAP, "hazard-free table")
    m = min(n, 3)  # a byte holds 8 truth bits
    packed = np.frombuffer(f.bits.to_bytes(max(1, (1 << n) // 8), "little"), np.uint8)
    codes = _add_u_layers(_byte_codes(m).take(packed, axis=0), n - m, 3 ** m)
    codes -= 1
    return HazardFreeTable(f, codes.tobytes(), cap)


def _slopes(f: BooleanFunction) -> list[tuple[bool, bool]]:
    """Per variable 1..n: (rises, falls), whether raising that bit alone
    raises the value at some input, and whether it lowers it at some.
    ``low`` masks the table indices with the bit clear."""
    n, size = f.arity, 1 << f.arity
    out = []
    for var in range(1, n + 1):
        weight = 1 << (n - var)
        low = ((1 << weight) - 1) * (((1 << size) - 1) // ((1 << 2 * weight) - 1))
        lo, hi = f.bits & low, (f.bits >> weight) & low
        out.append((bool(hi & ~lo), bool(lo & ~hi)))
    return out


def dependent_variables(f: BooleanFunction) -> frozenset[int]:
    """Variable indices (1-based) the function actually depends on."""
    return frozenset(var for var, (up, down) in enumerate(_slopes(f), 1) if up or down)


def is_nondegenerate(f: BooleanFunction) -> bool:
    return len(dependent_variables(f)) == f.arity


def is_monotone(f: BooleanFunction) -> bool:
    """True when raising any input bit never lowers the output."""
    return not any(down for _, down in _slopes(f))


def unate_orientation(f: BooleanFunction) -> Orientation | None:
    """Orientation s such that x -> f(x xor s) is monotone, or None.

    s_i is 0 when f is nondecreasing in variable i and 1 when it is
    nonincreasing; variables with mixed behaviour make f non-unate and
    variables with no influence get the bit 0.
    """
    slopes = _slopes(f)
    if any(up and down for up, down in slopes):
        return None
    return Orientation(tuple(int(down) for _, down in slopes))


def downward_closure(f: BooleanFunction) -> BooleanFunction:
    """g(x) = 1 iff f(z) = 1 for some z <= x bitwise.  Always monotone."""
    n = f.arity
    table = list(f.truth_table())
    for b in range(n):
        weight = 1 << b
        for idx in range(1 << n):
            if idx & weight:
                table[idx] |= table[idx ^ weight]
    return BooleanFunction.from_table(table)


# ---------------------------------------------------------------------------
# Named function families and the function spec mini-language.


def _or_function(n: int) -> BooleanFunction:
    return BooleanFunction(n, ((1 << (1 << n)) - 1) & ~1)


def _and_function(n: int) -> BooleanFunction:
    return BooleanFunction(n, 1 << ((1 << n) - 1))


def _parity_function(n: int) -> BooleanFunction:
    bits = 0
    for idx in range(1 << n):
        bits |= (idx.bit_count() & 1) << idx
    return BooleanFunction(n, bits)


def _majority_function(n: int) -> BooleanFunction:
    bits = 0
    for idx in range(1 << n):
        if 2 * idx.bit_count() > n:
            bits |= 1 << idx
    return BooleanFunction(n, bits)


def _indexing_function(n: int) -> BooleanFunction:
    """n addressing variables select one of 2**n target variables.

    The addressing block, read with variable 1 as MSB, names the target
    position 1..2**n among the remaining variables.
    """
    m = n + (1 << n)
    targets = 1 << n
    bits = 0
    for idx in range(1 << m):
        addr = idx >> targets
        v = (idx >> (targets - 1 - addr)) & 1
        bits |= v << idx
    return BooleanFunction(m, bits)


def _monotone_indexing_function(n: int) -> BooleanFunction:
    """Monotone variant: inputs of middle Hamming weight select a target.

    Defined for even n on n + C(n, n/2) variables: the value is 0 below
    weight n/2 on the addressing block, 1 above it, and at exact weight
    n/2 it is the target variable indexed by the addressing string (the
    weight-n/2 strings ordered lexicographically).
    """
    half = n // 2
    middle = [s for s in range(1 << n) if s.bit_count() == half]
    # With variable 1 as the most significant bit, ascending integer
    # order is the lexicographic order of the strings.
    middle.sort()
    rank = {s: i for i, s in enumerate(middle)}
    k = len(middle)
    m = n + k
    bits = 0
    for idx in range(1 << m):
        addr = idx >> k
        w = addr.bit_count()
        if w < half:
            v = 0
        elif w > half:
            v = 1
        else:
            v = (idx >> (k - 1 - rank[addr])) & 1
        bits |= v << idx
    return BooleanFunction(m, bits)


def _random_function(n: int, seed: int) -> BooleanFunction:
    rng = _random.Random(seed)
    return BooleanFunction(n, rng.getrandbits(1 << n))


# The families with one size parameter n: the builder, the arity at n,
# and the parity n must have (None for any n).
_FAMILIES = {
    "or": (_or_function, lambda n: n, None),
    "and": (_and_function, lambda n: n, None),
    "parity": (_parity_function, lambda n: n, None),
    "maj": (_majority_function, lambda n: n, "odd"),
    "ind": (_indexing_function, lambda n: n + (1 << n), None),
    "mind": (_monotone_indexing_function, lambda n: n + comb(n, n // 2), "even"),
}


def parse_spec(spec: str) -> dict:
    """Parse a function spec string into family metadata.

    Returns a dict with keys ``family``, ``params`` (dict) and ``arity``.
    """
    parts = spec.strip().split(":")
    family = parts[0]

    def int_param(text: str, name: str) -> int:
        # Digits only: int() would also take a sign, spaces and underscores.
        if not re.fullmatch("[0-9]+", text):
            raise SpecError(f"{name} in spec {spec!r} must be a non-negative decimal integer")
        return int(text, 10)

    if family in _FAMILIES:
        if len(parts) != 2:
            raise SpecError(f"spec {spec!r} must look like {family}:<n>")
        n = int_param(parts[1], "n")
        if n < 1:
            raise SpecError(f"n must be >= 1 in spec {spec!r}")
        _, arity, parity = _FAMILIES[family]
        if parity is not None and n % 2 != (parity == "odd"):
            raise SpecError(f"{family}:n requires {parity} n")
        return {"family": family, "params": {"n": n}, "arity": arity(n)}
    if family == "table":
        if len(parts) != 3:
            raise SpecError(f"spec {spec!r} must look like table:<hex>:<n>")
        n = int_param(parts[2], "n")
        if n < 1:
            raise SpecError(f"n must be >= 1 in spec {spec!r}")
        return {"family": "table", "params": {"hex": parts[1], "n": n}, "arity": n}
    if family == "random":
        if len(parts) != 3:
            raise SpecError(f"spec {spec!r} must look like random:<n>:<seed>")
        n = int_param(parts[1], "n")
        seed = int_param(parts[2], "seed")
        if n < 1:
            raise SpecError(f"n must be >= 1 in spec {spec!r}")
        return {"family": "random", "params": {"n": n, "seed": seed}, "arity": n}
    raise SpecError(f"unknown function family in spec {spec!r}")


def generate(spec: str, cap: int | None = None) -> BooleanFunction:
    """Build a function from a spec string such as ``or:3`` or ``table:e8:2``.

    Families: or:n, and:n, parity:n, maj:n (odd n), ind:n (arity n + 2**n),
    mind:n (even n), table:<hex>:<n>, random:<n>:<seed>.
    """
    meta = parse_spec(spec)
    arity = meta["arity"]
    check_cap(arity, cap, DEFAULT_TABLE_CAP, f"function spec {spec!r}")
    family, params = meta["family"], meta["params"]
    if family in _FAMILIES:
        return _FAMILIES[family][0](params["n"])
    if family == "table":
        return BooleanFunction.from_hex(params["hex"], params["n"])
    return _random_function(params["n"], params["seed"])
