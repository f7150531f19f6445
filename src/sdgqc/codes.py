"""Linear codes over GF(2)/GF(4)/GF(16).

A code is identified with the unique reduced row-echelon form of its
generator matrix, so two LinearCode objects are equal iff they describe the
same set of codewords.  Below the API every vector is a packed int (see
`Field.packed_ops`): symbol i sits in bits [i*bits, (i+1)*bits), so a row's
pivot, its first nonzero column, is its lowest set bit.  Symbol tuples
appear only at the boundary: `from_rows`, `contains`, the `rows` view and
the text format.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator, Sequence

from .fields import Field, GF2, field_for

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"

#: Enumeration work above this many codewords fails loudly.
DEFAULT_BUDGET = 2**24

FORMAT_HEADER = "sdgqc-code v1"


class EnumerationBudgetExceeded(Exception):
    """Raised when an exhaustive enumeration would exceed its budget."""


def check_inner(field: Field, inner: str) -> None:
    if inner == EUCLIDEAN and field.q != 2:
        raise ValueError("Euclidean duality is used only over GF(2) here")
    if inner == HERMITIAN and field.q not in (4, 16):
        raise ValueError("Hermitian duality needs GF(4) or GF(16)")
    if inner not in (EUCLIDEAN, HERMITIAN):
        raise ValueError(f"unknown inner product {inner!r}")


def pack(field: Field, v: Sequence[int]) -> int:
    b = field.bits
    acc = 0
    for i, s in enumerate(v):
        acc |= s << (i * b)
    return acc


def _reduce(field: Field, scale, rows, v: int) -> int:
    """Residue of packed v after elimination against packed RREF rows."""
    m = field.q - 1
    for r in rows:
        c = v >> (r & -r).bit_length() - 1 & m  # v's symbol at r's pivot
        if c:
            v ^= scale(c, r)
    return v


def _insert(field: Field, scale, rows: list, v: int) -> bool:
    """Add packed v to the RREF rows in place, keeping them in pivot order;
    False, with rows unchanged, if v lies in their span."""
    v = _reduce(field, scale, rows, v)
    if not v:
        return False
    m = field.q - 1
    t = (v & -v).bit_length() - 1
    t -= t % field.bits  # the first bit of v's pivot slot
    v = scale(field.inverse(v >> t & m), v)
    for i, r in enumerate(rows):
        c = r >> t & m
        if c:
            rows[i] = r ^ scale(c, v)
    insort(rows, v, key=lambda r: r & -r)
    return True


def _meet(field: Field, ops, dual: list, w: int) -> list:
    """span(dual) ∩ w^perp: of the rows not orthogonal to w, the last one is
    eliminated from the others.  The scan runs from the last row to the
    first row j not orthogonal to w; only the rows before j are paired with
    w and updated, and the rows after j are copied as they are.  An echelon
    basis stays one, in its order: by ascending first nonzero column
    (RREF), or by descending last one.  A reduced one (pivot symbols 1,
    every other row 0 in a pivot column) stays reduced, since the
    eliminated row is 0 in the other pivot columns; the census's pruning
    reads coefficients off pivot columns and relies on this."""
    scale, pair, _ = ops
    j = len(dual) - 1
    while j >= 0:
        a = pair(dual[j], w)
        if a:
            break
        j -= 1
    else:
        return dual
    rj = scale(field.inverse(a), dual[j])  # <rj, w> = 1
    out = [row ^ scale(a, rj) if (a := pair(row, w)) else row for row in dual[:j]]
    out += dual[j + 1:]
    return out


def rref(field: Field, rows: Iterable[int], n: int) -> list:
    """The reduced row-echelon basis of the span of packed rows, by pivot."""
    scale = field.packed_ops(n)[0]
    basis: list = []
    for v in rows:
        _insert(field, scale, basis, v)
    return basis


def kernel_basis(field: Field, rows: Iterable[int], n: int) -> list:
    """RREF basis of {v : <r, v> = 0 for every packed row r}, in the
    designated inner product."""
    ops = field.packed_ops(n)
    dual = [1 << i * field.bits for i in range(n)]
    for r in rows:
        dual = _meet(field, ops, dual, r)
    return dual


class LinearCode:
    """A k-dimensional length-n code held as its canonical RREF generator:
    `basis` holds the packed rows by pivot, `rows` is their tuple view."""

    __slots__ = ("field", "n", "k", "basis")

    def __init__(self, field: Field, n: int, basis: tuple):
        # basis must already be canonical; use from_rows for arbitrary input
        self.field = field
        self.n = n
        self.basis = basis
        self.k = len(basis)

    @classmethod
    def from_rows(cls, field: Field, n: int, rows: Iterable[Sequence[int]]) -> "LinearCode":
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != n:
                raise ValueError(f"row of length {len(r)}, expected {n}")
            for s in r:
                field.check(s)
        return cls(field, n, tuple(rref(field, [pack(field, r) for r in rows], n)))

    @classmethod
    def zero(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n, ())

    @property
    def rows(self) -> tuple:
        """The generator rows as symbol tuples."""
        b, m = self.field.bits, self.field.q - 1
        return tuple(tuple(r >> i * b & m for i in range(self.n)) for r in self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.field.q == other.field.q
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.n, self.basis))

    def __repr__(self) -> str:
        return f"LinearCode(GF({self.field.q}), n={self.n}, k={self.k})"

    # -- membership and duality --------------------------------------------

    def contains(self, v: Sequence[int]) -> bool:
        for s in v:
            self.field.check(s)
        if len(v) != self.n:
            raise ValueError("length mismatch")
        scale = self.field.packed_ops(self.n)[0]
        return not _reduce(self.field, scale, self.basis, pack(self.field, v))

    def dual(self, inner: str) -> "LinearCode":
        """Null space w.r.t. the chosen inner product."""
        check_inner(self.field, inner)
        return LinearCode(self.field, self.n, tuple(kernel_basis(self.field, self.basis, self.n)))

    def is_self_orthogonal(self, inner: str) -> bool:
        check_inner(self.field, inner)
        pair = self.field.packed_ops(self.n)[1]
        return all(pair(u, v) == 0 for i, u in enumerate(self.basis) for v in self.basis[i:])

    def is_self_dual(self, inner: str) -> bool:
        return 2 * self.k == self.n and self.is_self_orthogonal(inner)

    def is_type_ii(self) -> bool:
        """Doubly even self-dual, via the generator criterion."""
        if self.field.q != 2:
            raise ValueError("Type II is a binary notion")
        if not self.is_self_dual(EUCLIDEAN):
            return False
        return all(r.bit_count() % 4 == 0 for r in self.basis)

    # -- enumeration --------------------------------------------------------

    def _check_budget(self, budget: int) -> None:
        if self.field.q**self.k > budget:
            raise EnumerationBudgetExceeded(
                f"{self.field.q}^{self.k} codewords exceeds budget {budget}"
            )

    def iter_packed(self) -> Iterator[int]:
        """All q^k codewords as packed ints (zero word first)."""
        if self.field.q == 2:
            word = 0
            yield word
            for i in range(1, 1 << self.k):
                word ^= self.basis[(i & -i).bit_length() - 1]
                yield word
            return
        srows = list(map(self.field.multiples(self.n), self.basis))

        def rec(i: int, acc: int):
            if i == len(srows):
                yield acc
                return
            for packed in srows[i]:
                yield from rec(i + 1, acc ^ packed)

        yield from rec(0, 0)

    def weight_tally(self, budget: int = DEFAULT_BUDGET) -> dict:
        """Exact weight distribution {weight: count}."""
        self._check_budget(budget)
        support = self.field.packed_ops(self.n)[2]
        tally: dict = {}
        for pv in self.iter_packed():
            w = support(pv).bit_count()
            tally[w] = tally.get(w, 0) + 1
        return tally

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        """Minimum Hamming weight over nonzero codewords, by enumeration."""
        if self.k == 0:
            raise ValueError("the zero code has no minimum distance")
        self._check_budget(budget)
        support = self.field.packed_ops(self.n)[2]
        best = self.n + 1
        for pv in self.iter_packed():
            if pv == 0:
                continue
            w = support(pv).bit_count()
            if w < best:
                best = w
        return best

    # -- text format --------------------------------------------------------

    def dump(self) -> str:
        lines = [
            FORMAT_HEADER,
            f"q {self.field.q}",
            f"n {self.n}",
            f"k {self.k}",
        ]
        for row in self.rows:
            lines.append("".join(format(s, "x") for s in row))
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.dump())


def parse_symbols(field: Field, text: str) -> tuple:
    out = []
    for ch in text:
        try:
            s = int(ch, 16)
        except ValueError:
            raise ValueError(f"bad symbol {ch!r}") from None
        if ch != format(s, "x") or s >= field.q:
            raise ValueError(f"bad symbol {ch!r} for GF({field.q})")
        out.append(s)
    return tuple(out)


def loads(text: str) -> LinearCode:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"missing {FORMAT_HEADER!r} header")

    def field_line(idx: int, key: str) -> int:
        if idx >= len(lines):
            raise ValueError("truncated code file")
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"expected '{key} <int>', got {lines[idx]!r}")
        return int(parts[1])

    q = field_line(1, "q")
    n = field_line(2, "n")
    k = field_line(3, "k")
    field = field_for(q)
    body = lines[4:]
    if len(body) != k:
        raise ValueError(f"expected {k} generator rows, found {len(body)}")
    rows = []
    for ln in body:
        row = parse_symbols(field, ln)
        if len(row) != n:
            raise ValueError(f"row of length {len(row)}, expected {n}")
        rows.append(row)
    code = LinearCode.from_rows(field, n, rows)
    if code.k != k:
        raise ValueError(f"rows have rank {code.k}, header says k={k}")
    return code


def load(path) -> LinearCode:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def extended_hamming_code() -> LinearCode:
    """The [8,4,4] extended Hamming code (doubly even, self-dual)."""
    rows = [
        (1, 1, 1, 1, 1, 1, 1, 1),
        (0, 1, 0, 1, 0, 1, 0, 1),
        (0, 0, 1, 1, 0, 0, 1, 1),
        (0, 0, 0, 0, 1, 1, 1, 1),
    ]
    return LinearCode.from_rows(GF2, 8, rows)
