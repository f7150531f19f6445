"""Linear codes over GF(2)/GF(4)/GF(16).

A code is identified with the unique reduced row-echelon form of its
generator matrix, so two LinearCode objects are equal iff they describe the
same set of codewords.  Below the API every vector is a packed int: symbol
i sits in bits [i*bits, (i+1)*bits), so a row's pivot, its first nonzero
column, is its lowest set bit.  `Field.packed_ops(n)` gives the primitives
on them, refusing a width past 4,096 bits, and a scalar multiple c*v is
read off as `multiples(v)[c]`.  A symbol tuple enters through `pack` alone,
which checks its length and each symbol; `from_rows` and `contains` call
it.  Tuples leave through the `rows` view and the GF(4) rows of `dump`,
which prints a GF(2) or GF(16) row straight from its packed int.

There is one elimination routine: the dual meet, span(dual) ∩ w^perp
(`_meet_row` finds the row to eliminate, `_eliminate` removes it), and
`kernel_basis` meets the unit vectors with each row in turn.  The field's
form is nondegenerate, so C = (C^perp)^perp: `rref` is the dual of the
dual.  Membership needs no dual: the RREF's pivot symbols are 1 and every
other row is 0 in a pivot column, so v lies in C iff clearing v's symbol
at each row's pivot with that row leaves 0.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence

from .fields import Field, GF2, field_for

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"

#: Enumeration work above this many codewords fails loudly.
DEFAULT_BUDGET = 2**24

FORMAT_HEADER = "sdgqc-code v1"


class EnumerationBudgetExceeded(ValueError):
    """Raised when an exhaustive enumeration would exceed its budget: a
    refusal, and so a ValueError like every other one."""


def check_inner(field: Field, inner: str) -> None:
    if inner == EUCLIDEAN and field.q != 2:
        raise ValueError("Euclidean duality is used only over GF(2) here")
    if inner == HERMITIAN and field.q not in (4, 16):
        raise ValueError("Hermitian duality needs GF(4) or GF(16)")
    if inner not in (EUCLIDEAN, HERMITIAN):
        raise ValueError(f"unknown inner product {inner!r}")


def pack(field: Field, v: Sequence[int], n: int) -> int:
    """The word v of length n as a packed int, each symbol checked as it is
    packed: the one way a word enters a code."""
    if len(v) != n:
        raise ValueError(f"row of length {len(v)}, expected {n}")
    b = field.bits
    acc = 0
    for i, s in enumerate(v):
        acc |= field.check(s) << (i * b)
    return acc


def _meet_row(pair, dual: Sequence[int], w: int) -> tuple:
    """(j, a): the last row j of dual not orthogonal to w and a = <dual[j], w>,
    or (-1, 0) if every row is orthogonal to w."""
    for j in range(len(dual) - 1, -1, -1):
        a = pair(dual[j], w)
        if a:
            return j, a
    return -1, 0


def _eliminate(field: Field, ops, dual: Sequence[int], w: int, j: int, a: int) -> list:
    """span(dual) ∩ w^perp, given (j, a) = _meet_row(ops.pair, dual, w) with
    j >= 0: row j is eliminated from the rows before it, and the rows after
    it are copied as they are.  A row b = <row, w> short of orthogonal takes
    (b/a) * dual[j], read off one multiples tuple of dual[j]."""
    pair, mul, inv = ops.pair, field.mul, field.inverse(a)
    mj = ops.multiples(dual[j])
    out = [row ^ mj[mul(b, inv)] if (b := pair(row, w)) else row for row in dual[:j]]
    out += dual[j + 1:]
    return out


def _meet(field: Field, ops, dual: list, w: int) -> list:
    """span(dual) ∩ w^perp: of the rows not orthogonal to w, the last one is
    eliminated from the others (_meet_row finds it, _eliminate removes it).
    An echelon basis stays one, in its order: by ascending first nonzero
    column (RREF), or by descending last one.  A reduced one (pivot symbols
    1, every other row 0 in a pivot column) stays reduced, since the
    eliminated row is 0 in the other pivot columns; the census's pruning
    reads coefficients off pivot columns and relies on this."""
    j, a = _meet_row(ops.pair, dual, w)
    return _eliminate(field, ops, dual, w, j, a) if j >= 0 else dual


def rref(field: Field, rows: Iterable[int], n: int) -> list:
    """The reduced row-echelon basis of the span of packed rows, by pivot:
    the dual of their dual, since C = (C^perp)^perp under the field's
    nondegenerate form."""
    return kernel_basis(field, kernel_basis(field, rows, n), n)


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
        return cls(field, n, tuple(rref(field, (pack(field, tuple(r), n) for r in rows), n)))

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
        """v lies in the code iff clearing its symbol at each basis row's
        pivot leaves 0: a pivot symbol is 1 and every other row is 0 in that
        column, so subtracting w_p * r clears w at r's pivot and leaves its
        other pivot symbols as they are."""
        ops, m = self.field.packed_ops(self.n), self.field.q - 1
        w = pack(self.field, v, self.n)
        for r in self.basis:
            w ^= ops.multiples(r)[w >> (r & -r).bit_length() - 1 & m]
        return w == 0

    def dual(self, inner: str) -> "LinearCode":
        """Null space w.r.t. the chosen inner product."""
        check_inner(self.field, inner)
        return LinearCode(self.field, self.n, tuple(kernel_basis(self.field, self.basis, self.n)))

    def is_self_orthogonal(self, inner: str) -> bool:
        check_inner(self.field, inner)
        pair = self.field.packed_ops(self.n).pair
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

    def _check_budget(self) -> None:
        if self.field.q**self.k > DEFAULT_BUDGET:
            raise EnumerationBudgetExceeded(
                f"{self.field.q}^{self.k} codewords exceeds budget {DEFAULT_BUDGET}"
            )

    def iter_packed(self) -> Iterator[int]:
        """All q^k codewords as packed ints (zero word first), in binary Gray
        code order over a GF(2) basis of the code.

        The basis is x^j * r for each row r and j < bits, read off as
        multiples(r)[1 << j].  Each coefficient c in GF(q) is a unique sum
        of the x^j with j < bits, so the sums of these k*bits words are the
        sums c_1*r_1 + ... + c_k*r_k, each once: q^k = 2^(k*bits) words,
        distinct because the rows are independent.  At q=2 the basis is the
        rows themselves.
        """
        multiples = self.field.packed_ops(self.n).multiples
        basis = [multiples(r)[1 << j] for r in self.basis for j in range(self.field.bits)]
        word = 0
        yield word
        for i in range(1, 1 << len(basis)):
            word ^= basis[(i & -i).bit_length() - 1]
            yield word

    def weight_tally(self) -> dict:
        """Exact weight distribution {weight: count}."""
        self._check_budget()
        support = self.field.packed_ops(self.n).support
        tally: dict = {}
        for pv in self.iter_packed():
            w = support(pv).bit_count()
            tally[w] = tally.get(w, 0) + 1
        return tally

    def min_distance(self) -> int:
        """Minimum Hamming weight over nonzero codewords, by enumeration."""
        if self.k == 0:
            raise ValueError("the zero code has no minimum distance")
        self._check_budget()
        support = self.field.packed_ops(self.n).support
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
        """The code text: the header, then each row as one hex digit per
        symbol, symbol 0 first.  A GF(2) or GF(16) row is one format call,
        reversed; no format spec prints a 2-bit symbol per digit, so a GF(4)
        row is joined from its symbols."""
        q, n = self.field.q, self.n
        if q == 4:
            body = ["".join(format(s, "x") for s in row) for row in self.rows]
        else:
            digits = f"0{n}{'b' if q == 2 else 'x'}"
            body = [format(r, digits)[::-1] for r in self.basis]
        return "\n".join([f"{FORMAT_HEADER}\nq {q}\nn {n}\nk {self.k}", *body, ""])

    def save(self, path) -> None:
        # the text is built before the file is opened, so a failing dump
        # leaves no empty file; one raw descriptor, no text-mode file object
        data = self.dump().encode()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


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
        raw = parts[1]
        digits = raw[1:] if raw.startswith("-") else raw
        # int() would also take "1_0", "+2" and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"{key} must be a decimal integer, got {raw!r}")
        if digits != raw:
            raise ValueError(f"{key} must be nonnegative, got {raw}")
        return int(raw)

    q = field_line(1, "q")
    n = field_line(2, "n")
    k = field_line(3, "k")
    field = field_for(q)
    body = lines[4:]
    if len(body) != k:
        raise ValueError(f"expected {k} generator rows, found {len(body)}")
    code = LinearCode.from_rows(field, n, [parse_symbols(field, ln) for ln in body])
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
