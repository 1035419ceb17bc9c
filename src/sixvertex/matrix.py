"""Square matrices of polynomials: endomorphisms of tensor powers of V.

The basis of V is (v_+, v_-) with + first; composite indices are
lexicographic, so the basis of V (x) V is ordered ++, +-, -+, -- and the
8-dimensional space follows the same rule.  A matrix entry M[r][c] is the
coefficient of basis vector r in the image of basis vector c.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterable, Sequence

from .poly import Immutable, Polynomial, VarSpace, _check_space, _dot


class PolyMatrix(Immutable):
    """Immutable square matrix with Polynomial entries over one VarSpace."""

    __slots__ = ("space", "size", "rows")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(row) for row in rows)
        size = len(rows)
        if size == 0 or any(len(row) != size for row in rows):
            raise ValueError("matrix must be square and non-empty")
        space = rows[0][0].space
        _check_space(space, chain.from_iterable(rows))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _raw(cls, space: VarSpace, size: int,
             rows: tuple[tuple[Polynomial, ...], ...]) -> "PolyMatrix":
        # internal: rows must already be size tuples of size entries of space
        self = object.__new__(cls)
        _set_space(self, space)
        _set_size(self, size)
        _set_rows(self, rows)
        return self

    @classmethod
    def identity(cls, space: VarSpace, size: int) -> "PolyMatrix":
        one, zero = space.one(), space.zero()
        return cls([[one if r == c else zero for c in range(size)]
                    for r in range(size)])

    @classmethod
    def zeros(cls, space: VarSpace, size: int) -> "PolyMatrix":
        zero = space.zero()
        return cls([[zero] * size for _ in range(size)])

    def __getitem__(self, key: tuple[int, int]) -> Polynomial:
        r, c = key
        return self.rows[r][c]

    def _check_operand(self, other: "PolyMatrix") -> None:
        """Both operands of a binary operator: one size and one space."""
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        _check_space(self.space, (other,))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_operand(other)
        return _matdot(self.space, self.size, ((self, other),))

    def _entrywise(self, other: "PolyMatrix", op) -> "PolyMatrix":
        self._check_operand(other)
        return PolyMatrix._raw(self.space, self.size,
                               tuple(tuple(map(op, r1, r2))
                                     for r1, r2 in zip(self.rows, other.rows)))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, operator.sub)

    def scale(self, factor) -> "PolyMatrix":
        return PolyMatrix([[entry * factor for entry in row] for row in self.rows])

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        m, k = self.size, other.size
        out = [[None] * (m * k) for _ in range(m * k)]
        for r1 in range(m):
            for c1 in range(m):
                for r2 in range(k):
                    for c2 in range(k):
                        out[r1 * k + r2][c1 * k + c2] = self.rows[r1][c1] * other.rows[r2][c2]
        return PolyMatrix(out)

    def is_zero(self) -> bool:
        return all(entry.is_zero() for row in self.rows for entry in row)

    def nonzero_entries(self) -> list[tuple[int, int, Polynomial]]:
        return [(r, c, self.rows[r][c])
                for r in range(self.size) for c in range(self.size)
                if self.rows[r][c]]

    def scalar_value(self) -> Polynomial | None:
        """The scalar c when the matrix equals c*I, else None."""
        head = self.rows[0][0]
        for r in range(self.size):
            for c in range(self.size):
                entry = self.rows[r][c]
                if r == c:
                    if entry != head:
                        return None
                elif entry:
                    return None
        return head

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"<PolyMatrix {self.size}x{self.size} [{body}]>"


# the setters of PolyMatrix's slot descriptors, which _raw calls directly
_set_space = PolyMatrix.space.__set__
_set_size = PolyMatrix.size.__set__
_set_rows = PolyMatrix.rows.__set__


def _matdot(space: VarSpace, size: int,
            pairs: Iterable[tuple[PolyMatrix, PolyMatrix]],
            minus: Iterable[tuple[PolyMatrix, PolyMatrix]] = ()) -> PolyMatrix:
    """Sum of ``left @ right`` over ``pairs``, less the same over ``minus``,
    for matrices of one ``size`` over ``space``; the operands are not checked.

    Row by row (Gustavson 1978), each nonzero left[r][k] meets the nonzero
    entries of row k of right, and each (left[r][k], right[k][c]) is filed
    under entry (r, c), with ``pairs`` or with ``minus``, in k order.  Each
    entry is then one ``poly._dot`` of its two lists, and an entry that no
    pair reaches is the one zero.
    """
    cells: list[list[tuple[list, list] | None]] = [[None] * size for _ in range(size)]
    for side, products in enumerate((pairs, minus)):
        for left, right in products:
            right_rows = _sparse_rows(right)
            for row, columns in zip(left.rows, cells):
                for entry, right_row in zip(row, right_rows):
                    if entry:
                        for c, right_entry in right_row:
                            cell = columns[c]
                            if cell is None:
                                cell = columns[c] = ([], [])
                            cell[side].append((entry, right_entry))
    zero = space.zero()
    return PolyMatrix._raw(space, size, tuple(
        tuple(zero if cell is None else _dot(space, *cell) for cell in columns)
        for columns in cells))


def _sparse_rows(m: PolyMatrix) -> list[list[tuple[int, Polynomial]]]:
    """Each row of ``m`` as (column, entry) for its nonzero entries."""
    return [[(c, entry) for c, entry in enumerate(row) if entry] for row in m.rows]
