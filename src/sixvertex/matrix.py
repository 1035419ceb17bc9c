"""Square matrices of polynomials: endomorphisms of tensor powers of V.

The basis of V is (v_+, v_-) with + first; composite indices are
lexicographic, so the basis of V (x) V is ordered ++, +-, -+, -- and the
8-dimensional space follows the same rule.  A matrix entry M[r][c] is the
coefficient of basis vector r in the image of basis vector c.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

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

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        space = self.space
        _check_space(space, (other,))
        # row by row (Gustavson 1978): each nonzero self[r][k] pairs with the
        # nonzero entries of row k of other, and every entry of row r is one
        # accumulation over its pairs, or the one zero when it has none
        other_rows = [[(c, right) for c, right in enumerate(row) if right]
                      for row in other.rows]
        zero = space.zero()
        out = []
        for row in self.rows:
            pairs = [[] for _ in range(self.size)]
            for left, right_row in zip(row, other_rows):
                if left:
                    for c, right in right_row:
                        pairs[c].append((left, right))
            out.append([_dot(space, entry_pairs) if entry_pairs else zero
                        for entry_pairs in pairs])
        return PolyMatrix(out)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return PolyMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return PolyMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

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
