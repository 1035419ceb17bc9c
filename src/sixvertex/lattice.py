"""Square-ice ensembles on a rectangular grid with partition boundary data.

A partition lambda with n parts (trailing zeros significant) fixes a grid
of n rows and lambda_1 + n columns.  Columns carry labels lambda_1 + n - 1
down to 0 from left to right; the top boundary has a - exactly at the
labels lambda_i + n - i.  Gamma ice puts + on the left and bottom edges
and - on the right, with rows labeled 1..n from the top; Delta ice puts -
on the left, + on the right and bottom, with rows labeled n..1.  The row
label i selects the weights (z_i, t_i) for every vertex in that row; a
vertex's weight, and whether it is admissible, is the entry of that row's
vertex matrix given by the vertex rule (README, "Conventions").

States correspond to strict Gelfand-Tsetlin patterns with top row
lambda + rho by reading off the column labels of the - spins in each row
of vertical edges; enumeration walks the patterns in descending
lexicographic order, so state order is deterministic.
"""

from __future__ import annotations

import operator
import os
from functools import lru_cache
from itertools import accumulate, product
from typing import Callable, Iterator, Sequence

from .matrix import PolyMatrix
from .poly import (GuardError, Immutable, Polynomial, VarSpace, _check_space,
                   _disjoint_product, _dot, _require_int, poly_sum, prod)
from .weights import IceKind, VertexWeights, _vertex_entry, ice_weights

_DEFAULT_MAX_STATES = 10_000_000

# Largest column count of transfer_matrix: V has 4^n_cols polynomial entries.
MAX_TRANSFER_COLS = 6


def _row_label(kind: IceKind, n: int, r: int) -> int:
    return r + 1 if kind is IceKind.GAMMA else n - r


def _plus_rho(lam: Sequence[int]) -> tuple[int, ...]:
    """lambda + rho, the parts lambda_i + n - i, with rho = (n - 1, ..., 1, 0)."""
    n = len(lam)
    return tuple(p + n - 1 - i for i, p in enumerate(lam))


def validate_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Coerce to a tuple and reject anything not weakly decreasing >= 0."""
    lam = tuple(parts)
    for p in lam:
        if not isinstance(p, int) or isinstance(p, bool) or p < 0:
            raise ValueError(f"parts must be non-negative integers: {lam!r}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam!r}")
    return lam


class BoundarySpec(Immutable):
    """Boundary data: ice kind plus partition, with derived grid geometry."""

    __slots__ = ("kind", "lam", "n", "m", "left_spin", "right_spin", "_top_spins")

    def __init__(self, kind: IceKind, lam: Sequence[int]):
        object.__setattr__(self, "kind", IceKind(kind))
        object.__setattr__(self, "lam", validate_partition(lam))
        object.__setattr__(self, "n", len(self.lam))
        object.__setattr__(self, "m", (self.lam[0] if self.lam else 0) + self.n)
        gamma = self.kind is IceKind.GAMMA
        object.__setattr__(self, "left_spin", 1 if gamma else -1)
        object.__setattr__(self, "right_spin", -1 if gamma else 1)
        object.__setattr__(self, "_top_spins", _row_spins(self, self.top_row()))

    @property
    def column_labels(self) -> tuple[int, ...]:
        return tuple(range(self.m - 1, -1, -1))

    def top_row(self) -> tuple[int, ...]:
        """lambda + rho: the column labels that carry - on the top boundary."""
        return _plus_rho(self.lam)

    def top_row_spins(self) -> tuple[int, ...]:
        return self._top_spins

    def __repr__(self) -> str:
        return f"BoundarySpec({self.kind.value}, {self.lam})"


class GTPattern(Immutable):
    """Strict Gelfand-Tsetlin pattern: strictly decreasing interleaved rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        for j, row in enumerate(rows):
            if len(row) != n - j:
                raise ValueError(f"row {j + 1} must have {n - j} entries")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise ValueError(f"entries must be non-negative integers: {row!r}")
            if any(row[p] <= row[p + 1] for p in range(len(row) - 1)):
                raise ValueError(f"row {j + 1} is not strictly decreasing: {row!r}")
        for j in range(n - 1):
            above, row = rows[j], rows[j + 1]
            for p, e in enumerate(row):
                if not above[p] >= e >= above[p + 1]:
                    raise ValueError(
                        f"interleaving violated at row {j + 2}, position {p + 1}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "GTPattern":
        return cls(data)

    def __repr__(self) -> str:
        return f"GTPattern({self.to_json()})"


def _shape_error(b: BoundarySpec, horizontal: bool) -> ValueError:
    return ValueError(f"horizontal grid must be {b.n} x {b.m + 1}" if horizontal
                      else f"vertical grid must be {b.n + 1} x {b.m}")


def _check_row(b: BoundarySpec, j: int, spins: tuple, horizontal: bool) -> None:
    """Raise ValueError unless `spins` can be row j of a state's horizontal
    (or vertical) edges: its length, spins that are the int 1 or -1 (not
    True, 1.0 or another value equal to 1), and the boundary spins that
    row j carries."""
    m = b.m
    if len(spins) != (m + 1 if horizontal else m):
        raise _shape_error(b, horizontal)
    for spin in spins:
        if type(spin) is not int or spin not in (1, -1):
            raise ValueError(f"spins must be +1 or -1: {spin!r}")
    if horizontal:
        if spins[0] != b.left_spin:
            raise ValueError(f"left boundary spin wrong in row {j}")
        if spins[m] != b.right_spin:
            raise ValueError(f"right boundary spin wrong in row {j}")
    else:
        if j == 0 and spins != b.top_row_spins():
            raise ValueError("top boundary does not match lambda + rho")
        if j == b.n and spins != (1,) * m:
            raise ValueError("bottom boundary must be all +")


class LatticeState(Immutable):
    """Spin assignment for every edge: horizontal (n)x(m+1), vertical (n+1)xm.

    horizontal[r][c] is the spin left of vertex (r, c) with horizontal[r][m]
    the right boundary; vertical[r][c] is the spin above vertex (r, c) with
    vertical[n] the bottom boundary.  The constructor checks the row counts
    and then each row through _check_row: shape, spin values, and the
    boundary; vertex admissibility is checked where weights are taken, so
    that near-miss states can be represented and rejected with coordinates.

    A state built by the state builder also holds, in the private slot
    _chain, the last node of the builder's chain of row weights, from which
    state_weight takes its product; a constructed state holds None there.
    The chain is a cache: equality, hash and pickle equality read only the
    boundary and the spins.
    """

    __slots__ = ("boundary", "vertical", "horizontal", "_chain")

    def __init__(self, boundary: BoundarySpec,
                 vertical: Sequence[Sequence[int]],
                 horizontal: Sequence[Sequence[int]]):
        vertical = tuple(tuple(row) for row in vertical)
        horizontal = tuple(tuple(row) for row in horizontal)
        if len(vertical) != boundary.n + 1:
            raise _shape_error(boundary, horizontal=False)
        if len(horizontal) != boundary.n:
            raise _shape_error(boundary, horizontal=True)
        for j, row in enumerate(vertical):
            _check_row(boundary, j, row, horizontal=False)
        for r, row in enumerate(horizontal):
            _check_row(boundary, r, row, horizontal=True)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "horizontal", horizontal)
        object.__setattr__(self, "_chain", None)

    @classmethod
    def _raw(cls, boundary: BoundarySpec, vertical: tuple[tuple[int, ...], ...],
             horizontal: tuple[tuple[int, ...], ...], chain: list) -> "LatticeState":
        # internal: tuples owned by the caller, rows valid by construction
        self = object.__new__(cls)
        _set_boundary(self, boundary)
        _set_vertical(self, vertical)
        _set_horizontal(self, horizontal)
        _set_chain(self, chain)
        return self

    def _slot_values(self) -> tuple:
        return self.boundary, self.vertical, self.horizontal

    def vertex_pattern(self, r: int, c: int) -> tuple[int, int, int, int]:
        """The (W, N, E, S) spins around vertex (r, c)."""
        return (self.horizontal[r][c], self.vertical[r][c],
                self.horizontal[r][c + 1], self.vertical[r + 1][c])

    def to_json(self) -> dict:
        return {"lambda": list(self.boundary.lam),
                "kind": self.boundary.kind.value,
                "vertical": [list(row) for row in self.vertical],
                "horizontal": [list(row) for row in self.horizontal]}

    @classmethod
    def from_json(cls, data: dict) -> "LatticeState":
        boundary = BoundarySpec(IceKind(data["kind"]), tuple(data["lambda"]))
        return cls(boundary, data["vertical"], data["horizontal"])

    def __repr__(self) -> str:
        return (f"LatticeState({self.boundary!r}, vertical={self.vertical}, "
                f"horizontal={self.horizontal})")


# the setters of LatticeState's slot descriptors, which _raw calls directly,
# as Polynomial._raw does
_set_boundary = LatticeState.boundary.__set__
_set_vertical = LatticeState.vertical.__set__
_set_horizontal = LatticeState.horizontal.__set__
_set_chain = LatticeState._chain.__set__


def interleavers(row: tuple[int, ...], strict: bool) -> Iterator[tuple[int, ...]]:
    """Every row of len(row) - 1 entries interleaving `row`, descending lex order.

    Entry p runs from row[p] down to row[p + 1], and the rows are one
    itertools.product of these ranges, which is in descending lex order and
    weakly decreasing.  Two neighbours can be equal only at their shared end
    row[p + 1]; with `strict` the rows with equal neighbours are dropped, so
    the entries strictly decrease.  A one-entry row has the empty row as its
    only interleaver, the empty row has none.
    """
    if not row:
        return iter(())
    rows = product(*[range(high, low - 1, -1) for high, low in zip(row, row[1:])])
    if not strict or len(row) < 3:  # rows of at most one entry have no neighbours
        return rows
    return (below for below in rows if all(map(operator.ne, below, below[1:])))


def gt_patterns(top: tuple[int, ...], strict: bool,
                ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Rows of every GT pattern with top row `top`, descending lex order.

    Each row interleaves the row above it.  With `strict` the rows are also
    strictly decreasing, as for lattice states; otherwise only weakly, as
    for Schur polynomials.  The walk keeps one stack of rows and one of
    their interleavers, so consecutive patterns share the row objects of
    their common prefix: a caller can find the first row that changed by
    comparing rows with `is`.
    """
    if len(top) < 2:
        yield (top,) if top else ()
        return
    n = len(top)
    rows = [top]
    walks = [interleavers(top, strict)]
    while walks:
        if len(walks) == n - 1:
            # the rows below a two-entry row have one entry, and each ends
            # a pattern: its only interleaver is the empty row
            for row in walks.pop():
                yield (*rows, row)
            rows.pop()
            continue
        for row in walks[-1]:
            rows.append(row)
            walks.append(interleavers(row, strict))
            break
        else:
            walks.pop()
            rows.pop()


def row_sum(top: tuple[int, ...], strict: bool,
            factor: Callable[[int, tuple[int, ...], tuple[int, ...]], Polynomial],
            ) -> Polynomial:
    """Sum over GT patterns with top row `top` of prod_j factor(j, row_j, row_j+1).

    row_0 is `top`, each row_j+1 interleaves row_j (strictly or weakly, as
    in gt_patterns), and the row below the last one is the empty row.  The
    sum over the patterns below a row depends only on that row, so it is
    computed once per distinct row, in a memo freed when this call returns,
    as one `_dot` over the pairs (factor(j, row, next), sum below next):
    each term product of the row goes straight into one term map, with one
    guard check and one zero filter per row and no product built as a
    polynomial of its own.  As for `*`, a factor of another VarSpace raises
    ValueError and a product with an exponent at EXPONENT_LIMIT raises
    OverflowError.
    """
    top = tuple(top)
    space = VarSpace(len(top))
    below_sums = {(): space.one()}

    def below_sum(row: tuple[int, ...]) -> Polynomial:
        done = below_sums.get(row)
        if done is None:
            j = len(top) - len(row)
            pairs = [(factor(j, row, nxt), below_sum(nxt))
                     for nxt in interleavers(row, strict)]
            for f, below in pairs:
                if f.space is not space:
                    _check_space(f.space, (below,))
            done = below_sums[row] = _dot(space, pairs)
        return done

    try:
        return below_sum(top)
    finally:
        del below_sum  # its closure refers to it: free the memo now, not at a collection


def enumerate_states(b: BoundarySpec) -> Iterator[LatticeState]:
    """All states for the boundary, in strict-pattern lexicographic order.

    Guarded by the ICE_MAX_STATES environment variable (default 10^7).
    Consecutive patterns of the walk share a prefix of row objects, so the
    state builder rebuilds only the spin rows from the first GT row that
    changed; those come from a memo local to this call, built once per
    distinct GT row and row pair.
    """
    text = os.environ.get("ICE_MAX_STATES", str(_DEFAULT_MAX_STATES))
    try:
        limit = int(text)
    except ValueError:
        raise GuardError(f"ICE_MAX_STATES must be an integer, got {text!r}") from None
    build = _state_builder(b)
    count = 0
    for rows in gt_patterns(b.top_row(), strict=True):
        count += 1
        if count > limit:
            raise RuntimeError(f"enumeration exceeded ICE_MAX_STATES={limit}")
        yield build(rows)


def brute_force_states(b: BoundarySpec) -> Iterator[LatticeState]:
    """All states by exhaustive edge assignment with per-vertex pruning.

    Independent of the pattern bijection, so it serves as an oracle for
    enumerate_states; guarded to small grids.
    """
    if b.m > 8 or b.n > 4:
        raise ValueError(f"size guard exceeded: need columns <= 8 and rows <= 4, "
                         f"got {b.m} x {b.n}")

    def row_choices(n_row: tuple[int, ...], r: int):
        last = r == b.n - 1
        mat = _row_matrix(b.kind, b.n, r)

        def walk(c: int, w: int, below: tuple[int, ...], lefts: tuple[int, ...]):
            if c == b.m:
                if w == b.right_spin:
                    yield below, lefts + (w,)
                return
            for s_spin in ((1,) if last else (1, -1)):
                for e in (1, -1):
                    if mat[_vertex_entry(w, n_row[c], e, s_spin)]:
                        yield from walk(c + 1, e, below + (s_spin,), lefts + (w,))

        yield from walk(0, b.left_spin, (), ())

    def extend(vrows: tuple[tuple[int, ...], ...], hrows: tuple[tuple[int, ...], ...]):
        r = len(vrows) - 1
        if r == b.n:
            yield LatticeState(b, vrows, hrows)
            return
        for below, hrow in row_choices(vrows[-1], r):
            yield from extend(vrows + (below,), hrows + (hrow,))

    yield from extend((b.top_row_spins(),), ())


@lru_cache(maxsize=None)
def _row_matrix(kind: IceKind, n: int, r: int) -> PolyMatrix:
    """The vertex matrix of ice row r, whose entries the vertex rule reads."""
    return ice_weights(VarSpace(n), kind, _row_label(kind, n, r)).end2()


def _row_weight(kind: IceKind, n: int, r: int, above: tuple[int, ...],
                below: tuple[int, ...], horizontal: tuple[int, ...]) -> Polynomial:
    """Product of the vertex weights of ice row r, from the row's own edge spins.

    Raises ValueError at the first inadmissible vertex.  A row's weight
    depends only on the GT rows above and below it, so state_weight
    computes it once per distinct pair of a state builder, keeping it in
    the builder's memo, and once per row for a state the builder did not make.
    """
    mat = _row_matrix(kind, n, r)
    m = len(above)
    weights = [mat[_vertex_entry(horizontal[c], above[c], horizontal[c + 1], below[c])]
               for c in range(m)]
    for c, weight in enumerate(weights):
        if not weight:
            raise ValueError(f"inadmissible vertex at row {r}, "
                             f"column label {m - 1 - c}")
    return prod(weights, VarSpace(n))


def state_weight(s: LatticeState) -> Polynomial:
    """Product of vertex weights, row label i supplying (z_i, t_i).

    A state from the state builder multiplies down the builder's chain of
    row weights (see _state_builder): each node's product, its parent's
    times its row's weight, and each row weight are computed on first use
    and kept, so consecutive states share the products of their common
    prefix.  Row r's weight holds only the z and t of its own label, so each
    step is one _disjoint_product, with no merge and no guard bit to test.
    Any other state, such as outside input or a near-miss with an
    inadmissible vertex, is one prod of its row weights, checked row by row.
    """
    b, node = s.boundary, s._chain
    if node is None:
        return prod((_row_weight(b.kind, b.n, r, s.vertical[r], s.vertical[r + 1],
                                 s.horizontal[r]) for r in range(b.n)),
                    VarSpace(b.n))
    pending = []
    while node[2] is None:
        pending.append(node)
        node = node[0]
    product = node[2]
    for r, node in enumerate(reversed(pending), b.n - len(pending)):
        ice_row = node[1]
        weight = ice_row[1]
        if weight is None:
            weight = ice_row[1] = _row_weight(b.kind, b.n, r, s.vertical[r],
                                              s.vertical[r + 1], ice_row[0])
        product = node[2] = _disjoint_product(product.space, product, weight)
    return product


def partition_function(b: BoundarySpec) -> Polynomial:
    """Exact sum of state weights over the whole ensemble.

    Each state comes from enumerate_states, so its weight shares the
    products of its prefix with the states before it; every memo is local
    to the enumeration and is freed with it.
    """
    return poly_sum((state_weight(s) for s in enumerate_states(b)), VarSpace(b.n))


def state_to_gt(s: LatticeState) -> GTPattern:
    """Read off the - column labels in each row of vertical edges."""
    b = s.boundary
    labels = b.column_labels
    rows = tuple(
        tuple(label for label, spin in zip(labels, s.vertical[j]) if spin == -1)
        for j in range(b.n))
    return GTPattern(rows)


def gt_to_state(g: GTPattern, b: BoundarySpec) -> LatticeState:
    """Build the state whose vertical - spins sit at the pattern's entries."""
    if g.n != b.n:
        raise ValueError(f"pattern rank {g.n} does not match boundary rank {b.n}")
    if g.rows and g.rows[0] != b.top_row():
        raise ValueError(f"top row must be lambda + rho = {b.top_row()}")
    return _state_builder(b)(g.rows)


def _row_spins(b: BoundarySpec, row: tuple[int, ...]) -> tuple[int, ...]:
    """Spins of one row of vertical edges: - at the labels in `row`, label l
    at index m - 1 - l."""
    spins = [1] * b.m
    for label in row:
        spins[b.m - 1 - label] = -1
    return tuple(spins)


def _state_builder(b: BoundarySpec,
                   ) -> Callable[[tuple[tuple[int, ...], ...]], LatticeState]:
    """The state builder of `b`: it maps the rows of a strict GT pattern
    whose top row is b.top_row() to that pattern's state.

    The ice rule forces each horizontal spin: the spin to its left times the
    two vertical spins of the vertex between them.  The builder keeps the
    spin rows of the last pattern it built.  For the next one it finds the
    first GT row j that is not the same object as the last pattern's row j
    and rebuilds only vertical rows j..n-1 and horizontal rows from j - 1,
    the ice row above GT row j, down.  A memo maps each GT row to its
    vertical spins and each (above, below) pair of GT rows to an entry
    [horizontal spins between them, weight of that ice row], built when
    first needed; the weight stays None until state_weight needs it (the
    pair fixes the row index, as GT row r has n - r entries).  The rows are
    valid by construction, so nothing is checked: the top row is lambda +
    rho, the bottom row all +, and ice row j starts at b.left_spin and, as
    the vertical rows around it hold n - j and n - j - 1 minus spins (an
    odd total), ends at -b.left_spin, which is b.right_spin.

    Each rebuilt ice row r also gets a new node [parent, memo entry,
    product] in a chain of row weights: its parent is the node of row
    r - 1, the root holds the product one, and the product stays None until
    state_weight fills it.  Each state holds the node of its last row, so
    a caller that takes no weight multiplies nothing.
    """
    n, left = b.n, b.left_spin
    memo: dict = {}
    vertical: list = [None] * n + [(1,) * b.m]  # the bottom row is all +
    horizontal: list = [None] * n
    chain: list = [[None, None, VarSpace(n).one()]] + [None] * n
    last: tuple = ()

    def build(rows: tuple[tuple[int, ...], ...]) -> LatticeState:
        nonlocal last
        j = 0
        for row, old in zip(rows, last):
            if row is not old:
                break
            j += 1
        last = rows
        for r in range(j, n):
            row = rows[r]
            spins = memo.get(row)
            if spins is None:
                spins = memo[row] = _row_spins(b, row)
            vertical[r] = spins
        for r in range(max(j - 1, 0), n):
            pair = (rows[r], rows[r + 1] if r + 1 < n else ())
            ice_row = memo.get(pair)
            if ice_row is None:
                ice_row = memo[pair] = [tuple(accumulate(
                    map(operator.mul, vertical[r], vertical[r + 1]), operator.mul,
                    initial=left)), None]
            horizontal[r] = ice_row[0]
            chain[r + 1] = [chain[r], ice_row, None]
        return LatticeState._raw(b, tuple(vertical), tuple(horizontal), chain[n])

    return build


def gt_row_sums(g: GTPattern) -> tuple[int, ...]:
    """The weight vector mu with mu_k = d_k - d_{k+1} for row sums d_k."""
    sums = [sum(row) for row in g.rows] + [0]
    return tuple(sums[k] - sums[k + 1] for k in range(g.n))


def tokuyama_sum(lam: Sequence[int], per_row_t: bool) -> Polynomial:
    """Deformed pattern sum over strict patterns with top row lambda + rho.

    Each pattern contributes prod_k z_k^(d_k - d_{k+1}) times one factor per
    entry below the top row: t for an entry equal to its upper-left
    neighbor, 1 for one equal to its upper-right neighbor, and t + 1
    otherwise.  Entries in pattern row k (1-based) draw t from the ice row
    above them, index k - 1; with per_row_t False every factor uses t_1.

    A row_sum.  The factor of a pair of rows depends only on its shape (j,
    the row-sum difference d, and the counts of entries that take t and
    t + 1), so it is built once per shape, as one prod of z_{j+1}^d, t^ties
    and (t + 1)^free, in a memo local to this call.
    """
    lam = validate_partition(lam)
    space = VarSpace(len(lam))
    factors: dict[tuple[int, int, int, int], Polynomial] = {}

    def factor(j: int, above: tuple[int, ...], row: tuple[int, ...]) -> Polynomial:
        # rows are strict, so an entry equals at most one upper neighbor
        ties = sum(map(operator.eq, row, above))
        free = len(row) - ties - sum(map(operator.eq, row, above[1:]))
        shape = (j, sum(above) - sum(row), ties, free)
        out = factors.get(shape)
        if out is None:
            t_index = j + 1 if per_row_t else 1
            out = factors[shape] = prod((space.z(j + 1, shape[1]), space.t(t_index, ties),
                                         *[space.t(t_index) + 1] * free), space)
        return out

    return row_sum(_plus_rho(lam), True, factor)


def transfer_matrix(w: VertexWeights | PolyMatrix, n_cols: int) -> PolyMatrix:
    """Row-transfer matrix on n_cols columns with periodic horizontal edges.

    V[alpha, beta] is the trace, over the horizontal edge, of the column
    monodromy M[alpha, beta], a 2x2 matrix indexed [right, left] by the
    horizontal spins at the ends of the row.  alpha gives the top spins and
    beta the bottom spins, both big-endian bits.  By the vertex rule
    (README, "Conventions"), a column with top spin a and bottom spin b,
    placed left of the columns so far, extends it:

        M'[2*alpha + a, 2*beta + b][r, l] = sum_k mat[2*r + b, 2*k + a] * M[alpha, beta][k, l]

    Only the nonzero entries M[alpha, beta][right, left] are kept, in a dict
    keyed (alpha, beta, right, left), and each is extended through the
    nonzero vertex weights only, with one accumulation per new entry.
    """
    _require_int(n_cols, "n_cols")
    if not 1 <= n_cols <= MAX_TRANSFER_COLS:
        raise ValueError(f"n_cols must be between 1 and {MAX_TRANSFER_COLS}, got {n_cols}")
    mat = w.end2() if isinstance(w, VertexWeights) else w
    if mat.size != 4:
        raise ValueError("vertex matrix must be 4x4")
    space = mat.space
    # the nonzero weights mat[2*right + b, 2*k + a], by the spin k they continue
    weights_by_k: dict[int, list] = {0: [], 1: []}
    for row, col, weight in mat.nonzero_entries():
        (right, b), (k, a) = divmod(row, 2), divmod(col, 2)
        weights_by_k[k].append((a, b, right, weight))
    monodromy = {(0, 0, spin, spin): space.one() for spin in (0, 1)}
    for _ in range(n_cols):
        pairs: dict[tuple[int, int, int, int], list] = {}
        for (alpha, beta, k, left), entry in monodromy.items():
            for a, b, right, weight in weights_by_k[k]:
                pairs.setdefault((2 * alpha + a, 2 * beta + b, right, left),
                                 []).append((weight, entry))
        monodromy = {key: entry for key, entry_pairs in pairs.items()
                     if (entry := _dot(space, entry_pairs))}
    traces: dict[tuple[int, int], list] = {}
    for (alpha, beta, right, left), entry in monodromy.items():
        if right == left:
            traces.setdefault((alpha, beta), []).append(entry)
    size = 1 << n_cols
    zero = space.zero()
    return PolyMatrix([[poly_sum(traces[alpha, beta], space) if (alpha, beta) in traces
                        else zero for beta in range(size)] for alpha in range(size)])
