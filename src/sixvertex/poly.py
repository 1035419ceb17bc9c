"""Exact sparse multivariate polynomial arithmetic over the Gaussian rationals.

Every polynomial lives in a :class:`VarSpace` of rank ``n``, which provides
the variables ``z_1..z_n`` and ``t_1..t_n``.  The canonical term order is
descending graded lexicographic on the combined exponent vector (z-block
then t-block).  All values are immutable and all operations exact; a float
is rejected wherever a value enters.

A polynomial stores its terms in a dict from packed monomials to
coefficients:

* A monomial is one ``int``.  Its low ``2n * FIELD_BITS`` bits hold 2n
  fixed-width fields with the exponents of z_1..z_n, t_1..t_n, z_1 most
  significant, and the total degree sits above them.  Comparing two packed
  monomials as ints therefore compares ``(sum(mono), mono)``, the canonical
  order, and the product of two monomials is the sum of their ints.
* The top bit of every field is a guard bit, so an exponent stays below
  ``EXPONENT_LIMIT = 2**(FIELD_BITS - 1)``.  Two exponents below the limit
  add to less than ``2**FIELD_BITS`` and never carry into the next field;
  a sum at or above the limit sets the guard bit instead.  Every operation
  that can raise an exponent checks the guard bits of its result and raises
  :class:`OverflowError`, so an exponent never wraps.  ``prod`` tests the
  guard bits on a bound of its product's monomials, and checks them one
  by one only when that bound reaches the limit.  Two monomials whose
  exponent bits are disjoint add to their OR, which sets no guard bit
  that neither has, so ``_disjoint_product`` multiplies such polynomials,
  the row weights of a state, with no merge.
* A coefficient enters as an ``int`` or a ``Fraction``, or as a
  :class:`GaussianRational` when its imaginary part is non-zero.  Arithmetic
  stores whatever its operands produce, so a coefficient computed from a
  Gaussian one stays a ``GaussianRational`` even when its imaginary part
  cancelled.  Equality, hashing, ``str`` and JSON treat a real
  ``GaussianRational`` like its ``Fraction``, so the stored type never shows.

Exponent tuples and ``GaussianRational`` coefficients appear only at the
public edge: the constructor, ``terms()``, ``to_json``,
``substitute``/``evaluate`` and ``degree_in_t``.
``permute_rank_variables`` moves the packed fields with masks and shifts.
The two output writers, ``json_pieces`` and ``text_pieces``, build no
exponent tuple per term: they split each packed monomial into its z and t
blocks and render each distinct block once.
"""

from __future__ import annotations

import functools
import heapq
import numbers
import operator
import struct
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1
_FIELD_FORMAT = "H"  # struct code of one unsigned big-endian FIELD_BITS field


def _rational(value: object) -> Fraction:
    """An exact rational; floats are refused, since they carry binary rounding."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; pass an int, Fraction or string")
    return Fraction(value)


class Immutable:
    """Base of the value classes: slots set once in ``__init__``, then frozen.

    Subclasses declare ``__slots__`` and set them with ``object.__setattr__``,
    or, on a hot path such as the ``_raw`` constructors, with the ``__set__``
    of the class's slot descriptors.  Pickle and ``copy`` restore the slots through
    ``__setstate__`` with ``object.__setattr__``.
    Two values of the same class are equal when every slot that
    ``_slot_values`` returns is equal: by default every slot, but a class
    that keeps a cache in a slot, as ``LatticeState`` does, leaves it out.
    """

    __slots__ = ()

    def _slot_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._slot_values() == other._slot_values()

    def __hash__(self) -> int:
        return hash(self._slot_values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # the default pickle state of an object with slots and no __dict__
        _, slots = state
        for name, value in slots.items():
            object.__setattr__(self, name, value)


def _scalar_operator(method):
    """Call ``method(self, re, im)`` with the exact parts of the other operand.

    A GaussianRational, a Fraction or an int is taken by its exact type, with
    no coercion beyond an int becoming a Fraction.  An operand that is neither
    a number nor a string, such as a Polynomial, gets NotImplemented, so that
    its reflected operator runs.  Any other number or string goes through the
    constructor, where a float raises TypeError.
    """
    @functools.wraps(method)
    def operate(self, other):
        kind = type(other)
        if kind is GaussianRational:
            return method(self, other.re, other.im)
        if kind is Fraction:
            return method(self, other, _NIL)
        if kind is int:
            return method(self, Fraction(other), _NIL)
        if not isinstance(other, (numbers.Number, str)):
            return NotImplemented
        other = GaussianRational(other)
        return method(self, other.re, other.im)
    return operate


_NIL = Fraction(0)  # the zero part


class GaussianRational(Immutable):
    """An exact complex number ``re + im*i`` with rational parts.

    Both parts are always ``Fraction``s.  The operators take the other
    operand's parts as ``(c, d)`` and build their results with ``_raw``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int | str = 0, im: Fraction | int | str = 0):
        object.__setattr__(self, "re", _rational(re))
        object.__setattr__(self, "im", _rational(im))

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # internal: both parts must already be Fractions
        self = object.__new__(cls)
        _set_re(self, re)
        _set_im(self, im)
        return self

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # a zero part costs no Fraction arithmetic: x + 0, 0 + x and x - 0 are
    # x's part itself, 0 - x is -x, and -0 is the zero part

    @_scalar_operator
    def __add__(self, c: Fraction, d: Fraction) -> "GaussianRational":
        a, b = self.re, self.im
        return GaussianRational._raw(a + c if a and c else a or c,
                                     b + d if b and d else b or d)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        a, b = self.re, self.im
        return GaussianRational._raw(-a if a else _NIL, -b if b else _NIL)

    @_scalar_operator
    def __sub__(self, c: Fraction, d: Fraction) -> "GaussianRational":
        a, b = self.re, self.im
        return GaussianRational._raw((a - c if a else -c) if c else a,
                                     (b - d if b else -d) if d else b)

    @_scalar_operator
    def __rsub__(self, c: Fraction, d: Fraction) -> "GaussianRational":
        return GaussianRational._raw(c, d) - self

    @_scalar_operator
    def __mul__(self, c: Fraction, d: Fraction) -> "GaussianRational":
        # two factors that are each real or imaginary need one rational product
        a, b = self.re, self.im
        raw = GaussianRational._raw
        if not (b or d):
            return raw(a * c, _NIL)
        if not (a or c):
            return raw(-(b * d), _NIL)
        if not (a or d):
            return raw(_NIL, b * c)
        if not (b or c):
            return raw(_NIL, a * d)
        return raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    @_scalar_operator
    def __truediv__(self, c: Fraction, d: Fraction) -> "GaussianRational":
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational._raw((self.re * c + self.im * d) / norm,
                                     (c * self.im - d * self.re) / norm)

    @_scalar_operator
    def __rtruediv__(self, c: Fraction, d: Fraction) -> "GaussianRational":
        return GaussianRational._raw(c, d) / self

    def __eq__(self, other: object) -> bool:
        # the exact types first: isinstance of Fraction goes through its ABC
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if type(other) in (int, Fraction) or isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # a real value equals, so must hash like, its Fraction (and int)
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{_imag_str(abs(self.im)).lstrip('+')})"


# the setters of GaussianRational's slot descriptors, which _raw calls directly
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
IMAG = GaussianRational(0, 1)

Monomial = tuple  # exponent vector of length 2n: z-block then t-block

Coefficient = int | Fraction | GaussianRational  # as stored


def _coeff(value: object) -> Coefficient:
    """``value`` as a stored coefficient: an int or a Fraction when it is
    real, a GaussianRational only when its imaginary part is non-zero."""
    if type(value) is int:
        return value
    if isinstance(value, GaussianRational):
        if value.im:
            return value
        value = value.re
    elif not isinstance(value, Fraction):
        value = _rational(value)
    return value.numerator if value.denominator == 1 else value


def _gauss(coeff: Coefficient) -> GaussianRational:
    """A stored coefficient as the public GaussianRational."""
    return coeff if type(coeff) is GaussianRational else GaussianRational(coeff)


def _quotient(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b; an int when two ints divide exactly, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(a / b)


def _parts(coeff: Coefficient) -> tuple[int | Fraction, int | Fraction]:
    """Real and imaginary parts of a stored coefficient."""
    return (coeff.re, coeff.im) if type(coeff) is GaussianRational else (coeff, 0)


_SPACES: dict[int, "VarSpace"] = {}  # the one VarSpace of each rank


class GuardError(ValueError):
    """An input refused before any work starts, such as a count below one or
    a bialternant past its bounds; the CLI exits 2 on it, and no check
    reports it as a FAIL."""


def _require_int(value: object, name: str) -> None:
    """The one rule for an integer argument, such as a rank, an exponent, a
    variable index or a count: an int, and not a bool, although True == 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _require_exponent(power: object) -> None:
    """Refuse a power that is not an int, then a negative one, before its size."""
    _require_int(power, "exponent")
    if power < 0:
        raise ValueError("negative exponent")


def _require_below_limit(exponent: int) -> None:
    """The one rule for an exponent entering a polynomial: below EXPONENT_LIMIT."""
    if exponent >= EXPONENT_LIMIT:
        raise OverflowError(f"exponent {exponent} is at or above the limit {EXPONENT_LIMIT}")


def _binary_powers(base, exponent: int) -> list:
    """The factors of base**exponent by repeated squaring: the squares
    base^(2^k) at the exponent's set bits, all squared before any of them
    is multiplied into the product."""
    powers, square = [], base
    while exponent:
        if exponent & 1:
            powers.append(square)
        exponent >>= 1
        if exponent:
            square = square * square
    return powers


def _check_space(space: VarSpace, values: Iterable) -> None:
    """The one rule for values that must share ``space``: the same object."""
    for value in values:
        if value.space is not space:
            raise ValueError(f"variable space mismatch: {space} vs {value.space}")


class VarSpace(Immutable):
    """The rank n: every polynomial over z_1..z_n, t_1..t_n holds the one
    ``VarSpace(n)``, which also holds the constants of the packed monomial layout."""

    __slots__ = ("n", "_shift", "_mask", "_guard", "_fields")

    def __new__(cls, n: int) -> "VarSpace":
        _require_int(n, "rank")
        if n < 0:
            raise ValueError(f"rank must be non-negative, got {n}")
        if n in _SPACES:
            return _SPACES[n]
        width = 2 * n
        space = object.__new__(cls)
        object.__setattr__(space, "n", n)
        # the total degree sits above the 2n exponent fields
        object.__setattr__(space, "_shift", width * FIELD_BITS)
        object.__setattr__(space, "_mask", (1 << space._shift) - 1)
        object.__setattr__(space, "_guard", sum(EXPONENT_LIMIT << (FIELD_BITS * k)
                                                for k in range(width)))
        object.__setattr__(space, "_fields", struct.Struct(f">{width}{_FIELD_FORMAT}"))
        return _SPACES.setdefault(n, space)  # of two racing threads, the first wins

    def __reduce__(self):
        # pickle and copy call VarSpace(n), which returns the registered object
        return VarSpace, (self.n,)

    def __repr__(self) -> str:
        return f"VarSpace({self.n})"

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: GaussianRational | Fraction | int) -> "Polynomial":
        c = _coeff(value)
        return Polynomial._raw(self, {0: c} if c else {})

    def z(self, i: int, power: int = 1) -> "Polynomial":
        return self._var(i, 0, power)

    def t(self, i: int, power: int = 1) -> "Polynomial":
        return self._var(i, 1, power)

    def _var(self, index: int, block: int, power: int) -> "Polynomial":
        offset = self._offset(index, block)
        _require_exponent(power)
        if power == 0:
            return self.one()
        _require_below_limit(power)
        return Polynomial._raw(self, {(power << self._shift) | (power << offset): 1})

    # -- packed monomials --------------------------------------------------

    def _offset(self, index: int, block: int) -> int:
        """Bit offset of the field of z_index (block 0) or t_index (block 1)."""
        _require_int(index, "variable index")
        if not 1 <= index <= self.n:
            raise IndexError(f"variable index {index} out of range for rank {self.n}")
        return (2 * self.n - block * self.n - index) * FIELD_BITS

    def _key(self, exps: Sequence[int]) -> int:
        """Packed monomial of an exponent vector known to be valid."""
        return (sum(exps) << self._shift) | int.from_bytes(self._fields.pack(*exps), "big")

    def _pack(self, mono: Sequence[int]) -> int:
        """Packed monomial of an exponent vector from outside; validates it."""
        if any(isinstance(e, bool) for e in mono):
            raise TypeError(f"exponent vector {mono} has a bool exponent")
        exps = [operator.index(e) for e in mono]
        if len(exps) != 2 * self.n or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {mono} for rank {self.n}")
        _require_below_limit(max(exps, default=0))
        return self._key(exps)

    def _unpack(self, key: int) -> Monomial:
        fields = self._fields
        return fields.unpack((key & self._mask).to_bytes(fields.size, "big"))

    def _block_layout(self) -> tuple[int, int, Callable[[int], tuple[int, ...]]]:
        """The layout of one n-field block of a packed monomial: its width in
        bits, its mask, and the unpacking of a block's bits into its n
        exponents.  The t block is the low ``width`` bits, the z block the
        ``width`` bits above them."""
        width = self.n * FIELD_BITS
        block = struct.Struct(f">{self.n}{_FIELD_FORMAT}")
        unpack, size = block.unpack, block.size
        return width, (1 << width) - 1, lambda bits: unpack(bits.to_bytes(size, "big"))

    def _check_guard(self, monos: Iterable[int]) -> None:
        """Raise if one of the packed ``monos`` has an exponent that reached the limit."""
        if functools.reduce(operator.or_, monos, 0) & self._guard:
            raise OverflowError(f"exponent overflow: a product has an exponent at or "
                                f"above the limit {EXPONENT_LIMIT}")


class Polynomial(Immutable):
    """Immutable sparse polynomial: a map from monomials to coefficients."""

    __slots__ = ("space", "_terms")

    def __init__(self, space: VarSpace, terms: Mapping[Monomial, GaussianRational]):
        if not isinstance(space, VarSpace):
            raise TypeError(f"space must be a VarSpace, got {space!r}")
        clean = {}
        for mono, coeff in terms.items():
            key = space._pack(mono)
            coeff = _coeff(coeff)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _raw(cls, space: VarSpace, terms: dict) -> "Polynomial":
        # internal: terms must already be a clean packed map owned by the caller
        self = object.__new__(cls)
        _set_space(self, space)
        _set_terms(self, terms)
        return self

    @property
    def n(self) -> int:
        return self.space.n

    def terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in canonical order (descending graded lex)."""
        return [(m, _gauss(c)) for m, c in self._canonical()]

    def _canonical(self) -> list[tuple[Monomial, Coefficient]]:
        """Exponent vectors and stored coefficients in canonical order."""
        terms, unpack = self._terms, self.space._unpack
        return [(unpack(m), terms[m]) for m in sorted(terms, reverse=True)]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return self._terms.keys() <= {0}

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return _gauss(self._terms.get(0, 0))

    def _operand(self, other) -> "Polynomial":
        """``other`` as a polynomial of this space: a scalar becomes a constant."""
        if not isinstance(other, Polynomial):
            return self.space.const(other)
        _check_space(self.space, (other,))
        return other

    def __add__(self, other) -> "Polynomial":
        # values are immutable, so a sum with zero is the other operand itself
        other = self._operand(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        return Polynomial._raw(self.space, _accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.space, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        """One ``_accumulate`` of the other operand's terms into a copy of this
        one's, each negated as it is merged: no negated polynomial is built."""
        other = self._operand(other)
        if not other._terms:
            return self
        return Polynomial._raw(self.space, _accumulate(
            dict(self._terms), ((m, -c) for m, c in other._terms.items())))

    def __rsub__(self, other) -> "Polynomial":
        return self._operand(other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return _dot(self.space, ((self, self._operand(other)),))
        # a scalar scales each coefficient and leaves the monomials as they are
        scale = _coeff(other)
        return Polynomial._raw(self.space, {m: c * scale for m, c in self._terms.items()}
                               if scale else {})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        """Repeated squaring: an exponent that reaches the limit raises at a
        squaring, before any of the products."""
        _require_exponent(exponent)
        return prod(_binary_powers(self, exponent), self.space)

    def __eq__(self, other: object) -> bool:
        if type(other) is Polynomial and other.space is self.space:
            return self._terms == other._terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.space.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        try:
            _check_space(self.space, (other,))
        except ValueError:
            return False
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals, so must hash like, its coefficient
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.n, frozenset(self._terms.items())))

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self/divisor; raises if the division leaves a remainder.

        The ValueError's text holds the remainder when the division stopped,
        or its ``_SHOWN_TERMS`` leading terms and its term count when it has
        more, so a large inexact division does not write a large text.

        Sparse division after Johnson (1974) and Monagan & Pearce (2011):
        each step takes the largest remainder monomial and cancels it with
        one quotient term.  The dividend's monomials are sorted once and read
        as a descending stream; a max-heap holds only the monomials that a
        product adds to the remainder when the remainder lacks them.  Each
        step takes the larger of the stream head and the heap top.  A
        monomial whose coefficient cancelled is skipped when it is reached.
        """
        divisor = self._operand(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        guard = self.space._guard
        lead = max(divisor._terms)
        lead_coeff = divisor._terms[lead]
        # the tail negated once, so that each product is one multiply-add
        rest = [(m, -c) for m, c in divisor._terms.items() if m != lead]
        remainder = dict(self._terms)
        stream = sorted(remainder, reverse=True)
        index, size = 0, len(stream)
        heap: list[int] = []  # negated monomials that products added
        quotient: dict[int, Coefficient] = {}
        get, pop = remainder.get, remainder.pop
        # every live remainder monomial is still ahead in the stream or on
        # the heap, so an empty remainder ends the division
        while remainder:
            if heap and (index == size or -heap[0] > stream[index]):
                mono = -heapq.heappop(heap)
            else:
                mono = stream[index]
                index += 1
            coeff = pop(mono, None)
            if coeff is None:
                continue
            if mono & guard:
                self.space._check_guard((mono,))
            # per field, mono + 2**(FIELD_BITS-1) - lead keeps its guard bit
            # exactly when lead's exponent is at most mono's
            ratio = (mono | guard) - lead
            if (ratio & guard) != guard:
                remainder[mono] = coeff
                rest = Polynomial._raw(self.space, remainder)
                if len(remainder) > _SHOWN_TERMS:
                    rest = f"{_head(rest)} + ... ({len(remainder)} terms)"
                raise ValueError(f"inexact division, remainder {rest}")
            ratio -= guard
            q = _quotient(coeff, lead_coeff)
            quotient[ratio] = q
            for dm, dc in rest:
                key = ratio + dm
                acc = get(key)
                if acc is None:
                    remainder[key] = q * dc
                    heapq.heappush(heap, -key)
                else:
                    acc = acc + q * dc
                    if acc:
                        remainder[key] = acc
                    else:
                        del remainder[key]
        return Polynomial._raw(self.space, quotient)

    def substitute(self, z: Mapping[int, object] | None = None,
                   t: Mapping[int, object] | None = None) -> "Polynomial":
        """Substitute exact values for some variables (1-based indices)."""
        space = self.space
        values: dict[int, Coefficient] = {}
        for block, given in enumerate((z, t)):
            for i, v in (given or {}).items():
                values[space._offset(i, block)] = _coeff(v)
        shift = space._shift

        def scaled() -> Iterator[tuple[int, Coefficient]]:
            # each term with its substituted fields taken out of the monomial
            for mono, scale in self._terms.items():
                for offset, val in values.items():
                    e = (mono >> offset) & _FIELD_MASK
                    for power in _binary_powers(val, e):
                        scale = scale * power
                    mono -= (e << offset) + (e << shift)
                if scale:
                    yield mono, scale
        return Polynomial._raw(space, _accumulate({}, scaled()))

    def evaluate(self, zs: Sequence[object], ts: Sequence[object]) -> GaussianRational:
        """Evaluate at a full assignment; zs and ts give all n values each."""
        if len(zs) != self.n or len(ts) != self.n:
            raise ValueError(f"need {self.n} z-values and {self.n} t-values")
        result = self.substitute(z={i + 1: v for i, v in enumerate(zs)},
                                 t={i + 1: v for i, v in enumerate(ts)})
        return result.constant_value()

    def permute_rank_variables(self, sigma: Sequence[int]) -> "Polynomial":
        """Apply z_i -> z_sigma(i) and t_i -> t_sigma(i) simultaneously.

        ``sigma`` is 1-based: ``sigma[i-1]`` is the image of index ``i``.
        The fields of z_i and t_i both move by ``i - sigma(i)`` fields, so
        the fields that move by one displacement move together, with one
        AND and one shift on the packed monomial.
        """
        n = self.n
        for image in sigma:
            _require_int(image, "permutation entry")
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {sigma}")
        space = self.space
        moves: dict[int, int] = {}  # displacement in bits -> mask of the fields it moves
        for i, image in enumerate(sigma, 1):
            shift = (i - image) * FIELD_BITS
            for block in (0, 1):
                moves[shift] = moves.get(shift, 0) | _FIELD_MASK << space._offset(i, block)
        left = [(mask, shift) for shift, mask in moves.items() if shift >= 0]
        right = [(mask, -shift) for shift, mask in moves.items() if shift < 0]
        degree = ~space._mask  # the total degree, which no permutation changes
        terms = {}
        for mono, coeff in self._terms.items():
            moved = mono & degree
            for mask, shift in left:
                moved |= (mono & mask) << shift
            for mask, shift in right:
                moved |= (mono & mask) >> shift
            terms[moved] = coeff
        return Polynomial._raw(space, terms)

    def degree_in_t(self, i: int) -> int:
        """Largest exponent of t_i; -1 for the zero polynomial."""
        return self._degree(self.space._offset(i, 1))

    def _degree(self, offset: int) -> int:
        return max(((m >> offset) & _FIELD_MASK for m in self._terms), default=-1)

    def contains_t(self) -> bool:
        _, t_block, _ = self.space._block_layout()
        return any(m & t_block for m in self._terms)

    def to_json(self) -> dict:
        n = self.n
        terms = []
        for m, c in self._canonical():
            re, im = _parts(c)
            terms.append({"z": list(m[:n]), "t": list(m[n:]), "re": str(re), "im": str(im)})
        return {"n": n, "terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> "Polynomial":
        space = VarSpace(data["n"])
        terms: dict[Monomial, GaussianRational] = {}
        for term in data["terms"]:
            mono = tuple(term["z"]) + tuple(term["t"])
            for part in ("re", "im"):
                if not isinstance(term[part], str):
                    raise TypeError(f"coefficient part {part!r} must be a string, "
                                    f"got {term[part]!r}")
            coeff = GaussianRational(term["re"], term["im"])
            if mono in terms:
                raise ValueError(f"duplicate monomial {mono}")
            terms[mono] = coeff
        return cls(space, terms)

    def json_pieces(self) -> Iterator[str]:
        """``json.dumps(self.to_json(), sort_keys=True)``, one piece per term."""
        yield f'{{"n": {self.n}, "terms": ['
        separator = ""
        for z, t, coeff in self._blocks(_json_list, _json_list):
            re, im = _parts(coeff)
            yield f'{separator}{{"im": "{im}", "re": "{re}", "t": [{t}], "z": [{z}]}}'
            separator = ", "
        yield "]}"

    def text_pieces(self) -> Iterator[str]:
        """The text form, one piece per term: t factors before z factors, and
        a coefficient of 1 or -1 shown only by its sign, as in
        ``z1^2 - 1/2*t1*z2 + 3``.  A complex coefficient prints in
        parentheses, so its sign is never folded into the joining sign."""
        if not self._terms:
            yield "0"
            return
        signs = ("", "-")  # the first term's; every later term's is " + " or " - "
        for z, t, coeff in self._blocks(functools.partial(_factors, "z"),
                                        functools.partial(_factors, "t")):
            body = f"{t}*{z}" if t and z else t or z
            text = str(coeff)
            negative = text[0] == "-"
            if negative:
                text = text[1:]
            if body:
                text = body if text == "1" else f"{text}*{body}"
            yield signs[negative] + text
            signs = (" + ", " - ")

    def _blocks(self, render_z: Callable[[tuple[int, ...]], str],
                render_t: Callable[[tuple[int, ...]], str]
                ) -> Iterator[tuple[str, str, Coefficient]]:
        """Each term in canonical order as its z block's text, its t block's
        text and its stored coefficient.  Each distinct block is unpacked and
        rendered once per call, in a memo per block: equal bits stand for
        different variables in the two blocks."""
        width, mask, unpack = self.space._block_layout()
        terms = self._terms
        z_memo, t_memo = {}, {}
        for mono in sorted(terms, reverse=True):
            z_bits, t_bits = (mono >> width) & mask, mono & mask
            z = z_memo.get(z_bits)
            if z is None:
                z = z_memo[z_bits] = render_z(unpack(z_bits))
            t = t_memo.get(t_bits)
            if t is None:
                t = t_memo[t_bits] = render_t(unpack(t_bits))
            yield z, t, terms[mono]

    def __str__(self) -> str:
        return "".join(self.text_pieces())

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"


# the setters of Polynomial's slot descriptors, which _raw calls directly:
# a descriptor's own __set__ skips Immutable.__setattr__ and the slot lookup
_set_space = Polynomial.space.__set__
_set_terms = Polynomial._terms.__set__


def _dot(space: VarSpace, pairs: Iterable[tuple[Polynomial, Polynomial]],
         minus: Iterable[tuple[Polynomial, Polynomial]] = ()) -> Polynomial:
    """Sum of ``left * right`` over ``pairs``, less the same over ``minus``,
    for polynomials of ``space``.  Each sum of products of the package is
    one such call per output polynomial: ``*``; a wide factor of ``prod``;
    a path's product through the middle factors of a ``_matdot`` chain,
    and each entry of its result (a matrix product, or a transfer-matrix
    or Yang-Baxter commutator); a GT row of ``row_sum``; a monodromy
    entry of ``transfer_matrix``; a weight of ``compose`` and the
    free-fermion and invariant residuals.

    Every term product goes into one packed term map: a monomial seen for
    the first time stores its product as it is, or negated when it comes
    from ``minus``, and only a repeated one adds or subtracts.  So a
    difference of products builds no negated polynomial.  Then the guard
    bits are checked over every product monomial, also one whose
    coefficient cancelled, and the zero coefficients are dropped once.
    """
    terms: dict[int, Coefficient] = {}
    get = terms.get
    for left, right in pairs:
        right_terms = right._terms.items()
        for m1, c1 in left._terms.items():
            for m2, c2 in right_terms:
                mono = m1 + m2
                acc = get(mono)
                terms[mono] = c1 * c2 if acc is None else acc + c1 * c2
    for left, right in minus:
        right_terms = right._terms.items()
        for m1, c1 in left._terms.items():
            for m2, c2 in right_terms:
                mono = m1 + m2
                acc = get(mono)
                terms[mono] = -(c1 * c2) if acc is None else acc - c1 * c2
    space._check_guard(terms)
    if not all(terms.values()):
        terms = {m: c for m, c in terms.items() if c}
    return Polynomial._raw(space, terms)


_SHOWN_TERMS = 8  # the leading terms that a long residual or remainder shows


def _head(p: Polynomial) -> Polynomial:
    """The ``_SHOWN_TERMS`` leading terms of ``p``, picked from the packed
    monomials with no sort of the whole polynomial."""
    terms = p._terms
    return Polynomial._raw(p.space, {m: terms[m] for m in heapq.nlargest(_SHOWN_TERMS, terms)})


def _times_imag(p: Polynomial, sign: int = 1) -> Polynomial:
    """``sign * i * p`` for sign 1 or -1, with no multiply: i (re + im i) is
    -im + re i, so each coefficient's two parts only move, and one of them
    changes sign."""
    raw = GaussianRational._raw
    terms = {}
    for mono, c in p._terms.items():
        if type(c) is GaussianRational:
            re, im = c.re, c.im
        else:
            re, im = c if type(c) is Fraction else Fraction(c), _NIL
        if sign > 0:
            terms[mono] = raw(-im if im else _NIL, re)
        else:
            terms[mono] = raw(im, -re)
    return Polynomial._raw(p.space, terms)


def _disjoint_product(space: VarSpace, left: Polynomial, right: Polynomial) -> Polynomial:
    """``left * right`` for two polynomials whose exponent fields share no bit.

    Each field of ``m1 + m2`` is then ``m1 | m2``, with no carry, so no two
    term products share a monomial and none sets a guard bit: every product
    is stored as it is, with no merge and no guard check.
    """
    right_terms = right._terms.items()
    return Polynomial._raw(space, {m1 + m2: c1 * c2 for m1, c1 in left._terms.items()
                                   for m2, c2 in right_terms})


def _accumulate(terms: dict, items: Iterable[tuple[int, Coefficient]]) -> dict:
    """Add the (packed monomial, coefficient) ``items`` into ``terms`` in
    place, drop the sums that cancel, and return ``terms``: the one additive
    merge of term maps, under ``+``, ``-``, ``poly_sum`` and ``substitute``.

    Neither holds a zero coefficient.  A monomial new to ``terms`` takes the
    item's coefficient, so only a monomial seen before costs an addition.
    """
    get = terms.get
    for mono, coeff in items:
        acc = get(mono)
        if acc is None:
            terms[mono] = coeff
        else:
            acc += coeff
            if acc:
                terms[mono] = acc
            else:
                del terms[mono]
    return terms


def _json_list(exps: tuple[int, ...]) -> str:
    """The items of ``json.dumps(list(exps))``, without the brackets."""
    return ", ".join(map(str, exps))


def _factors(letter: str, exps: tuple[int, ...]) -> str:
    """One block's non-zero factors, as in ``t1^4*t2^3*t4``."""
    return "*".join(f"{letter}{i}" if e == 1 else f"{letter}{i}^{e}"
                    for i, e in enumerate(exps, 1) if e)


def prod(factors: Iterable[Polynomial], space: VarSpace | None = None) -> Polynomial:
    """Product of an iterable of polynomials; empty product needs a space.

    A given space must be the factors' own, else the first factor's space
    is; each factor is checked against it.  One-term factors are folded
    into one monomial and coefficient, which shift each monomial of the
    product once at the end.  Each factor of two or more terms after the
    first is one ``_dot`` with the running product of such factors.
    The value, the stored coefficient types and the factor at which an
    exponent overflow raises are those of the left fold ``f1 * f2 * ...``.

    After each factor the guard bits are tested on a bound of the running
    product's monomials: its ``hull`` (the OR of its monomials) plus the
    folded monomial.  Only when that test fires are the monomials checked
    one by one.  Each variable's largest exponent in a product sits on a
    term that cannot cancel, so the kept monomials show every overflow
    that the fold's term products show.  After a zero factor the product
    is zero, and only the spaces are checked.
    """
    body: Polynomial | None = None  # the product of the factors of two or more terms
    hull = 0  # the bitwise OR of body's monomials, within the exponent fields
    mono, coeff = 0, None  # the folded one-term factors; coeff None: none yet
    zero = False
    for f in factors:
        if space is None:
            space = f.space
        elif f.space is not space:
            _check_space(space, (f,))
        if zero:
            continue
        terms = f._terms
        if len(terms) == 1:
            [(m, c)] = terms.items()
            mono += m
            coeff = c if coeff is None else coeff * c
        elif terms:
            body = f if body is None else _dot(space, ((body, f),))
            hull = functools.reduce(operator.or_, body._terms)
        else:
            zero = True
            continue
        # a folded field at or above the limit shows in mono itself; below
        # it, hull + mono carries into no other field
        if ((hull + mono) | mono) & space._guard:
            space._check_guard((mono,) if body is None else [p + mono for p in body._terms])
    if space is None:
        raise ValueError("empty product with no variable space")
    if zero:
        return space.zero()
    if coeff is None:
        return space.one() if body is None else body
    if body is None:
        return Polynomial._raw(space, {mono: coeff})
    return Polynomial._raw(space, {m + mono: c * coeff for m, c in body._terms.items()})


def poly_sum(addends: Iterable[Polynomial], space: VarSpace | None = None) -> Polynomial:
    """Sum of an iterable of polynomials in one accumulation pass.

    Equivalent to repeated ``+`` but linear in the total number of terms;
    an empty sum needs a space, and a given space must be the addends' own.
    """
    found: VarSpace | None = space
    terms: dict[int, Coefficient] = {}
    for p in addends:
        found = found or p.space
        _check_space(found, (p,))
        _accumulate(terms, p._terms.items())
    if found is None:
        raise ValueError("empty sum with no variable space")
    return Polynomial._raw(found, terms)
