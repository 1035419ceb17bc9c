"""Exact sparse multivariate polynomial arithmetic over the Gaussian rationals.

Every polynomial lives in a :class:`VarSpace` of rank ``n``, which provides
the variables ``z_1..z_n`` and ``t_1..t_n``.  Coefficients are Gaussian
rationals (``re + im*i`` with exact rational parts), terms are kept in a
sparse map from exponent vectors to coefficients, and the canonical term
order is descending graded lexicographic on the combined exponent vector
(z-block then t-block).  All values are immutable and all operations exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class GaussianRational:
    """An exact complex number ``re + im*i`` with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int | str = 0, im: Fraction | int | str = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def coerce(cls, value: "GaussianRational | Fraction | int | str") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(Fraction(value))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re + other.re)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * other.re + self.im * other.im) / norm,
                                (other.re * self.im - other.im * self.re) / norm)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

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


class VarSpace:
    """The rank: polynomials over z_1..z_n, t_1..t_n share one VarSpace."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"rank must be non-negative, got {n}")
        object.__setattr__(self, "n", n)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VarSpace is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarSpace) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("VarSpace", self.n))

    def __repr__(self) -> str:
        return f"VarSpace({self.n})"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(ONE)

    def const(self, value: GaussianRational | Fraction | int) -> "Polynomial":
        c = GaussianRational.coerce(value)
        if c.is_zero():
            return self.zero()
        return Polynomial(self, {(0,) * (2 * self.n): c})

    def z(self, i: int, power: int = 1) -> "Polynomial":
        return self._var(i, i - 1, power)

    def t(self, i: int, power: int = 1) -> "Polynomial":
        return self._var(i, self.n + i - 1, power)

    def _var(self, index: int, slot: int, power: int) -> "Polynomial":
        if not 1 <= index <= self.n:
            raise IndexError(f"variable index {index} out of range for rank {self.n}")
        if power < 0:
            raise ValueError("negative exponent")
        if power == 0:
            return self.one()
        exps = [0] * (2 * self.n)
        exps[slot] = power
        return Polynomial(self, {tuple(exps): ONE})


def _order_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


class Polynomial:
    """Immutable sparse polynomial: a map from exponent vectors to coefficients."""

    __slots__ = ("space", "_terms")

    def __init__(self, space: VarSpace, terms: Mapping[Monomial, GaussianRational]):
        width = 2 * space.n
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != width or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for rank {space.n}")
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[tuple(mono)] = coeff
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, space: VarSpace, terms: dict) -> "Polynomial":
        # internal: terms must already be a clean map owned by the caller
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_terms", terms)
        return self

    @property
    def n(self) -> int:
        return self.space.n

    def terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in canonical order (descending graded lex)."""
        return sorted(self._terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self._terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self._terms.values()), ZERO)

    def _check_space(self, other: "Polynomial") -> None:
        if self.space != other.space:
            raise ValueError(f"variable space mismatch: {self.space} vs {other.space}")

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return self.space.const(GaussianRational.coerce(other))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check_space(other)
        terms = dict(self._terms)
        _accumulate(terms, other._terms, operator.add)
        return Polynomial._raw(self.space, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.space, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check_space(other)
        terms = dict(self._terms)
        _accumulate(terms, other._terms, operator.sub)
        return Polynomial._raw(self.space, terms)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check_space(other)
        terms: dict[Monomial, GaussianRational] = {}
        get = terms.get
        add = operator.add
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(map(add, m1, m2))
                acc = get(mono, ZERO) + c1 * c2
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        return Polynomial._raw(self.space, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = self.space.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.space.const(GaussianRational.coerce(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.space == other.space and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals, so must hash like, its coefficient
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.space, frozenset(self._terms.items())))

    def leading(self) -> tuple[Monomial, GaussianRational]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=_order_key)
        return mono, self._terms[mono]

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self/divisor; raises if the division leaves a remainder."""
        divisor = self._coerce(divisor)
        self._check_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead_mono, lead_coeff = divisor.leading()
        remainder = dict(self._terms)
        quotient: dict[Monomial, GaussianRational] = {}
        while remainder:
            mono = max(remainder, key=_order_key)
            coeff = remainder[mono]
            ratio = tuple(e - f for e, f in zip(mono, lead_mono))
            if any(e < 0 for e in ratio):
                raise ValueError(
                    "inexact division, remainder "
                    f"{Polynomial(self.space, remainder)}")
            q = coeff / lead_coeff
            quotient[ratio] = q
            for dm, dc in divisor._terms.items():
                key = tuple(map(operator.add, ratio, dm))
                acc = remainder.get(key, ZERO) - q * dc
                if acc:
                    remainder[key] = acc
                else:
                    remainder.pop(key, None)
        return Polynomial._raw(self.space, quotient)

    def substitute(self, z: Mapping[int, object] | None = None,
                   t: Mapping[int, object] | None = None) -> "Polynomial":
        """Substitute exact values for some variables (1-based indices)."""
        n = self.n
        values: dict[int, GaussianRational] = {}
        for offset, block in ((0, z), (n, t)):
            for i, v in (block or {}).items():
                if not 1 <= i <= n:
                    raise IndexError(f"variable index {i} out of range for rank {n}")
                values[offset + i - 1] = GaussianRational.coerce(v)
        terms: dict[Monomial, GaussianRational] = {}
        for mono, coeff in self._terms.items():
            scale = coeff
            new = list(mono)
            for slot, val in values.items():
                for _ in range(mono[slot]):
                    scale = scale * val
                new[slot] = 0
            _accumulate(terms, {tuple(new): scale}, operator.add)
        return Polynomial._raw(self.space, terms)

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
        """
        n = self.n
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {sigma}")
        terms = {}
        for mono, coeff in self._terms.items():
            new = [0] * (2 * n)
            for i in range(n):
                new[sigma[i] - 1] = mono[i]
                new[n + sigma[i] - 1] = mono[n + i]
            terms[tuple(new)] = coeff
        return Polynomial._raw(self.space, terms)

    def degree_in_z(self, i: int) -> int:
        """Largest exponent of z_i; -1 for the zero polynomial."""
        return max((m[i - 1] for m in self._terms), default=-1)

    def degree_in_t(self, i: int) -> int:
        """Largest exponent of t_i; -1 for the zero polynomial."""
        return max((m[self.n + i - 1] for m in self._terms), default=-1)

    def contains_t(self) -> bool:
        n = self.n
        return any(any(m[n:]) for m in self._terms)

    def to_json(self) -> dict:
        n = self.n
        return {"n": n,
                "terms": [{"z": list(m[:n]), "t": list(m[n:]),
                           "re": str(c.re), "im": str(c.im)}
                          for m, c in self.terms()]}

    @classmethod
    def from_json(cls, data: Mapping) -> "Polynomial":
        space = VarSpace(int(data["n"]))
        terms: dict[Monomial, GaussianRational] = {}
        for term in data["terms"]:
            mono = tuple(int(e) for e in term["z"]) + tuple(int(e) for e in term["t"])
            coeff = GaussianRational(Fraction(term["re"]), Fraction(term["im"]))
            if mono in terms:
                raise ValueError(f"duplicate monomial {mono}")
            terms[mono] = coeff
        return cls(space, terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mono, coeff in self.terms():
            body = _mono_str(mono, self.n)
            text, negative = _term_str(coeff, body)
            if not pieces:
                pieces.append(f"-{text}" if negative else text)
            else:
                pieces.append(f" - {text}" if negative else f" + {text}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"


def _accumulate(terms: dict, addend: Mapping, op) -> None:
    """Fold `addend` into `terms` in place, term by term with `op`; drops zeros."""
    get, pop = terms.get, terms.pop
    for mono, coeff in addend.items():
        acc = op(get(mono, ZERO), coeff)
        if acc:
            terms[mono] = acc
        else:
            pop(mono, None)


def _mono_str(mono: Monomial, n: int) -> str:
    factors = []
    for i in range(n):
        e = mono[n + i]
        if e == 1:
            factors.append(f"t{i + 1}")
        elif e > 1:
            factors.append(f"t{i + 1}^{e}")
    for i in range(n):
        e = mono[i]
        if e == 1:
            factors.append(f"z{i + 1}")
        elif e > 1:
            factors.append(f"z{i + 1}^{e}")
    return "*".join(factors)


def _term_str(coeff: GaussianRational, body: str) -> tuple[str, bool]:
    """Render one term; returns (text, sign-folded-out) for joining."""
    if not body:
        text = str(coeff)
        if text.startswith("-") and not text.startswith("(-"):
            return text[1:], True
        return text, False
    if coeff.im == 0:
        if coeff.re == 1:
            return body, False
        if coeff.re == -1:
            return body, True
        if coeff.re < 0:
            return f"{-coeff.re}*{body}", True
        return f"{coeff.re}*{body}", False
    if coeff.re == 0:
        if coeff.im == 1:
            return f"i*{body}", False
        if coeff.im == -1:
            return f"i*{body}", True
        if coeff.im < 0:
            return f"{_imag_str(-coeff.im)}*{body}", True
        return f"{_imag_str(coeff.im)}*{body}", False
    return f"{coeff}*{body}", False


def prod(factors: Iterable[Polynomial], space: VarSpace | None = None) -> Polynomial:
    """Product of an iterable of polynomials; empty product needs a space."""
    result: Polynomial | None = None
    for f in factors:
        result = f if result is None else result * f
    if result is None:
        if space is None:
            raise ValueError("empty product with no variable space")
        return space.one()
    return result


def poly_sum(addends: Iterable[Polynomial], space: VarSpace | None = None) -> Polynomial:
    """Sum of an iterable of polynomials in one accumulation pass.

    Equivalent to repeated ``+`` but linear in the total number of terms;
    an empty sum needs a space.
    """
    found: VarSpace | None = None
    terms: dict[Monomial, GaussianRational] = {}
    for p in addends:
        if found is None:
            found = p.space
        elif p.space != found:
            raise ValueError(f"variable space mismatch: {found} vs {p.space}")
        _accumulate(terms, p._terms, operator.add)
    if found is None:
        if space is None:
            raise ValueError("empty sum with no variable space")
        return space.zero()
    return Polynomial._raw(found, terms)
