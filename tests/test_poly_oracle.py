"""Property tests, a classical-division oracle and a sympy differential test
for the polynomial kernel.

All are written against the public API only (the constructor, ``terms()``,
arithmetic, ``exact_div``, ``evaluate``, JSON), so they hold for any term
representation behind it.
"""

import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sixvertex.poly import EXPONENT_LIMIT, IMAG, GaussianRational, Polynomial, VarSpace
from sixvertex.schur import deformed_denominator, schur_bialternant
from sixvertex.weights import IceKind

MAX_RANK = 6

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = rationals.filter(bool)


@st.composite
def coefficients(draw, gaussian):
    re = draw(rationals)
    im = draw(rationals) if gaussian and draw(st.booleans()) else 0
    return GaussianRational(re, im)


@st.composite
def polynomials(draw, space, max_terms=4, max_exp=3):
    gaussian = draw(st.booleans())
    monos = st.tuples(*[st.integers(0, max_exp)] * (2 * space.n))
    terms = draw(st.dictionaries(monos, coefficients(gaussian), max_size=max_terms))
    return Polynomial(space, terms)


@st.composite
def rank_and_polys(draw, count):
    space = VarSpace(draw(st.integers(0, MAX_RANK)))
    return space, [draw(polynomials(space)) for _ in range(count)]


@st.composite
def rank_poly_and_perms(draw):
    space = VarSpace(draw(st.integers(0, MAX_RANK)))
    perms = st.permutations(list(range(1, space.n + 1)))
    return space, draw(polynomials(space)), draw(perms), draw(perms)


def _canonical_key(mono):
    return (sum(mono), mono)


@SETTINGS
@given(rank_and_polys(3))
def test_ring_axioms(data):
    space, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + space.zero() == a
    assert a * space.one() == a
    assert a * space.zero() == space.zero()
    assert (a - b) + b == a
    assert -(-a) == a
    assert (a - a).is_zero()


@SETTINGS
@given(rank_and_polys(2))
def test_exact_div_inverts_multiplication(data):
    space, (a, b) = data
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.exact_div(b)
        return
    assert (a * b).exact_div(b) == a


@SETTINGS
@given(rank_and_polys(2))
def test_inexact_division_raises(data):
    space, (a, b) = data
    if b.is_constant():
        return
    # a non-constant b divides no non-zero constant, so a*b + 1 leaves a remainder
    with pytest.raises(ValueError, match="inexact division, remainder"):
        (a * b + 1).exact_div(b)


def _classical_div(dividend, divisor):
    """dividend / divisor by schoolbook division on exponent tuples: each step
    cancels the largest remainder monomial under ``_canonical_key``.  Raises
    ValueError with the remainder when that monomial is not divisible: the
    whole remainder up to 8 terms, else its 8 leading terms and its count."""
    space = dividend.space
    (lead, lead_coeff), *rest = divisor.terms()
    remainder, quotient = dict(dividend.terms()), {}
    while remainder:
        mono = max(remainder, key=_canonical_key)
        ratio = tuple(e - d for e, d in zip(mono, lead))
        if any(e < 0 for e in ratio):
            text = str(Polynomial(space, remainder))
            if len(remainder) > 8:
                head = sorted(remainder, key=_canonical_key, reverse=True)[:8]
                text = (f"{Polynomial(space, {m: remainder[m] for m in head})}"
                        f" + ... ({len(remainder)} terms)")
            raise ValueError(f"inexact division, remainder {text}")
        q = quotient[ratio] = remainder.pop(mono) / lead_coeff
        for dm, dc in rest:
            key = tuple(e + d for e, d in zip(ratio, dm))
            remainder[key] = remainder.get(key, 0) - q * dc
            if not remainder[key]:
                del remainder[key]
    return Polynomial(space, quotient)


def _outcome(divide, dividend, divisor):
    """The quotient, or the text of the ValueError for a remainder."""
    try:
        return divide(dividend, divisor)
    except ValueError as error:
        return str(error)


@st.composite
def difference_of_squares(draw):
    """(c*(d + e), d - e): the product c*(d^2 - e^2) lacks the monomials of
    c*d*e, so dividing it by d - e makes products the dividend lacks."""
    space, (c, d, e) = draw(rank_and_polys(3))
    return space, (c * (d + e), d - e)


def _check_against_classical_division(a, b):
    for dividend in (a * b, a * b + 1):
        assert (_outcome(Polynomial.exact_div, dividend, b)
                == _outcome(_classical_div, dividend, b))
    assert _classical_div(a * b, b) == a


@SETTINGS
@given(st.one_of(rank_and_polys(2), difference_of_squares()))
def test_exact_div_matches_classical_division(data):
    space, (a, b) = data
    if b.is_zero():
        return
    _check_against_classical_division(a, b)


@pytest.mark.parametrize("kind, lam", [(IceKind.GAMMA, (2, 1, 0)),
                                       (IceKind.DELTA, (1, 1, 0, 0)),
                                       (IceKind.GAMMA, (2, 1, 0, 0))])
def test_exact_div_matches_classical_division_on_den_times_schur(kind, lam):
    # den*s divided by den empties the remainder after |s| of its monomials,
    # and divided by s after |den|; den*s + 1 reads every monomial
    s = schur_bialternant(lam)
    den = deformed_denominator(kind, len(lam))
    _check_against_classical_division(s, den)
    _check_against_classical_division(den, s)


@SETTINGS
@given(rank_and_polys(1))
def test_json_round_trip(data):
    space, (p,) = data
    text = json.dumps(p.to_json(), sort_keys=True)
    assert Polynomial.from_json(json.loads(text)) == p


# -- the output writers against to_json and the renderer they replaced ----

def _mono_str(mono, n):
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


def _term_str(coeff, body):
    text = str(coeff)
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if not body:
        return text, negative
    return (body if text == "1" else f"{text}*{body}"), negative


def _reference_text(p):
    """The text form rebuilt from ``terms()``, one exponent tuple per term."""
    if p.is_zero():
        return "0"
    pieces = []
    for mono, coeff in p.terms():
        text, negative = _term_str(coeff, _mono_str(mono, p.n))
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f" - {text}" if negative else f" + {text}")
    return "".join(pieces)


# an exponent of 11 prints as ^11; small ones make equal z and t blocks likely
writer_exponents = st.sampled_from([0, 0, 1, 1, 2, 3, 11])
writer_coefficients = st.one_of(
    st.integers(-3, 3), rationals.map(lambda q: -abs(q)),
    st.sampled_from([IMAG, -IMAG, GaussianRational(Fraction(1, 2), -2),
                     GaussianRational(Fraction(-3, 2), 1)]),
    coefficients(gaussian=True))


@st.composite
def writer_polynomials(draw):
    space = VarSpace(draw(st.integers(0, 3)))
    monos = st.tuples(*[writer_exponents] * (2 * space.n))
    return Polynomial(space, draw(st.dictionaries(monos, writer_coefficients, max_size=6)))


@SETTINGS
@given(writer_polynomials())
@example(VarSpace(0).zero())
@example(VarSpace(3).zero())
def test_writers_match_to_json_and_the_reference_renderer(p):
    json_pieces, text_pieces = list(p.json_pieces()), list(p.text_pieces())
    assert "".join(json_pieces) == json.dumps(p.to_json(), sort_keys=True)
    assert str(p) == "".join(text_pieces) == _reference_text(p)
    # one piece per term, plus the JSON form's head and tail
    assert len(json_pieces) == len(p.terms()) + 2
    assert len(text_pieces) == max(len(p.terms()), 1)


@SETTINGS
@given(rank_and_polys(1))
def test_terms_sorted_and_nonzero(data):
    space, (p,) = data
    terms = p.terms()
    monos = [m for m, _ in terms]
    assert monos == sorted(monos, key=_canonical_key, reverse=True)
    assert len(set(monos)) == len(monos)
    assert all(len(m) == 2 * space.n for m in monos)
    assert all(isinstance(c, GaussianRational) and c for _, c in terms)
    assert Polynomial(space, dict(terms)) == p
    if terms:
        assert p.leading() == terms[0]


@SETTINGS
@given(rank_poly_and_perms())
def test_permute_rank_variables_is_a_group_action(data):
    space, p, sigma, tau = data
    identity = list(range(1, space.n + 1))
    assert p.permute_rank_variables(identity) == p
    # z_i -> z_sigma(i), then z_j -> z_tau(j), is z_i -> z_tau(sigma(i))
    composed = [tau[s - 1] for s in sigma]
    assert (p.permute_rank_variables(sigma).permute_rank_variables(tau)
            == p.permute_rank_variables(composed))
    square = p * p
    assert (square.permute_rank_variables(sigma)
            == p.permute_rank_variables(sigma) ** 2)


def _reference_permutation(p, sigma):
    """z_i -> z_sigma(i) and t_i -> t_sigma(i), one exponent tuple per term."""
    n = p.n
    source = [0] * (2 * n)  # source[k]: the old field that moves to field k
    for i in range(n):
        source[sigma[i] - 1] = i
        source[n + sigma[i] - 1] = n + i
    return Polynomial(p.space, {tuple(mono[k] for k in source): coeff
                                for mono, coeff in p.terms()})


@st.composite
def positive_rank_poly_and_perm(draw):
    space = VarSpace(draw(st.integers(1, MAX_RANK)))
    p = draw(polynomials(space, max_terms=8, max_exp=EXPONENT_LIMIT - 1))
    return p, draw(st.permutations(list(range(1, space.n + 1))))


@SETTINGS
@given(positive_rank_poly_and_perm())
def test_permute_rank_variables_matches_the_reference(data):
    p, sigma = data
    identity = list(range(1, p.n + 1))
    for perm in (sigma, identity):
        assert p.permute_rank_variables(perm) == _reference_permutation(p, perm)


SHAPES = ("real", "imaginary", "complex")


@st.composite
def gaussian_operands(draw, shape):
    """(re, im, operand) for a value of the given shape; a real value also
    comes as an int, a Fraction or a string."""
    re = (Fraction(0) if shape == "imaginary"
          else draw(rationals if shape == "real" else nonzero_rationals))
    im = Fraction(0) if shape == "real" else draw(nonzero_rationals)
    forms = [GaussianRational(re, im)]
    if shape == "real":
        forms += [re, str(re)] + ([re.numerator] if re.denominator == 1 else [])
    return re, im, draw(st.sampled_from(forms))


@pytest.mark.parametrize("shapes", itertools.product(SHAPES, repeat=2),
                         ids="-".join)
@SETTINGS
@given(data=st.data())
def test_gaussian_products_match_the_four_product_formula(shapes, data):
    a, b, left = data.draw(gaussian_operands(shapes[0]))
    c, d, right = data.draw(gaussian_operands(shapes[1]))
    if not isinstance(right, GaussianRational):
        right = GaussianRational(right)  # one operand must be Gaussian
    expected = [(a * c - b * d, a * d + b * c)] * 2 + [(a + c, b + d)] * 2 \
        + [(a - c, b - d), (c - a, d - b)]
    results = [left * right, right * left, left + right, right + left,
               left - right, right - left]
    for result, parts in zip(results, expected):
        assert isinstance(result, GaussianRational)
        assert (result.re, result.im) == parts
        assert type(result.re) is Fraction and type(result.im) is Fraction
    if right:
        quotient = left / right
        assert quotient * right == GaussianRational(a, b)
        assert type(quotient.re) is Fraction and type(quotient.im) is Fraction


parts_or_zero = st.one_of(st.just(Fraction(0)), rationals)
gaussians = st.builds(GaussianRational, parts_or_zero, parts_or_zero)
# an operand of a GaussianRational operator: an int, a Fraction or a
# GaussianRational, either part possibly zero
scalar_operands = st.one_of(st.integers(-6, 6), rationals, gaussians)


def _textbook_parts(value):
    """(re, im) of an operand as two Fractions."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


@SETTINGS
@given(gaussians, scalar_operands)
@example(GaussianRational(1, 1), 1)
@example(GaussianRational(2, -1), Fraction(2))
@example(GaussianRational(0, 3), GaussianRational(0, -3))
def test_gaussian_operators_match_the_textbook_formulas(left, right):
    a, b = _textbook_parts(left)
    c, d = _textbook_parts(right)
    results = {"+": (left + right, right + left), "-": (left - right,),
               "reflected -": (right - left,), "*": (left * right, right * left),
               "neg": (-left,)}
    expected = {"+": (a + c, b + d), "-": (a - c, b - d), "reflected -": (c - a, d - b),
                "*": (a * c - b * d, a * d + b * c), "neg": (-a, -b)}
    for op, values in results.items():
        for value in values:
            assert isinstance(value, GaussianRational)
            assert (value.re, value.im) == expected[op], op
            assert type(value.re) is Fraction and type(value.im) is Fraction
    equal = (a, b) == (c, d)
    assert (left == right, right == left, left != right) == (equal, equal, not equal)


@pytest.mark.parametrize("value", [GaussianRational(3, 0), GaussianRational(0, -2),
                                   GaussianRational(1, 1)], ids=SHAPES)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv], ids=lambda op: op.__name__)
def test_gaussian_operators_refuse_floats_on_either_side(op, value):
    for args in ((value, 0.5), (0.5, value), (value, 2.0), (-1.0, value)):
        with pytest.raises(TypeError):
            op(*args)


# -- sympy as an independent oracle ---------------------------------------

def _sympy_setup(n):
    sympy = pytest.importorskip("sympy")
    zs = sympy.symbols(f"z1:{n + 1}") if n else ()
    ts = sympy.symbols(f"t1:{n + 1}") if n else ()
    return sympy, list(zs) + list(ts)


def _to_sympy(sympy, gens, p):
    expr = sympy.Integer(0)
    for mono, c in p.terms():
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        expr += coeff * sympy.Mul(*[g ** e for g, e in zip(gens, mono)])
    return expr


def _random_poly(rng, space, max_terms, max_exp, gaussian):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(2 * space.n))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if gaussian else 0
        terms[mono] = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), im)
    return Polynomial(space, terms)


def _sympy_value(sympy, v):
    re, im = (v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)
    return (sympy.Rational(re.numerator, re.denominator)
            + sympy.I * sympy.Rational(im.numerator, im.denominator))


@pytest.mark.parametrize("seed", range(6))
def test_differential_against_sympy(seed):
    rng = random.Random(seed)
    space = VarSpace(1 + seed % 4)
    sympy, gens = _sympy_setup(space.n)
    for trial in range(4):
        gaussian = trial % 2 == 1
        a = _random_poly(rng, space, 6, 3, gaussian)
        b = _random_poly(rng, space, 4, 2, gaussian)
        ea, eb = _to_sympy(sympy, gens, a), _to_sympy(sympy, gens, b)
        product = a * b
        assert sympy.expand(ea * eb - _to_sympy(sympy, gens, product)) == 0
        # exact division: sympy's quotient of the product, remainder zero
        q, r = sympy.div(sympy.expand(ea * eb), eb, *gens)
        assert r == 0
        assert sympy.expand(q - _to_sympy(sympy, gens, product.exact_div(b))) == 0
        # a remainder sympy finds makes exact_div raise
        dividend = product + space.one()
        _, r = sympy.div(_to_sympy(sympy, gens, dividend), eb, *gens)
        if r != 0:
            with pytest.raises(ValueError):
                dividend.exact_div(b)
        # evaluation at rational and Gaussian points
        zs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(space.n)]
        ts = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
              for _ in range(space.n)]
        value = a.evaluate(zs, ts)
        point = {g: _sympy_value(sympy, v) for g, v in zip(gens, zs + ts)}
        assert sympy.expand(ea.subs(point) - _sympy_value(sympy, value)) == 0
