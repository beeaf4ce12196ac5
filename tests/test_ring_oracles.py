"""Differential tests of the elimination layer against sympy.

sympy is used here only, never by the library; the module is skipped when it
is not installed.  Inputs are random dense and sparse bivariate polynomials
with Fraction coefficients, some of them with coefficients of more than 20
digits.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from wblow.ring import Poly, divides, parse_poly, rational_roots, resultant, univariate_gcd

F = Fraction
V2 = ("x", "y")
SYMBOLS = sympy.symbols("x y")


def to_sympy(f: Poly):
    symbols = [SYMBOLS[V2.index(v)] for v in f.variables]
    total = sympy.Integer(0)
    for exponent, coeff in f.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, k in zip(symbols, exponent):
            term *= s ** k
        total += term
    return sympy.expand(total)


def from_sympy(expr, variables) -> Poly:
    if not variables:
        value = sympy.Rational(expr)
        return Poly.const((), F(int(value.p), int(value.q)))
    symbols = [SYMBOLS[V2.index(v)] for v in variables]
    poly = sympy.Poly(expr, *symbols, domain="QQ")
    return Poly(variables, {exponent: F(int(c.p), int(c.q))
                            for exponent, c in poly.terms()})


def _coefficient(rng: random.Random) -> Fraction:
    if rng.random() < 0.25:
        return F(rng.randint(-10 ** 24, 10 ** 24), rng.randint(1, 10 ** 21))
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def random_bivariate(rng: random.Random, dense: bool, degree: int) -> Poly:
    """A nonzero polynomial of total degree <= ``degree``: every monomial
    when dense, two to four when sparse."""
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    if not dense:
        monomials = rng.sample(monomials, min(len(monomials), rng.randint(2, 4)))
    while True:
        f = Poly(V2, {e: _coefficient(rng) for e in monomials})
        if not f.is_zero():
            return f


def sympy_resultant(f: Poly, g: Poly, name: str):
    """sympy's resultant, called with the input of larger degree first.

    Called the other way round, sympy 1.14 can return the other sign: it gives
    -1 for res(x - 1, x^3), whose Sylvester determinant is 1.  The order is
    restored with res(f, g) = (-1)^(m*n) * res(g, f).
    """
    symbol = SYMBOLS[V2.index(name)]
    m, n = f.degree_in(name), g.degree_in(name)
    if m >= n:
        return sympy.resultant(to_sympy(f), to_sympy(g), symbol)
    return (-1) ** (m * n) * sympy.resultant(to_sympy(g), to_sympy(f), symbol)


@pytest.mark.parametrize("seed", range(6))
def test_resultant_matches_sympy(seed):
    rng = random.Random(1000 + seed)
    for trial in range(12):
        dense = trial % 2 == 0
        f = random_bivariate(rng, dense, rng.randint(1, 4 if dense else 7))
        g = random_bivariate(rng, dense, rng.randint(1, 4 if dense else 7))
        name = rng.choice(V2)
        rest = tuple(v for v in V2 if v != name)
        expected = sympy_resultant(f, g, name)
        assert resultant(f, g, name) == from_sympy(expected, rest), (f, g, name)


# subresultant PRS branches on sequences too long for a Leibniz expansion;
# each comment gives the degrees of the remainder sequence in y
@pytest.mark.parametrize("f_text, g_text", [
    # deg f < deg g, both odd, then degrees 5, 3, 2, 1, 0
    ("y^3 - x", "x*y^5 + y^2 + 1"),
    # degrees 5, 4, 2, 1, 0: delta = 2 after h = lc, and h used once more
    ("y^5 + y^2 + x", "x*y^4 + y + 1"),
    # degrees 6, 5, 2, 1, 0
    ("y^6 + x*y^2 + 1", "y^5 + y + x"),
    # degrees 4, 4, 1, 0 with 20-digit coefficients: delta = 0, then 3
    ("123456789012345678901/7*y^4 + x*y - 1", "y^4 - 98765432109876543210*x^2 + y"),
    # degrees 5, 4, 3, 2 and a zero remainder: a common factor y^2 - x
    ("(y^2 - x)*(y^3 + x*y + 1)", "(y^2 - x)*(x*y^2 + 3)"),
    # degrees 5, 3, 2, 1, 0, leading coefficients vanishing at x = 0, 1, -1
    ("(x^2 - 1)*y^5 + y - x", "x*y^3 + (x - 2)*y + 1"),
])
def test_resultant_prs_branches_match_sympy(f_text, g_text):
    f, g = parse_poly(f_text, V2), parse_poly(g_text, V2)
    for name in V2:
        rest = tuple(v for v in V2 if v != name)
        for a, b in ((f, g), (g, f)):
            assert resultant(a, b, name) == from_sympy(sympy_resultant(a, b, name), rest)


def test_resultant_matches_sympy_on_a_univariate_chart():
    rng = random.Random(77)
    x = ("x",)
    for _ in range(20):
        f = Poly(x, {(k,): _coefficient(rng) for k in range(rng.randint(1, 5))})
        g = Poly(x, {(k,): _coefficient(rng) for k in range(rng.randint(1, 5))})
        if f.is_zero() or g.is_zero():
            continue
        expected = sympy_resultant(f, g, "x")
        assert resultant(f, g, "x") == from_sympy(expected, ()), (f, g)


def _sympy_rational_roots(f: Poly):
    _, factors = sympy.factor_list(to_sympy(f), SYMBOLS[0])
    roots = []
    for factor, multiplicity in factors:
        poly = sympy.Poly(factor, SYMBOLS[0])
        if poly.degree() == 1:
            a, b = poly.all_coeffs()
            root = -sympy.Rational(b) / sympy.Rational(a)
            roots += [F(int(root.p), int(root.q))] * multiplicity
    return sorted(roots)


@pytest.mark.parametrize("seed", range(6))
def test_rational_roots_match_sympy(seed):
    rng = random.Random(2000 + seed)
    x = ("x",)
    for _ in range(10):
        f = Poly.const(x, _coefficient(rng) or 1)
        for _ in range(rng.randint(0, 5)):
            r = F(rng.randint(-60, 60), rng.randint(1, 40))
            if rng.random() < 0.2:
                r = F(rng.randint(-10 ** 22, 10 ** 22), rng.randint(1, 10 ** 21))
            f = f * Poly(x, {(1,): 1, (0,): -r}) ** rng.randint(1, 2)
        cofactor = Poly(x, {(k,): _coefficient(rng) for k in range(rng.randint(1, 6))})
        if not cofactor.is_zero():
            f = f * cofactor
        if f.total_degree() < 1:
            continue
        assert rational_roots(f) == _sympy_rational_roots(f), f


@pytest.mark.parametrize("seed", range(4))
def test_univariate_gcd_matches_sympy(seed):
    rng = random.Random(3000 + seed)
    x = ("x",)
    for _ in range(10):
        common = Poly(x, {(k,): _coefficient(rng) for k in range(rng.randint(1, 4))})
        f = Poly(x, {(k,): _coefficient(rng) for k in range(rng.randint(1, 5))})
        g = Poly(x, {(k,): _coefficient(rng) for k in range(rng.randint(1, 5))})
        if common.is_zero() or f.is_zero() or g.is_zero():
            continue
        f, g = f * common, g * common
        expected = sympy.gcd(sympy.Poly(to_sympy(f), SYMBOLS[0], domain="QQ"),
                             sympy.Poly(to_sympy(g), SYMBOLS[0], domain="QQ"))
        assert univariate_gcd(f, g) == from_sympy(expected.monic().as_expr(), x), (f, g)


@pytest.mark.parametrize("seed", range(4))
def test_divides_matches_sympy(seed):
    rng = random.Random(4000 + seed)
    for trial in range(10):
        dense = trial % 2 == 0
        f = random_bivariate(rng, dense, rng.randint(1, 3))
        g = random_bivariate(rng, dense, rng.randint(1, 3))
        if trial % 3 == 0:
            g = f * g
        quotient, remainder = sympy.div(sympy.Poly(to_sympy(g), *SYMBOLS, domain="QQ"),
                                        sympy.Poly(to_sympy(f), *SYMBOLS, domain="QQ"))
        expected = from_sympy(quotient.as_expr(), V2) if remainder.is_zero else None
        assert divides(f, g) == expected, (f, g)
