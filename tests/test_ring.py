"""Exact arithmetic, parsing, division, resultants, rational roots."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import wblow.ring as ring
from wblow.ring import (
    INF,
    MAX_EXPONENT,
    MAX_TERMS,
    ParseError,
    Poly,
    divides,
    ext_reciprocal,
    parse_poly,
    rational_roots,
    resultant,
    univariate_gcd,
)

from conftest import V2, V3, random_nonzero_poly, random_poly

F = Fraction


# --- extended rationals ------------------------------------------------------

def test_infinity_order_and_absorption():
    assert F(10 ** 9) < INF
    assert INF > F(10 ** 9)
    assert not (INF < INF)
    assert INF == INF and INF != F(1)
    assert INF + F(5) is INF
    assert F(5) + INF is INF
    assert INF * F(3) is INF
    assert min(F(7, 3), INF) == F(7, 3)


def test_reciprocal_convention():
    assert ext_reciprocal(INF) == 0
    assert ext_reciprocal(F(0)) is INF
    assert ext_reciprocal(F(2)) == F(1, 2)


def test_zero_times_infinity_rejected():
    with pytest.raises(ArithmeticError):
        INF * F(0)


# --- parsing ------------------------------------------------------------------

def test_parse_whitney_equation():
    f = parse_poly("x^2 - y^2*z", V3)
    assert f.terms == {(2, 0, 0): F(1), (0, 2, 1): F(-1)}


def test_parse_zero():
    assert parse_poly("0", ("x",)).is_zero()


def test_parse_square_matches_expansion_oracle():
    # oracle: expand (x+y)^2 by repeated naive multiplication
    x_plus_y = parse_poly("x + y", V2)
    oracle = x_plus_y * x_plus_y
    assert parse_poly("(x+y)^2", V2) == oracle
    assert oracle.terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x", ("x",))


def test_parse_unknown_variable_offset():
    with pytest.raises(ParseError) as err:
        parse_poly("x + w", V2)
    assert err.value.offset == 4


def test_parse_exponent_limit():
    assert parse_poly(f"x^{MAX_EXPONENT}", V2).degree_in("x") == MAX_EXPONENT
    with pytest.raises(ParseError, match="exceeds the limit") as err:
        parse_poly(f"y + x^{MAX_EXPONENT + 1}", V2)
    assert err.value.offset == 6


def test_parse_term_count_limit():
    # (x+y+z)^k has C(k+2, 2) terms: 990 at k = 43, 1035 at k = 44
    assert MAX_TERMS == 1000
    assert len(parse_poly("(x + y + z)^43", V3).terms) == 990
    with pytest.raises(ParseError, match="1035 terms exceeds the limit 1000") as err:
        parse_poly("(x + y + z)^44", V3)
    assert err.value.offset == 12
    # one variable: the degree bounds the count, (1 + x + x^2)^64 has 129 terms
    assert len(parse_poly("(1 + x + x^2)^64", V2).terms) == 129
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds the limit") as err:
        parse_poly("(x + y + z)^20*(x + y + z)^20", V3)
    assert err.value.offset == 14
    assert time.perf_counter() - start < 1.0
    assert parse_poly("(x + y)^30*(x - y)^30", V2) == parse_poly("(x^2 - y^2)^30", V2)


def test_floats_are_refused():
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly(V2, {(1, 0): 0.1})
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly.const(V2, 0.5)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly.var(V2, "x").scale(2.0)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly.var(V2, "x") * 1.5
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly.var(V2, "x").translate((0.1, 0))
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly.var(V2, "x").evaluate((0.1, 0))
    assert Poly(V2, {(1, 0): 1, (0, 1): F(1, 3)}).terms == {(1, 0): F(1), (0, 1): F(1, 3)}


def test_parse_rationals_and_unary_minus():
    f = parse_poly("-3/2*x + 1/4", V2)
    assert f.terms == {(1, 0): F(-3, 2), (0, 0): F(1, 4)}


def test_print_parse_round_trip(rng):
    for _ in range(40):
        f = random_poly(rng, V3)
        assert parse_poly(str(f), V3) == f


# --- arithmetic ----------------------------------------------------------------

def test_difference_of_squares():
    assert (parse_poly("x + y", V2) * parse_poly("x - y", V2)
            == parse_poly("x^2 - y^2", V2))


def test_power_zero_is_one():
    assert parse_poly("x + 1", V2) ** 0 == Poly.const(V2, 1)


def test_rational_scaling():
    assert parse_poly("2*x", V2).scale(F(3, 2)) == parse_poly("3*x", V2)


def test_variable_mismatch_raises():
    with pytest.raises(ValueError):
        parse_poly("x", ("x",)) + parse_poly("x", V2)


small = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw, variables=V2, max_degree=3):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exponent = tuple(draw(st.integers(0, max_degree)) for _ in variables)
        coeff = draw(small)
        terms[exponent] = terms.get(exponent, 0) + coeff
    return Poly(variables, {k: v for k, v in terms.items() if v})


@given(polys(), polys(), polys())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# --- derivatives -------------------------------------------------------------

def test_partial_derivatives():
    W = parse_poly("x^2 - y^2*z", V3)
    assert W.diff("x") == parse_poly("2*x", V3)
    assert W.diff("z") == parse_poly("-y^2", V3)
    assert parse_poly("x^2", V3).diff("y").is_zero()
    with pytest.raises(ValueError):
        W.diff("w")


# --- substitution ----------------------------------------------------------------

def test_blowdown_substitution_cusp():
    chart = ("x", "y", "t")
    f = parse_poly("y^2 - x^3", chart)
    t = Poly.var(chart, "t")
    images = {"y": Poly.var(chart, "y") * t ** 3, "x": Poly.var(chart, "x") * t ** 2}
    assert f.substitute(images) == parse_poly("t^6*y^2 - t^6*x^3", chart)


def test_identity_substitution():
    f = parse_poly("x^2*y - 3", V2)
    assert f.substitute({"x": Poly.var(V2, "x")}) == f


def test_translation_substitution():
    f = parse_poly("x", V2)
    assert f.substitute({"x": parse_poly("x + 1", V2)}) == parse_poly("x + 1", V2)


def test_substitution_composition(rng):
    # substitute(substitute(f, A), B) == substitute(f, B after A)
    for _ in range(25):
        f = random_poly(rng, V2, max_degree=2)
        a_images = {"x": random_poly(rng, V2, max_degree=2),
                    "y": random_poly(rng, V2, max_degree=2)}
        b_images = {"x": random_poly(rng, V2, max_degree=2),
                    "y": random_poly(rng, V2, max_degree=2)}
        composed = {name: image.substitute(b_images)
                    for name, image in a_images.items()}
        assert f.substitute(a_images).substitute(b_images) == f.substitute(composed)


# --- division ---------------------------------------------------------------------

def test_divides_examples():
    assert divides(parse_poly("x", V2), parse_poly("x^2*y", V2)) == parse_poly("x*y", V2)
    q = divides(parse_poly("x + y", V2), parse_poly("x^2 - y^2", V2))
    assert q == parse_poly("x - y", V2)
    assert parse_poly("x + y", V2) * q == parse_poly("x^2 - y^2", V2)
    assert divides(parse_poly("x", V2), parse_poly("y", V2)) is None


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divides(Poly.zero(V2), parse_poly("x", V2))


def test_divides_round_trip(rng):
    for _ in range(60):
        f = random_nonzero_poly(rng, V2)
        q = random_poly(rng, V2)
        assert divides(f, f * q) == q


# --- resultants ----------------------------------------------------------------------

def _det_by_permutations(matrix, variables):
    """Independent determinant oracle: Leibniz expansion (small matrices)."""
    import itertools
    n = len(matrix)
    total = Poly.zero(variables)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.const(variables, sign)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def test_resultant_cusp_tangent():
    # hand Sylvester for (y^2 - x^3, 2y) in y, f-rows first:
    # [1, 0, -x^3; 2, 0, 0; 0, 2, 0] -> det = -4 x^3 under this convention
    f = parse_poly("y^2 - x^3", V2)
    g = parse_poly("2*y", V2)
    x_only = ("x",)
    one = Poly.const(x_only, 1)
    x3 = parse_poly("x^3", x_only)
    oracle = _det_by_permutations(
        [[one, Poly.zero(x_only), -x3],
         [one.scale(2), Poly.zero(x_only), Poly.zero(x_only)],
         [Poly.zero(x_only), one.scale(2), Poly.zero(x_only)]], x_only)
    assert resultant(f, g, "y") == oracle == parse_poly("-4*x^3", x_only)


def test_resultant_linear_pair():
    # [1, -x; 1, x] -> det = 2x under the f-rows-first convention
    assert resultant(parse_poly("y - x", V2), parse_poly("y + x", V2), "y") \
        == parse_poly("2*x", ("x",))


def test_resultant_common_root_everywhere():
    assert resultant(parse_poly("y", V2), parse_poly("y", V2), "y").is_zero()


def test_resultant_detects_common_factor(rng):
    # res = 0 exactly when f and g share a nonconstant factor in v
    for _ in range(20):
        common = random_nonzero_poly(rng, V2, max_degree=2)
        if common.degree_in("y") == 0:
            common = common * parse_poly("y", V2)
        f = common * random_nonzero_poly(rng, V2, max_degree=2)
        g = common * random_nonzero_poly(rng, V2, max_degree=2)
        assert resultant(f, g, "y").is_zero()
    # and generically nonzero without one
    f = parse_poly("y^2 - x", V2)
    g = parse_poly("y + x^2 + 1", V2)
    assert not resultant(f, g, "y").is_zero()


def test_resultant_degree_zero_convention():
    f = parse_poly("y^2 - x^3", V2)
    c = parse_poly("x", V2)  # degree 0 in y
    assert resultant(f, c, "y") == parse_poly("x^2", ("x",))


def _sylvester(f, g, name):
    """Sylvester matrix in ``name``, f-coefficient rows first, built by hand."""
    fc, gc = f.coefficients_in(name), g.coefficients_in(name)
    m, n = len(fc) - 1, len(gc) - 1
    zero = Poly.zero(fc[0].variables)
    rows = []
    for coefficients, count in ((fc, n), (gc, m)):
        for shift in range(count):
            row = [zero] * (m + n)
            for j, c in enumerate(reversed(coefficients)):
                row[shift + j] = c.with_cap(None)
            rows.append(row)
    return rows


def test_resultant_matches_leibniz_on_random_sylvester_matrices(rng):
    # random pairs of degrees 1..3 in y with rational coefficients: the
    # Leibniz expansion of the hand-built Sylvester matrix is the oracle
    checked = 0
    while checked < 40:
        f = random_nonzero_poly(rng, V2, max_degree=4, max_terms=5)
        g = random_nonzero_poly(rng, V2, max_degree=4, max_terms=5)
        if not (1 <= f.degree_in("y") <= 3 and 1 <= g.degree_in("y") <= 3):
            continue
        f = f.scale(F(rng.randint(1, 9), rng.randint(1, 9)))
        g = g + Poly.const(V2, F(rng.randint(-5, 5), 7))
        name = rng.choice(V2) if checked % 4 == 0 else "y"
        if f.degree_in(name) < 1 or g.degree_in(name) < 1:
            continue
        rest = tuple(v for v in V2 if v != name)
        assert resultant(f, g, name) == _det_by_permutations(_sylvester(f, g, name), rest)
        checked += 1


def test_resultant_on_a_univariate_chart():
    x = ("x",)
    assert resultant(parse_poly("x^2 - 1", x), parse_poly("x - 1", x), "x").is_zero()
    value = resultant(parse_poly("x^2 - 2", x), parse_poly("3*x + 1/2", x), "x")
    # g(sqrt 2)*g(-sqrt 2) = 1/4 - 18
    assert value == Poly.const((), F(-71, 4))


# --- subresultant PRS branches ----------------------------------------------------------

def _pseudo_divisions(monkeypatch, f, g, name):
    """(deg, deg, deg of the pseudo-remainder) of every pseudo-division that
    resultant(f, g, name) makes, larger degree first; -1 is a zero remainder."""
    steps = []
    inner = ring._pseudo_remainder

    def spy(a, b):
        r = inner(a, b)
        steps.append((len(a) - 1, len(b) - 1, len(r) - 1))
        return r

    monkeypatch.setattr(ring, "_pseudo_remainder", spy)
    resultant(f, g, name)
    monkeypatch.undo()
    return steps


# each pair with the degree sequence it drives, so the branch it covers is
# pinned, not assumed; tests/test_ring_oracles.py checks longer sequences
# against sympy
PRS_BRANCHES = [
    # deg f < deg g, both odd: the inputs are swapped with sign (-1)^(mn) = -1
    ("y + x", "y^3 - x*y + 2", [(3, 1, 0)]),
    ("y^3 - x", "x*y^3 + y^2 + 1", [(3, 3, 2), (3, 2, 1), (2, 1, 0)]),
    # equal degrees: delta = 0 keeps h
    ("x*y^2 + y - 1", "y^2 + x^2*y + 3", [(2, 2, 1), (2, 1, 0)]),
    # non-normal: a degree gap of two (delta = 2) sets h = lc^2/h, which
    # the next division or the final power uses
    ("y^4 + y + x", "x*y^2 + y + 1", [(4, 2, 1), (2, 1, 0)]),
    ("y^4 + 1", "x*y^2 + 1", [(4, 2, 0)]),
    ("y^4 + x*y + 1", "y^3 + 1", [(4, 3, 1), (3, 1, 0)]),
    # a common factor: the sequence stops at a zero pseudo-remainder
    ("(y - x)*(y^2 + 1)", "(y - x)*(y + 2)", [(3, 2, 1), (2, 1, -1)]),
    ("(y^2 - x)*(y + 1)*(y - 2)", "(y^2 - x)*(x*y + 3)", [(4, 3, 2), (3, 2, -1)]),
    # leading coefficients vanishing at x = 0, 1 and -1
    ("x*y^2 + y - 1", "(x - 1)*y + x", [(2, 1, 0)]),
    ("(x^2 - 1)*y^3 + y - x", "x*y^2 + (x - 2)*y + 1", [(3, 2, 1), (2, 1, 0)]),
]


@pytest.mark.parametrize("f_text, g_text, steps", PRS_BRANCHES)
def test_resultant_prs_branches_match_leibniz(monkeypatch, f_text, g_text, steps):
    f, g = parse_poly(f_text, V2), parse_poly(g_text, V2)
    assert _pseudo_divisions(monkeypatch, f, g, "y") == steps
    oracle = _det_by_permutations(_sylvester(f, g, "y"), ("x",))
    assert resultant(f, g, "y") == oracle
    # res(g, f) = (-1)^(mn) res(f, g): the f-rows-first sign survives the swap
    sign = (-1) ** (f.degree_in("y") * g.degree_in("y"))
    assert resultant(g, f, "y") == oracle.scale(sign)


@pytest.mark.parametrize("f_text, g_text, steps", [
    ("x + 2", "x^3 - x + 5", [(3, 1, 0)]),
    ("x^2 + 3", "2*x^2 - x", [(2, 2, 1), (2, 1, 0)]),
    ("x^4 + 1", "2*x^2 + 1", [(4, 2, 0)]),
    ("(x - 1)*(x^2 + 1)", "(x - 1)*(x + 2)", [(3, 2, 1), (2, 1, -1)]),
])
def test_resultant_prs_branches_on_a_univariate_chart(monkeypatch, f_text, g_text, steps):
    x = ("x",)
    f, g = parse_poly(f_text, x), parse_poly(g_text, x)
    assert _pseudo_divisions(monkeypatch, f, g, "x") == steps
    assert resultant(f, g, "x") == _det_by_permutations(_sylvester(f, g, "x"), ())


def test_resultant_three_variable_chart_rejected():
    f, g = parse_poly("y^2 - x*z", V3), parse_poly("y - z", V3)
    with pytest.raises(ValueError):
        resultant(f, g, "y")


# --- rational roots ----------------------------------------------------------------

def test_rational_roots_examples():
    x = ("x",)
    assert rational_roots(parse_poly("x^2 - 1", x)) == [F(-1), F(1)]
    assert rational_roots(parse_poly("x^2 + 1", x)) == []
    built = parse_poly("(2*x - 1)^2 * (x - 3)", x)
    assert rational_roots(built) == [F(1, 2), F(1, 2), F(3)]


def test_rational_roots_zero_multiplicity():
    f = parse_poly("x^3*(x - 2)", ("x",))
    assert rational_roots(f) == [F(0), F(0), F(0), F(2)]


def test_rational_roots_skips_unlucky_primes():
    # 3 and 5 divide the leading coefficient, and modulo 7 the roots 1/15
    # and 1 collide; the first usable prime is 11
    f = parse_poly("(15*x - 1)*(x - 1)*(x - 4)*(x - 6)", ("x",))
    assert rational_roots(f) == [F(1, 15), F(1), F(4), F(6)]
    assert rational_roots(parse_poly("x^2 - 2", ("x",))) == []


def test_rational_roots_degree_27_with_a_26_digit_constant():
    # five rational roots (one double) times x^22 + 6*x^11 + 2*(10^21 + 1),
    # irreducible by Eisenstein at 2; rational-root trial division would
    # have to try every divisor of a 26-digit constant term
    x = ("x",)
    roots = [F(3), F(-5, 2), F(7, 3), F(7, 3), F(11)]
    f = parse_poly(f"x^22 + 6*x^11 + 2*{10 ** 21 + 1}", x)
    for r in roots:
        f = f * parse_poly(f"{r.denominator}*x - ({r.numerator})", x)
    assert f.total_degree() == 27 and len(str(abs(f.constant_term()))) == 26
    start = time.perf_counter()
    assert rational_roots(f) == sorted(roots)
    assert time.perf_counter() - start < 1.0


def test_univariate_gcd():
    x = ("x",)
    f = parse_poly("(x - 1)^2*(x + 2)", x)
    g = parse_poly("(x - 1)*(x + 3)", x)
    assert univariate_gcd(f, g) == parse_poly("x - 1", x)


# --- truncation caps -----------------------------------------------------------------

def test_cap_truncates_and_propagates():
    f = parse_poly("1 + x + x^2 + x^3", ("x",)).with_cap(3)
    assert f == parse_poly("1 + x + x^2", ("x",)).with_cap(3)
    g = f * f
    assert g.cap == 3
    assert g.total_degree() < 3


def test_cap_lowers_under_derivative():
    f = parse_poly("x^4", ("x",)).with_cap(5)
    assert f.diff("x").cap == 4


def test_capped_substitution_requires_vanishing_images():
    f = parse_poly("x^2", V2).with_cap(4)
    with pytest.raises(ValueError):
        f.substitute({"x": parse_poly("x + 1", V2)})
    shifted = f.substitute({"x": parse_poly("x + y", V2)})
    assert shifted == parse_poly("(x + y)^2", V2).with_cap(4)


def test_chart_dimension_cap():
    with pytest.raises(ValueError):
        Poly.zero(tuple(f"v{i}" for i in range(9)))
