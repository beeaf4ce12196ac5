"""Weighted valuations, leading terms, Euler fields, completions."""

from fractions import Fraction

import pytest

from wblow.ring import INF, Poly, parse_poly
from wblow.polyvector import Polyvector, parse_polyvector, schouten
from wblow.centre import Centre, parse_centre

from conftest import V2, V3, random_nonzero_poly, random_poly

F = Fraction


def centre(text: str) -> Centre:
    return parse_centre(text)


# --- weight data --------------------------------------------------------------

def test_weight_sum_sequence_32():
    data = Centre.from_exponents(("u", "v"), (F(1, 3), F(1, 2))).weight_data()
    assert data.weight_seq == (F(3), F(2))
    assert data.kappa == (F(0), F(3), F(5))


def test_centre_refuses_float_exponents_and_base_points():
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Centre.from_exponents(("x", "y"), (2, 1.5))
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Centre.from_exponents(("x", "y"), (2, 3), (0.5, 0))
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Centre(("x", "y"), (F(2), 1.5))
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Centre(("x", "y"), (F(2), F(3)), (F(0), 0.5))
    assert Centre.from_exponents(("x", "y"), (2, INF), (1, F(1, 2))).exponents == (F(2), INF)


def test_reduction_of_23inf():
    data = centre("x:2 y:3 z:inf").weight_data()
    assert data.weight_seq == (F(1, 2), F(1, 3))
    assert data.exponent_seq == (F(2), F(3))
    assert data.gcd == F(1, 6)
    assert data.reduced_weight_seq == (3, 2, 0)


def test_unweighted_is_reduced():
    data = centre("x:1 y:1 z:1").weight_data()
    assert data.gcd == F(1)
    assert data.reduced_weight_seq == (1, 1, 1)


def test_trivial_centre_flagged():
    with pytest.raises(ValueError):
        centre("x:inf y:inf").weight_data()


def test_reduced_centre():
    assert str(centre("x:2 y:2 z:inf").reduced()) == "x:1 y:1 z:inf"
    assert str(centre("x:2 y:3 z:inf").reduced()) == "x:1/3 y:1/2 z:inf"


# --- orders of polynomials ------------------------------------------------------

def test_order_examples_weighted():
    c = centre("x:2 y:3 z:inf")
    assert c.ord_poly(parse_poly("x^5", V3)) == F(5, 2)
    assert c.ord_poly(parse_poly("x^2*y^4*z^5", V3)) == F(7, 3)
    order, witness = c.ord_poly_with_witness(parse_poly("x^5 + x^2*y^4*z^5", V3))
    assert order == F(7, 3) and witness == (2, 4, 5)


def test_order_examples_unweighted_axis():
    c = centre("x:1 y:1 z:inf")
    assert c.ord_poly(parse_poly("x^5", V3)) == F(5)
    assert c.ord_poly(parse_poly("x^2*y^4*z^5", V3)) == F(6)
    order, witness = c.ord_poly_with_witness(parse_poly("x^5 + x^2*y^4*z^5", V3))
    assert order == F(5) and witness == (5, 0, 0)


def test_order_of_zero_is_infinite():
    assert centre("x:1 y:1 z:1").ord_poly(Poly.zero(V3)) is INF


def test_base_point_translation():
    c = parse_centre("x:2 y:1 @ (1,0)")
    f = parse_poly("(x - 1)^2 + y^3", V2)
    assert c.ord_poly(f) == F(1)


# --- orders of polyvectors ----------------------------------------------------------

WHITNEY = "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y"


def test_whitney_order_table():
    sigma = parse_polyvector(WHITNEY, V3)
    W = parse_poly("x^2 - y^2*z", V3)
    table = [("x:1 y:1 z:1", F(2), F(-1)),
             ("x:1 y:1 z:inf", F(2), F(0)),
             ("x:2 y:3 z:3", F(1), F(-1, 6))]
    for spec, ord_w, ord_sigma in table:
        c = centre(spec)
        assert c.ord_poly(W) == ord_w
        assert c.ord_polyvector(sigma) == ord_sigma


def test_polyvector_minimal_order_bound(rng):
    # ord >= -kappa_j, attained by the top wedge of the heaviest directions
    import itertools
    for _ in range(30):
        c = Centre.from_exponents(
            V3, [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in V3])
        data = c.weight_data()
        for degree in (1, 2, 3):
            terms = {}
            for indices in itertools.combinations(range(3), degree):
                coeff = random_poly(rng, V3, max_degree=2)
                if not coeff.is_zero():
                    terms[indices] = coeff
            xi = Polyvector(degree, V3, terms)
            if xi.is_zero():
                continue
            assert c.ord_polyvector(xi) >= -data.kappa_at(degree)
        # attainment: the wedge of the heaviest directions
        weights = c.weights_by_variable()
        heaviest = tuple(sorted(range(3), key=lambda i: -weights[i])[:2])
        xi = Polyvector(2, V3, {tuple(sorted(heaviest)): Poly.const(V3, 1)})
        assert c.ord_polyvector(xi) == -data.kappa_at(2)


# --- leading terms -----------------------------------------------------------------

def test_whitney_leading_terms():
    sigma = parse_polyvector(WHITNEY, V3)
    W = parse_poly("x^2 - y^2*z", V3)
    assert centre("x:1 y:1 z:1").leading_term(W) == parse_poly("x^2", V3)
    assert centre("x:2 y:3 z:3").leading_term(W) == W
    assert centre("x:1 y:1 z:1").leading_term(sigma) == \
        parse_polyvector("2*x*@y^@z", V3)
    assert centre("x:1 y:1 z:inf").leading_term(sigma) == sigma


def test_leading_term_multiplicative(rng):
    c = centre("x:2 y:3 z:5")
    for _ in range(40):
        f = random_nonzero_poly(rng, V3)
        g = random_nonzero_poly(rng, V3)
        assert c.leading_term_poly(f * g) == \
            c.leading_term_poly(f) * c.leading_term_poly(g)


# --- valuation axioms -----------------------------------------------------------------

def test_valuation_axioms(rng):
    for _ in range(60):
        exponents = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in V3]
        if rng.random() < 0.3:
            exponents[rng.randrange(3)] = INF
        c = Centre.from_exponents(V3, exponents)
        f = random_nonzero_poly(rng, V3)
        g = random_nonzero_poly(rng, V3)
        assert c.ord_poly(f * g) == c.ord_poly(f) + c.ord_poly(g)
        total = f + g
        bound = min(c.ord_poly(f), c.ord_poly(g))
        if not total.is_zero():
            assert c.ord_poly(total) >= bound
        if c.ord_poly(f) != c.ord_poly(g):
            assert c.ord_poly(total) == bound


def test_gcd_rescaling_law(rng):
    # ord on a centre equals gcd(w) times ord on its reduced centre
    for _ in range(30):
        c = Centre.from_exponents(
            V3, [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in V3])
        reduced = c.reduced()
        gcd = c.weight_data().gcd
        f = random_nonzero_poly(rng, V3)
        assert c.ord_poly(f) == gcd * reduced.ord_poly(f)


def test_bracket_order_additivity(rng):
    # ord[xi, eta] >= ord xi + ord eta
    import itertools
    for _ in range(60):
        c = Centre.from_exponents(
            V3, [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in V3])
        degrees = rng.choice([(1, 1), (1, 2), (2, 2), (0, 2), (1, 3)])
        vectors = []
        for degree in degrees:
            terms = {}
            for indices in itertools.combinations(range(3), degree):
                coeff = random_poly(rng, V3, max_degree=2)
                if not coeff.is_zero():
                    terms[indices] = coeff
            vectors.append(Polyvector(degree, V3, terms))
        xi, eta = vectors
        if xi.is_zero() or eta.is_zero():
            continue
        bracket = schouten(xi, eta)
        if bracket.is_zero():
            continue
        assert c.ord_polyvector(bracket) >= \
            c.ord_polyvector(xi) + c.ord_polyvector(eta)


# --- Euler fields -------------------------------------------------------------------------

def test_euler_field_formula():
    e = centre("x:2 y:3 z:3").euler_field()
    assert e == parse_polyvector("1/2*x*@x + 1/3*y*@y + 1/3*z*@z", V3)
    assert centre("x:1 y:1 z:1").euler_field() == \
        parse_polyvector("x*@x + y*@y + z*@z", V3)


def test_euler_field_order_zero_and_eigenvalue():
    c = centre("x:2 y:3 z:3")
    e = c.euler_field()
    assert c.ord_polyvector(e) == 0
    W = parse_poly("x^2 - y^2*z", V3)
    assert schouten(e, Polyvector.from_poly(W)).as_poly() == W  # quasi-homogeneous of order 1


# --- completion and support ------------------------------------------------------------------

def test_b_completion():
    c = centre("x:1 y:inf z:inf")
    assert str(c.b_completion(2)) == "x:1 y:2 z:2"
    assert str(c.b_completion(1)) == "x:1 y:1 z:1"  # boundary case b = a_k
    with pytest.raises(ValueError):
        centre("x:2 y:inf").b_completion(1)


def test_support():
    assert centre("x:2 y:3 z:inf").support() == ("x", "y")
    assert centre("x:1 y:1 z:1").support() == ("x", "y", "z")
    assert centre("x:inf y:inf z:inf").support() == ()


def test_centre_text_round_trip():
    for text in ("x:2 y:3 z:inf", "x:9/2 y:1", "x:1 y:2 @ (1,-1/2)"):
        assert str(parse_centre(text)) == text
