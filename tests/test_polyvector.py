"""Wedge, Schouten bracket, Poisson and tangency tests, linearization."""

import itertools
import random
from fractions import Fraction

import pytest

from wblow.ring import Poly, parse_poly
from wblow.polyvector import (
    ABELIAN,
    HEISENBERG,
    OTHER,
    SPLIT_NONABELIAN,
    CoordinateChange,
    LieAlgebra3,
    Polyvector,
    interior_product_df,
    is_poisson,
    is_tangent,
    jacobian_poisson,
    linearize,
    parse_polyvector,
    schouten,
    wedge,
)

from conftest import V3, random_change, random_poly, undo

F = Fraction
ORIGIN = (F(0),) * 3


def pv(text: str) -> Polyvector:
    return parse_polyvector(text, V3)


def random_polyvector(rng, degree: int) -> Polyvector:
    terms = {}
    for indices in itertools.combinations(range(3), degree):
        if rng.random() < 0.8:
            coeff = random_poly(rng, V3, max_degree=2)
            if not coeff.is_zero():
                terms[indices] = coeff
    return Polyvector(degree, V3, terms)


# --- wedge -------------------------------------------------------------------

def test_wedge_basis():
    assert wedge(pv("@x"), pv("@y")) == pv("@x^@y")


def test_wedge_alternation():
    assert wedge(pv("x*@x"), pv("x*@x")).is_zero()


def test_wedge_euler_with_log_bivector():
    # (x@x + y@y + z@z) ^ (x @x^@y) = x z @x^@y^@z
    euler = pv("x*@x + y*@y + z*@z")
    assert wedge(euler, pv("x*@x^@y")) == pv("x*z*@x^@y^@z")


def test_wedge_variable_mismatch():
    with pytest.raises(ValueError):
        wedge(pv("@x"), parse_polyvector("@x", ("x", "y")))


# --- Schouten bracket -----------------------------------------------------------

def test_bracket_volume_with_whitney_potential():
    bracket = schouten(Polyvector.volume(V3),
                       Polyvector.from_poly(parse_poly("x^2 - y^2*z", V3)))
    assert bracket == pv("2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y")


def test_bracket_commuting_scalings():
    assert schouten(pv("x*@x"), pv("y*@y")).is_zero()


def test_bracket_log_bivector_self():
    # sigma = x @x^@y is Poisson: direct expansion gives zero
    sigma = pv("x*@x^@y")
    assert schouten(sigma, sigma).is_zero()


def test_bracket_is_lie_bracket_in_degree_one():
    # [x^2 @y, y @x] = x^2 @x - 2xy @y by hand
    assert schouten(pv("x^2*@y"), pv("y*@x")) == pv("x^2*@x - 2*x*y*@y")


def test_bracket_is_derivative_pairing_on_functions():
    X = pv("x*@x + z*@y")
    f = parse_poly("x*y", V3)
    assert schouten(X, Polyvector.from_poly(f)).as_poly() == parse_poly("x*y + x*z", V3)


def test_graded_antisymmetry_and_jacobi(rng):
    # 500 randomized triples with degree sums <= 4
    checked = 0
    while checked < 500:
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        if a + b + c > 4:
            continue
        xi, eta, zeta = (random_polyvector(rng, d) for d in (a, b, c))
        sign = -1 if ((a - 1) * (b - 1)) % 2 == 0 else 1
        assert schouten(xi, eta) == schouten(eta, xi).scale(sign)
        left = schouten(xi, schouten(eta, zeta))
        right = schouten(schouten(xi, eta), zeta) + schouten(
            eta, schouten(xi, zeta)).scale(1 if ((a - 1) * (b - 1)) % 2 == 0 else -1)
        assert left == right
        checked += 1


# --- Jacobian structures ----------------------------------------------------------

def test_jacobian_whitney():
    f = parse_poly("x^2 - y^2*z", V3)
    assert jacobian_poisson(f) == pv("2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y")


def test_jacobian_constant_is_zero():
    assert jacobian_poisson(Poly.const(V3, 5)).is_zero()


def test_jacobian_xyz():
    # partials by hand: f_x = yz, f_y = xz, f_z = xy
    assert jacobian_poisson(parse_poly("x*y*z", V3)) == \
        pv("y*z*@y^@z + x*z*@z^@x + x*y*@x^@y")


def test_jacobian_always_poisson_and_tangent(rng):
    for _ in range(40):
        f = random_poly(rng, V3)
        sigma = jacobian_poisson(f)
        ok, certificate = is_poisson(sigma)
        assert ok and certificate.is_zero()
        assert interior_product_df(f, sigma).is_zero()


def test_jacobian_needs_three_variables():
    with pytest.raises(ValueError):
        jacobian_poisson(parse_poly("x*y", ("x", "y")))


# --- Poisson test -------------------------------------------------------------------

def test_is_poisson_mixed_bivector():
    # {x,y} = x, {y,z} = 1: Jacobi sums to zero, so this is Poisson
    ok, certificate = is_poisson(pv("x*@x^@y + @y^@z"))
    assert ok and certificate.is_zero()


def test_is_poisson_negative_case():
    # {x,y} = z, {x,z} = x breaks Jacobi
    ok, certificate = is_poisson(pv("z*@x^@y + x*@x^@z"))
    assert not ok and not certificate.is_zero()


def test_pencil_criterion():
    # sigma = (x + g) @y^@z + [mu, h] is Poisson iff dg ^ dh = 0
    for g_text, h_text in (("y^2 + z^2", "(y^2 + z^2)^2"), ("y^2", "z^3")):
        g = parse_poly(g_text, V3)
        h = parse_poly(h_text, V3)
        sigma = Polyvector(2, V3, {(1, 2): parse_poly("x", V3) + g}) + jacobian_poisson(h)
        jacobian_det = g.diff("y") * h.diff("z") - g.diff("z") * h.diff("y")
        assert is_poisson(sigma)[0] == jacobian_det.is_zero()


# --- tangency -------------------------------------------------------------------------

def test_tangency_examples():
    assert is_tangent(pv("x*@x^@y"), parse_poly("x", V3))
    assert not is_tangent(pv("@x^@y"), parse_poly("x", V3))
    W = parse_poly("x^2 - y^2*z", V3)
    assert is_tangent(jacobian_poisson(W), W)


# --- linearization ----------------------------------------------------------------------

def test_linearize_table():
    for text, expected in (("x*@x^@y", SPLIT_NONABELIAN),
                           ("x*@y^@z", HEISENBERG),
                           ("x^2*@x^@y", ABELIAN)):
        algebra, lie_class = linearize(pv(text), ORIGIN)
        assert lie_class == expected


def test_linearize_requires_vanishing():
    with pytest.raises(ValueError):
        linearize(pv("@x^@y"), ORIGIN)


def test_linearize_away_from_origin():
    sigma = pv("(x - 1)*@x^@y")
    _, lie_class = linearize(sigma, (F(1), F(0), F(0)))
    assert lie_class == SPLIT_NONABELIAN


def test_jacobi_validation_negative():
    with pytest.raises(ValueError):
        LieAlgebra3(((F(0), F(0), F(1)),
                     (F(1), F(0), F(0)),
                     (F(0), F(0), F(1))))


def _jacobiator_vanishes(brackets) -> bool:
    """The Jacobi identity on every ordered triple of distinct basis
    vectors: the six-permutation oracle for LieAlgebra3's one triple."""
    pairs = {(0, 1): 0, (0, 2): 1, (1, 2): 2}

    def bracket(u, v):
        out = [F(0)] * 3
        for i, j in itertools.product(range(3), repeat=2):
            if i != j and u[i] and v[j]:
                sign, b = (1, brackets[pairs[(i, j)]]) if i < j else (-1, brackets[pairs[(j, i)]])
                out = [o + sign * u[i] * v[j] * c for o, c in zip(out, b)]
        return out

    basis = [[F(int(i == k)) for k in range(3)] for i in range(3)]
    for i, j, k in itertools.permutations(range(3)):
        terms = [bracket(basis[a], bracket(basis[b], basis[c]))
                 for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
        if any(sum(t[m] for t in terms) for m in range(3)):
            return False
    return True


def test_jacobi_validation_against_all_permutations():
    # seeded sparse structure constants, so that both verdicts occur
    rng = random.Random(20261020)
    verdicts = set()
    for _ in range(400):
        brackets = tuple(tuple(rng.choice((F(0),) * 6 + (F(1), F(-1), F(2), F(1, 2)))
                               for _ in range(3)) for _ in range(3))
        holds = _jacobiator_vanishes(brackets)
        verdicts.add(holds)
        if holds:
            LieAlgebra3(brackets)
        else:
            with pytest.raises(ValueError):
                LieAlgebra3(brackets)
    assert verdicts == {True, False}


def _small_lie_algebras():
    """Every Jacobi-valid structure-constant triple with entries in {-1, 0, 1}.

    Integer arithmetic only, independent of LieAlgebra3.  Returns
    (brackets, expected class) pairs: abelian when every bracket is zero,
    other when the brackets span two or more dimensions, and otherwise
    heisenberg exactly when the Killing form tr(ad u ad v) vanishes.
    """
    pairs = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    cases = []
    for entries in itertools.product((-1, 0, 1), repeat=9):
        brackets = (entries[0:3], entries[3:6], entries[6:9])

        def bracket(i, j):
            if i == j:
                return (0, 0, 0)
            if i < j:
                return brackets[pairs[(i, j)]]
            return tuple(-c for c in brackets[pairs[(j, i)]])

        def bracket_with(i, v):
            return tuple(sum(v[j] * bracket(i, j)[k] for j in range(3)) for k in range(3))

        cyclic = [bracket_with(0, bracket(1, 2)), bracket_with(1, bracket(2, 0)),
                  bracket_with(2, bracket(0, 1))]
        if any(sum(term[k] for term in cyclic) for k in range(3)):
            continue
        minors = [a[p] * b[q] - a[q] * b[p] for a, b in itertools.combinations(brackets, 2)
                  for p, q in itertools.combinations(range(3), 2)]
        if not any(any(b) for b in brackets):
            expected = ABELIAN
        elif any(minors):
            expected = OTHER
        else:
            # ad[i][k][j]: e_k-component of [e_i, e_j]
            ad = [[[bracket(i, j)[k] for j in range(3)] for k in range(3)] for i in range(3)]
            killing = [sum(ad[i][r][s] * ad[j][s][r] for r in range(3) for s in range(3))
                       for i in range(3) for j in range(3)]
            expected = SPLIT_NONABELIAN if any(killing) else HEISENBERG
        cases.append((brackets, expected))
    return cases


@pytest.mark.parametrize(
    "brackets, expected", _small_lie_algebras(),
    ids=lambda value: "".join("-0+"[c + 1] for b in value for c in b)
    if isinstance(value, tuple) else value)
def test_lie_class_matches_independent_criteria(brackets, expected):
    algebra = LieAlgebra3(tuple(tuple(F(c) for c in b) for b in brackets))
    assert algebra.classify() == expected


def test_lie_class_invariant_under_basis_change(rng):
    models = (("x*@x^@y", SPLIT_NONABELIAN), ("x*@y^@z", HEISENBERG),
              ("x^2*@x^@y", ABELIAN))
    for text, expected in models:
        sigma = pv(text)
        for _ in range(20):
            # to the coordinates u = M*x, M with entries in -3..3
            moved = undo(random_change(rng, range(-3, 4), 1))(sigma)
            _, lie_class = linearize(moved, ORIGIN)
            assert lie_class == expected, (text, moved)


# --- shears --------------------------------------------------------------------------------

def test_shear_straightens_vanishing_surface():
    # transporting (x + A) @y^@z through u = x + A, that is x -> x - A, gives
    # u @y^@z + u A_y @x^@z - u A_z @x^@y
    A = parse_poly("y^2 + z^2", V3)
    sigma = Polyvector(2, V3, {(1, 2): parse_poly("x", V3) + A})
    moved = CoordinateChange.shear("x", -A)(sigma)
    expected = (Polyvector(2, V3, {(1, 2): parse_poly("x", V3)})
                + Polyvector(2, V3, {(0, 2): parse_poly("x", V3) * A.diff("y")})
                - Polyvector(2, V3, {(0, 1): parse_poly("x", V3) * A.diff("z")}))
    assert moved == expected
    # the function x + A becomes the coordinate x under the same shear
    assert CoordinateChange.shear("x", -A)(parse_poly("x", V3) + A) == parse_poly("x", V3)


def test_shear_round_trip(rng):
    for _ in range(20):
        sigma = random_polyvector(rng, 2)
        shift = random_poly(rng, V3, max_degree=2)
        if shift.degree_in("x") > 0:
            continue
        moved = CoordinateChange.shear("x", shift)(sigma)
        back = CoordinateChange.shear("x", -shift)(moved)
        assert back == sigma


def _shift_without(rng, name: str) -> Poly:
    shift = random_poly(rng, V3, max_degree=3)
    index = V3.index(name)
    return Poly(V3, {e: c for e, c in shift.terms.items() if e[index] == 0})


def test_shear_commutes_with_jacobian(rng):
    # one shear for functions and bivectors: transporting J(f) is the same as
    # taking the Jacobian bivector of the sheared function
    for _ in range(30):
        f = random_poly(rng, V3, max_degree=4, max_terms=5)
        name = rng.choice(V3)
        shift = _shift_without(rng, name)
        change = CoordinateChange.shear(name, shift)
        back = CoordinateChange.shear(name, -shift)
        assert change(jacobian_poisson(f)) == jacobian_poisson(change(f))
        assert back(change(f)) == f
        sigma = jacobian_poisson(f)
        assert back(change(sigma)) == sigma


def test_shear_substitutes_functions():
    f = parse_poly("x^2 - y^2*z", V3)
    assert CoordinateChange.shear("y", parse_poly("-z", V3))(f) \
        == parse_poly("x^2 - (y - z)^2*z", V3)


def test_shear_rejects_shift_in_sheared_variable():
    with pytest.raises(ValueError):
        CoordinateChange.shear("x", parse_poly("x*z", V3))(parse_poly("x*y", V3))
    with pytest.raises(ValueError):
        CoordinateChange.shear("x", parse_poly("x^2", V3))(pv("x*@y^@z"))


def test_parse_polyvector_round_trip(rng):
    for _ in range(30):
        degree = rng.randint(0, 3)
        xi = random_polyvector(rng, degree)
        assert parse_polyvector(str(xi), V3) == xi


def test_parse_polyvector_rejects_mixed_degree():
    with pytest.raises(ValueError):
        parse_polyvector("@x + @x^@y", V3)
