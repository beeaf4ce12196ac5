"""Lifting criteria, blowdown substitution, slice charts, singular points."""

import itertools
import random
from fractions import Fraction

import pytest

from wblow import blowup
from wblow.ring import INF, Poly, parse_poly
from wblow.polyvector import Polyvector, jacobian_poisson, parse_polyvector
from wblow.centre import Centre, parse_centre
from wblow.blowup import (
    _restrict_to_slice,
    check_centre,
    check_lift,
    exceptional_name,
    exceptional_singular_points,
    pullback_function,
    pullback_polyvector,
    rational_singular_points,
    slice_chart,
    strict_transform_in_chart,
)

from conftest import V2, V3, random_nonzero_poly, random_poly

F = Fraction
WHITNEY_SIGMA = "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y"


def sigma_whitney() -> Polyvector:
    return parse_polyvector(WHITNEY_SIGMA, V3)


def random_polyvector(rng, variables, degree=None):
    if degree is None:
        degree = rng.randint(0, len(variables))
    terms = {}
    for indices in itertools.combinations(range(len(variables)), degree):
        if rng.random() < 0.8:
            coeff = random_poly(rng, variables, max_degree=4)
            if not coeff.is_zero():
                terms[indices] = coeff
    return Polyvector(degree, tuple(variables), terms)


def random_centre(rng, variables, denominator_bound=4, allow_infinite=True):
    exponents = []
    for _ in variables:
        if allow_infinite and rng.random() < 0.25:
            exponents.append(INF)
        else:
            exponents.append(F(rng.randint(1, 6), rng.randint(1, denominator_bound)))
    if all(e is INF for e in exponents):
        exponents[rng.randrange(len(exponents))] = F(1)
    return Centre.from_exponents(tuple(variables), exponents)


# --- coordinate conditions ------------------------------------------------------

def test_whitney_axis_is_conilpotent():
    report = check_centre(sigma_whitney(), parse_centre("x:1 y:1 z:inf"))
    assert report.poisson and report.codegenerate and report.conilpotent
    assert report.exceptional_tangent


def test_whitney_233_fails_cd2_with_witness_w():
    report = check_centre(sigma_whitney(), parse_centre("x:2 y:3 z:3"))
    assert report.poisson is True
    assert report.codegenerate is False
    cd1 = [w for w in report.witnesses if w.tag == "CD1"]
    assert not cd1  # CD1 holds; the failure is CD2
    cd2 = [w for w in report.witnesses if w.tag == "CD2"]
    assert len(cd2) == 1
    assert cd2[0].combination == parse_poly("x^2 - y^2*z", V3)
    assert cd2[0].offending == F(1)
    assert cd2[0].required == F(7, 6)


def test_zero_of_any_degree_is_the_zero_bivector():
    centre = parse_centre("x:1 y:2 z:3 @ (1,0,2)")
    reports = [check_centre(Polyvector.zero(degree, V3), centre).to_dict()
               for degree in range(4)]
    assert all(report == reports[2] for report in reports)
    assert reports[2]["conilpotent"] is True and reports[2]["order"] == "inf"
    with pytest.raises(ValueError, match="expects a bivector"):
        check_centre(parse_polyvector("x*@y", V3), centre)


def test_whitney_point_not_codegenerate():
    report = check_centre(sigma_whitney(), parse_centre("x:1 y:1 z:1"))
    assert report.poisson is True and report.codegenerate is False


def test_log_bivector_admits_no_point_centre():
    # x @x^@y on affine 3-space: the unweighted point centre is Poisson but
    # not codegenerate, with the Euler obstruction at order -1
    sigma = parse_polyvector("x*@x^@y", V3)
    report = check_centre(sigma, parse_centre("x:1 y:1 z:1"))
    assert report.poisson is True and report.codegenerate is False
    lift = check_lift(sigma, parse_centre("x:1 y:1 z:1"))
    euler = [w for w in lift.witnesses if w.tag == "EULER"]
    assert euler and euler[0].offending == F(-1)


# --- order-based lift conditions ---------------------------------------------------

def test_volume_fails_order_condition():
    report = check_lift(Polyvector.volume(V3), parse_centre("x:2 y:3 z:3"))
    assert not report.lift_ok
    assert report.order == F(-7, 6)
    assert any(w.tag == "ORD" and w.required == F(-1, 6) for w in report.witnesses)


def test_euler_like_vector_lifts_tangentially():
    report = check_lift(parse_polyvector("x*@x", V3), parse_centre("x:1 y:1 z:1"))
    assert report.lift_ok and report.exceptional_tangent and report.order == 0


def test_whitney_lifts_on_axis_with_tangency():
    report = check_lift(sigma_whitney(), parse_centre("x:1 y:1 z:inf"))
    assert report.lift_ok and report.exceptional_tangent


# --- blowdown substitution -----------------------------------------------------------

def test_pullback_cusp_function():
    c = Centre.from_exponents(V2, (3, 2))  # x^3, y^2
    result = pullback_function(parse_poly("y^2 - x^3", V2), c)
    assert result.min_t_exponent == 6
    assert result.proper_part == parse_poly("y^2 - x^3", result.variables)


def test_pullback_linear_function():
    c = Centre.from_exponents(V2, (1, 1))
    result = pullback_function(parse_poly("x", V2), c)
    assert result.min_t_exponent == 1
    assert result.proper_part == parse_poly("x", result.variables)


def test_pullback_at_a_based_centre_is_the_pullback_of_the_translated_germ():
    f = parse_poly("(y - 2)^2 - (x + 1)^3 + x*y", V2)
    based = parse_centre("x:3 y:2 @ (-1,2)")
    result = pullback_function(f, based)
    expected = pullback_function(f.translate((F(-1), F(2))), Centre.from_exponents(V2, (3, 2)))
    assert result.min_t_exponent == expected.min_t_exponent
    assert result.proper_part == expected.proper_part
    assert result.variables == expected.variables


def test_exceptional_name_avoids_a_taken_t():
    assert exceptional_name(("x", "y")) == "t"
    assert exceptional_name(("x", "t")) == "t1"
    assert exceptional_name(("t", "t1", "y")) == "t2"
    result = pullback_function(parse_poly("x^2 - t^3", ("x", "t")),
                               Centre.from_exponents(("x", "t"), (3, 2)))
    assert result.variables == ("x", "t", "t1")


def test_pullback_whitney_233():
    result = pullback_function(parse_poly("x^2 - y^2*z", V3), parse_centre("x:2 y:3 z:3"))
    assert result.min_t_exponent == 6  # ord 1 over gcd 1/6
    assert result.proper_part == parse_poly("x^2 - y^2*z", result.variables)


def test_pullback_polyvector_whitney_axis():
    result = pullback_polyvector(sigma_whitney(), parse_centre("x:1 y:1 z:inf"))
    assert result.regular and result.min_t_exponent == 0
    assert result.exceptional_tangent
    assert result.proper_part == parse_polyvector(WHITNEY_SIGMA, result.variables)


def test_pullback_polyvector_whitney_233_pole():
    result = pullback_polyvector(sigma_whitney(), parse_centre("x:2 y:3 z:3"))
    assert not result.regular
    assert result.min_t_exponent < 0


def test_pullback_euler_like_regular():
    result = pullback_polyvector(parse_polyvector("x*@x", V3),
                                 parse_centre("x:1 y:1 z:1"))
    assert result.regular


def test_oracle_equivalence_randomized(rng):
    # the acceptance suite runs 200+; this smoke-checks 120 pairs here
    for _ in range(120):
        n = rng.randint(1, 3)
        variables = V3[:n]
        centre = random_centre(rng, variables)
        xi = random_polyvector(rng, variables)
        lift = check_lift(xi, centre)
        pulled = pullback_polyvector(xi, centre)
        assert lift.lift_ok == pulled.regular
        if lift.lift_ok:
            assert lift.exceptional_tangent == pulled.exceptional_tangent


def _substituted_blowdown(f, reduced, extended, twist=0):
    """The blowdown by the general route: x_i -> x_i*t^w_i by ``substitute``,
    then a product by t^twist."""
    t = Poly.var(extended, extended[-1])
    images = {v: Poly.var(extended, v) * t ** w for v, w in zip(f.variables, reduced) if w}
    return f.extend_variables(extended).substitute(images) * t ** twist


def _substituted_translate(f, point):
    """Recentring by the general route: x_i -> x_i + p_i by ``substitute``."""
    images = {v: Poly.var(f.variables, v) + Poly.const(f.variables, p)
              for v, p in zip(f.variables, point) if p}
    return f.substitute(images) if images else f


def _pullback_outcome(pullback, value, centre):
    try:
        result = pullback(value, centre)
    except ValueError as error:
        return type(error).__name__, str(error)
    proper = result.proper_part
    coefficients = {(): proper} if isinstance(proper, Poly) else proper.terms
    return (result.min_t_exponent, result.regular, result.exceptional_tangent,
            result.variables, getattr(proper, "degree", None),
            {i: (c.nums, c.den, c.cap) for i, c in coefficients.items()})


def _term_count(value):
    if isinstance(value, Poly):
        return len(value.nums)
    return sum(len(c.nums) for c in value.terms.values())


def test_pullbacks_match_the_substitution_route(monkeypatch):
    """pullback_function and pullback_polyvector, whose blowdown and
    recentring work on exponents and numerators, give the values, orders,
    verdicts and caps of the same routines run with x_i -> x_i*t^w_i and
    x_i -> x_i + p_i done by ``substitute``, errors included; the draw covers
    caps that cut terms, weight-zero variables, based centres with large
    denominators and charts that already use t."""
    rng = random.Random(28)
    charts = (("x",), V2, V3, ("x", "t"), ("t", "y", "z"), ("t", "t1"))
    seen = dict(cut=0, weight_zero=0, based=0, t_chart=0, refused=0)
    for _ in range(600):
        variables = rng.choice(charts)
        point = None
        if rng.random() < 0.4:
            point = [F(rng.randint(-40, 40), rng.choice((1, 7, 97, 1024))) for _ in variables]
        centre = random_centre(rng, variables)
        centre = Centre.from_exponents(variables, centre.exponents, point)
        if rng.random() < 0.5:
            value, pullback = random_nonzero_poly(rng, variables, max_degree=4), pullback_function
        else:
            value, pullback = random_polyvector(rng, variables), pullback_polyvector
        cap = rng.choice((None, None, 2, 3, 4, 6, 9))
        if cap is not None:
            value = value.with_cap(cap) if isinstance(value, Poly) else \
                value.map_coefficients(lambda c: c.with_cap(cap))
        outcome = _pullback_outcome(pullback, value, centre)
        with monkeypatch.context() as patched:
            patched.setattr(blowup, "_blowdown", _substituted_blowdown)
            patched.setattr(Poly, "translate", _substituted_translate)
            assert outcome == _pullback_outcome(pullback, value, centre), (value, centre)
        seen["weight_zero"] += INF in centre.exponents
        seen["based"] += point is not None and any(point) and len(outcome) == 6
        seen["t_chart"] += "t" in variables
        seen["refused"] += len(outcome) == 2
        seen["cut"] += (point is None and len(outcome) == 6
                        and sum(map(len, (n for n, _, _ in outcome[5].values())))
                        < _term_count(value))
    assert min(seen.values()) >= 20, seen


def test_codim2_shortcut(rng):
    # for codimension-two centres: codegenerate iff Poisson and ord >= -gcd
    count = 0
    while count < 80:
        exponents = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2)]
        position = rng.randrange(3)
        full = exponents[:position] + [INF] + exponents[position:]
        centre = Centre.from_exponents(V3, full)
        sigma = random_polyvector(rng, V3, degree=2)
        report = check_centre(sigma, centre)
        gcd = centre.weight_data().gcd
        shortcut = report.poisson and centre.ord_polyvector(sigma) >= -gcd
        assert report.codegenerate == bool(shortcut)
        count += 1


def test_jacobian_specialization(rng):
    # for sigma = [volume, f] with ord f > 0:
    # conilpotent iff codegenerate iff ord(f) >= kappa_3
    count = 0
    while count < 60:
        f = random_nonzero_poly(rng, V3)
        if f.constant_term() != 0:
            continue
        centre = random_centre(rng, V3, allow_infinite=False)
        sigma = jacobian_poisson(f)
        if sigma.is_zero():
            continue
        report = check_centre(sigma, centre)
        threshold = centre.ord_poly(f) >= centre.weight_data().kappa_at(3)
        assert report.conilpotent == report.codegenerate == bool(threshold)
        count += 1


def test_unweighted_conilpotence_is_conormal_abelianness(rng):
    # for an unweighted Poisson centre, conilpotence says exactly that the
    # support-pair brackets lie in the square of the support ideal and the
    # mixed brackets in the ideal: a direct monomial count, independent of
    # the order machinery
    count = 0
    while count < 60:
        support_size = rng.randint(1, 3)
        support = sorted(rng.sample(range(3), support_size))
        exponents = [F(1) if i in support else INF for i in range(3)]
        centre = Centre.from_exponents(V3, exponents)
        sigma = random_polyvector(rng, V3, degree=2)
        report = check_centre(sigma, centre)
        if not report.poisson:
            continue

        def support_degree(exponent):
            return sum(exponent[i] for i in support)

        abelian = True
        for i, j in itertools.combinations(range(3), 2):
            bracket = sigma.bracket_of_coordinates(i, j)
            needed = (2 if (i in support and j in support)
                      else 1 if (i in support or j in support) else 0)
            if any(support_degree(e) < needed for e in bracket.terms):
                abelian = False
        assert report.conilpotent == abelian
        count += 1


def test_implication_chain_on_random_reports(rng):
    count = 0
    while count < 100:
        centre = random_centre(rng, V3)
        if centre.codimension() < 2:
            continue
        sigma = random_polyvector(rng, V3, degree=2)
        report = check_centre(sigma, centre)  # chain asserted inside
        if report.conilpotent:
            assert report.codegenerate and report.poisson
        if report.codegenerate:
            assert report.poisson
        count += 1


# --- slice charts ---------------------------------------------------------------------

def test_cusp_slice_charts():
    c = Centre.from_exponents(V2, (3, 2))
    sx = strict_transform_in_chart(parse_poly("y^2 - x^3", V2), c, "x")
    sy = strict_transform_in_chart(parse_poly("y^2 - x^3", V2), c, "y")
    assert sx == parse_poly("y^2 - 1", sx.variables)
    assert sy == parse_poly("1 - x^3", sy.variables)
    assert slice_chart(c, "x").residual_group_order == 2
    assert slice_chart(c, "y").residual_group_order == 3


def test_node_slice_chart():
    c = Centre.from_exponents(V2, (1, 1))
    s = strict_transform_in_chart(parse_poly("y^2 - x^2", V2), c, "x")
    assert s == parse_poly("y^2 - 1", s.variables)


@pytest.mark.parametrize("centre", ["x:2 y:3 z:3", "x:1 y:1 z:inf"])
def test_restriction_lives_on_the_slice_chart(centre):
    # specialising the slice variable leaves the other extended variables in
    # order: the slice chart's own, with no re-charting
    c = parse_centre(centre)
    proper = pullback_function(parse_poly("x^2 - y^2*z", V3), c).proper_part
    for name in c.support():
        chart = slice_chart(c, name)
        assert _restrict_to_slice(proper, chart).variables == chart.variables


def test_slice_needs_positive_weight():
    with pytest.raises(ValueError):
        slice_chart(parse_centre("x:1 y:inf"), "y")


# --- singular points -------------------------------------------------------------------

def test_smoothness_examples():
    assert rational_singular_points(parse_poly("y^2 - 1", V2)) == ([], True)
    assert rational_singular_points(parse_poly("y - x^2", V2)) == ([], True)
    cusp = parse_poly("y^2 - x^3", V2)
    assert rational_singular_points(cusp) == ([(F(0), F(0))], True)
    node = parse_poly("y^2 - x^2", V2)
    assert rational_singular_points(node) == ([(F(0), F(0))], True)


def test_singular_points_off_origin():
    f = parse_poly("y^2 - x^2*(x - 1)^2", V2)
    points, certain = rational_singular_points(f)
    assert certain
    assert points == [(F(0), F(0)), (F(1), F(0))]


def test_rational_points_reported_despite_irrational_ones():
    # each branch has a rational cusp; the branch crossings sit over
    # x^2 = -1/3 and stay unexamined, but the rational singular points are
    # still a definitive negative verdict
    f = parse_poly("(y^2 - (x - 1)^3)*(y^2 - (x + 1)^3)", V2)
    points, certain = rational_singular_points(f)
    assert not certain
    assert points == [(F(-1), F(0)), (F(1), F(0))]


def test_irrational_singular_locus_is_indeterminate():
    # two smooth branches crossing only at x^2 = 2: no rational witness
    f = parse_poly("y^2 - (x^2 - 2)^2", V2)
    assert rational_singular_points(f) == ([], False)
    # nodes at (0, +-sqrt(2)), off the x-axis
    assert rational_singular_points(parse_poly("(y^2 - 2)^2 - x^2", V2)) == ([], False)


@pytest.mark.parametrize("text, certain", [
    ("y^2", False),                  # the line y = 0
    ("(x - 1)^2*(x + 2)", False),    # the line x = 1
    ("x^3 - x^2", False),            # the line x = 0
    ("y*(y - 1)", True),             # two parallel smooth lines
])
def test_univariate_curves_certify_no_finite_answer_for_a_singular_line(text, certain):
    # a repeated factor of a univariate f is a whole line of singular points
    assert rational_singular_points(parse_poly(text, V2)) == ([], certain)


# on the chart (u, t) with f = g(u) + h(u)*t + O(t^2), the singular points on
# t = 0 are the roots of gcd(g, g', h)
@pytest.mark.parametrize("text, points, certain", [
    ("3 + u*t", [], True),                          # f|E a nonzero constant
    ("u^2 + t", [], True),                          # double root of f|E, h(0) != 0: smooth
    ("(u^2 - 2)^2 + t^2", [], False),               # nodes at u = +-sqrt(2) on E
    ("(u - 1)^2*(u^2 - 2)^2 + t^2", [1], False),    # a rational node beside them
    ("(u - 1)^2 - t^3", [1], True),                 # a cusp at u0 = 1
    ("(u + 1/2)^2*(u - 3) + t^2*u", [F(-1, 2)], True),
    ("u^2 - t^2*(t - 1)^2", [0], True),             # the node at t = 1 is not searched
    ("u^2 - (t^2 - 2)^2", [], True),                # nor the irrational ones off E
    ("t*(u - 2) + t^2", [2], True),                 # E a component, crossed at u = 2
    ("t^2*(u - 2) + t^3", [], False),               # E a double component
])
def test_exceptional_singular_points(text, points, certain):
    for chart in (("u", "t"), ("t", "u")):
        f = parse_poly(text, chart)
        expected = [(F(u0), F(0)) if chart[0] == "u" else (F(0), F(u0)) for u0 in points]
        assert exceptional_singular_points(f, "t") == (expected, certain)
        found, everywhere = rational_singular_points(f)
        on_divisor = [p for p in found if p[chart.index("t")] == 0]
        if everywhere:
            assert (on_divisor, True) == (expected, certain)
        else:
            assert set(on_divisor) <= set(expected)
