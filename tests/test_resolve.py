"""Resolution driver, centre selection, and step certification."""

import random
from fractions import Fraction

import pytest

from wblow import classify
from wblow.ring import Poly, parse_poly
from wblow.polyvector import Polyvector, jacobian_poisson, parse_polyvector
from wblow.centre import Centre, parse_centre
from wblow.invariant import lex_compare
from wblow.resolve import (
    RefusalError,
    StepAbort,
    _recognise_heisenberg_form,
    certify_blowup_step,
    count_blowups,
    resolution_is_complete,
    resolve_plane_curve,
    select_centre_31,
    select_centre_32,
)

from conftest import V2, V3

F = Fraction
CORPUS = [("node", "y^2 - x^2"), ("cusp", "y^2 - x^3"), ("tacnode", "y^2 - x^4"),
          ("ramphoid", "y^2 - x^5"), ("E8-curve", "y^3 - x^5")]


# --- plane-curve resolution -----------------------------------------------------

def test_corpus_curves_resolve():
    for name, text in CORPUS:
        tree = resolve_plane_curve(parse_poly(text, V2))
        assert resolution_is_complete(tree), name
        assert count_blowups(tree) <= 4, name


def test_cusp_resolution_structure():
    tree = resolve_plane_curve(parse_poly("y^2 - x^3", V2))
    point = tree.children[0]
    assert str(point.centre) == "x:3 y:2"
    charts = {child.slice_variable: child for child in point.children}
    assert charts["x"].equation == parse_poly("y^2 - 1", charts["x"].equation.variables)
    assert charts["y"].equation == parse_poly("1 - x^3", charts["y"].equation.variables)
    assert charts["x"].residual_group_order == 2
    assert charts["y"].residual_group_order == 3


def test_invariants_strictly_decrease():
    def walk(node, bound):
        if node.invariant is not None and bound is not None:
            assert lex_compare(node.invariant, bound) < 0
        next_bound = node.invariant if node.invariant is not None else bound
        for child in node.children:
            walk(child, next_bound)

    for name, text in CORPUS + [("two-nodes", "y^2 - x^2*(x - 1)^2")]:
        tree = resolve_plane_curve(parse_poly(text, V2), max_steps=8)
        for point_node in tree.children:
            for chart in point_node.children:
                walk(chart, point_node.invariant)
        assert resolution_is_complete(tree), name


def test_two_singular_points_resolved_independently():
    tree = resolve_plane_curve(parse_poly("y^2 - x^2*(x - 1)^2", V2), max_steps=8)
    assert resolution_is_complete(tree)
    assert len(tree.children) == 2  # one germ per singular point
    assert count_blowups(tree) == 2


def test_squarefree_precondition():
    with pytest.raises(ValueError):
        resolve_plane_curve(parse_poly("(x + y)^2", V2))
    with pytest.raises(ValueError):
        resolve_plane_curve(parse_poly("y^2*(y - x)", V2))


# charts where only one variable occurs: the curve is a union of parallel lines
@pytest.mark.parametrize("text", ["x*(x - 1)", "y^3 - y"])
def test_one_variable_chart_resolves_without_blowups(text):
    tree = resolve_plane_curve(parse_poly(text, V2))
    assert resolution_is_complete(tree)
    assert count_blowups(tree) == 0


@pytest.mark.parametrize("text", ["x^2*(x - 1)", "(y - 1)^2*y"])
def test_one_variable_chart_must_be_squarefree(text):
    with pytest.raises(ValueError, match="must be squarefree"):
        resolve_plane_curve(parse_poly(text, V2))


def test_irrational_singularities_marked_indeterminate():
    tree = resolve_plane_curve(parse_poly("y^2 - (x^2 - 2)^2", V2))
    assert not resolution_is_complete(tree)
    assert any(leaf.status == "indeterminate" for leaf in tree.leaves())


# the invariant (2,2) of these germs is only a lower bound: neither is of the
# form c*u^2 + b(v) after preparation, and their blown-up charts carry (2,4)
# and (2,3)
NON_WEIERSTRASS_SQUARES = [("(y + x)^2 + x^3*y^3", "2,4"), ("(y + x)^2*(1 + y) - x^5", "2,3")]


@pytest.mark.parametrize("text, child", NON_WEIERSTRASS_SQUARES)
def test_invariant_that_does_not_drop_is_refused(text, child):
    with pytest.raises(RefusalError) as caught:
        resolve_plane_curve(parse_poly(text, V2))
    message = str(caught.value)
    assert message.startswith("chart r/0:x: ")
    assert f"({child})" in message and "(2,2)" in message


def test_deterministic_node_ids():
    first = resolve_plane_curve(parse_poly("y^2 - x^3", V2))
    second = resolve_plane_curve(parse_poly("y^2 - x^3", V2))
    assert first.to_dict() == second.to_dict()


# --- centre selection: curves in threefolds ---------------------------------------------

def test_select_31_heisenberg_curve_vanishing():
    # Heisenberg variable x: frame (x, y, z); Heisenberg variable y: the odd
    # frame (y, x, z), whose volume is minus the chart's
    for heis, slot, rest, sign in (("x", (1, 2), "y^2 + z^2", 1),
                                   ("y", (0, 2), "x^2 + z^2", -1)):
        f = parse_poly(rest, V3)
        sigma = (Polyvector(2, V3, {slot: parse_poly(heis, V3) + f})
                 + jacobian_poisson(f * f).scale(sign))
        generators = [parse_poly(heis, V3) + f, f]
        selections = select_centre_31(sigma, generators)
        assert len(selections) == 1
        choice = selections[0]
        assert choice.case == "heis_curve_vanishing"
        assert choice.report.conilpotent
        assert choice.report is choice.certificate.centre_report
        assert choice.centre.exponent_of(heis) == 1


def test_select_31_heisenberg_surface_vanishing():
    f = parse_poly("y^2 + z^2", V3)
    sigma = Polyvector(2, V3, {(1, 2): parse_poly("x", V3) + f})
    generators = [parse_poly("x", V3) + f, parse_poly("y^2 - z^3", V3)]
    selections = select_centre_31(sigma, generators)
    assert len(selections) == 1
    choice = selections[0]
    assert choice.case == "heis_surface_vanishing"
    assert choice.report.conilpotent
    assert choice.report is choice.certificate.centre_report
    # b = multiplicity of the plane curve = 2
    assert str(choice.centre) == "x:1 y:2 z:2"
    # x -> x - (y^2 + z^2) makes the vanishing surface x + y^2 + z^2 = 0 the plane x = 0
    assert choice.coordinate_change == [("x", -f)]


def test_select_31_multiplicity_above_one():
    # a cone curve cut out in degree two: the associated centre applies and
    # is conilpotent because its first two weights sum to at most one
    g = parse_poly("x^2 - y*z", V3)
    h = parse_poly("y^2 - x*z", V3)
    sigma = jacobian_poisson(g * g)
    selections = select_centre_31(sigma, [g, h])
    assert selections[0].case == "a1_gt_1"
    assert str(selections[0].centre) == "x:2 y:2 z:2"
    assert selections[0].report.conilpotent
    assert selections[0].report is selections[0].certificate.centre_report


def test_select_31_abelian_point():
    sigma = parse_polyvector("x^2*@x^@y", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    selections = select_centre_31(sigma, generators)
    assert selections[0].case == "ab_point"
    assert str(selections[0].centre) == "x:1 y:1 z:1"
    assert selections[0].report.conilpotent
    assert selections[0].report is selections[0].certificate.centre_report


def test_select_31_nonnilpotent_terminal():
    sigma = parse_polyvector("x*@x^@y", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    selections = select_centre_31(sigma, generators)
    assert selections[0].case == "terminal_non_nilpotent"
    # no codegenerate centre exists, so there is nothing to certify
    assert selections[0].centre is None
    assert selections[0].report is None
    assert selections[0].certificate is None


def test_select_31_refuses_unrecognised():
    # not tangent to the curve: refused at the tangency check, before any
    # attempt to recognise a normal form
    sigma = parse_polyvector("x*@y^@z + y*@x^@z", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    with pytest.raises(RefusalError, match="not tangent"):
        select_centre_31(sigma, generators)


def test_select_31_refuses_scaled_heisenberg_slot():
    # tangent to the curve, but the Heisenberg slot carries 2*x, not x
    sigma = parse_polyvector("2*x*@y^@z", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    with pytest.raises(RefusalError, match="Heisenberg slot has coefficient 2"):
        select_centre_31(sigma, generators)


# each refusal of the Heisenberg normal form (x + A(y,z)) @y^@z + [volume, B]
@pytest.mark.parametrize("text, message", [
    ("x^2*@y^@z", "not a single Heisenberg slot; found 0 candidates"),
    ("x*@y^@z + y*@x^@z", "not a single Heisenberg slot; found 2 candidates"),
    ("(x + x*y)*@y^@z", "pencil part A depends on the Heisenberg variable"),
    ("(x + y)*@y^@z", "does not vanish to order two"),
    ("x*@y^@z + x^2*@z^@x", "divergence part depends on the Heisenberg variable"),
    ("x*@y^@z + z^2*@z^@x", "not an exact Jacobian bivector"),
])
def test_heisenberg_form_refusals(text, message):
    with pytest.raises(RefusalError, match=message):
        _recognise_heisenberg_form(parse_polyvector(text, V3))


# --- centre selection: surfaces in threefolds ----------------------------------------------

def test_select_32_whitney():
    W = parse_poly("x^2 - y^2*z", V3)
    selections = select_centre_32(jacobian_poisson(W), W)
    assert len(selections) == 1
    choice = selections[0]
    assert choice.case == "inv_233_surface"
    assert str(choice.centre) == "x:1 y:1 z:inf"
    assert choice.report.conilpotent
    assert choice.report is choice.certificate.centre_report
    # the singular line is already the z-axis: no change of coordinates
    assert choice.coordinate_change == []


def test_select_32_sheared_whitney_straightened():
    # singular line x = 0, y = -z: off the axes, so the preparation of the
    # surface class, y -> y - z, moves it onto the z-axis first
    f = parse_poly("x^2 - (y + z)^2*z", V3)
    [choice] = select_centre_32(jacobian_poisson(f), f)
    assert choice.case == "inv_233_surface"
    assert choice.coordinate_change == [("y", parse_poly("-z", V3))]
    assert str(choice.centre) == "x:1 y:1 z:inf"
    assert choice.report.conilpotent
    assert choice.report is choice.certificate.centre_report
    assert choice.certificate.ok()
    straight = parse_poly("x^2 - y^2*z", V3)
    assert choice.sigma == jacobian_poisson(straight)


@pytest.mark.parametrize("text, change", [
    ("x^2 + y^2*z + z^3", []),
    ("x^2 + y^2*z + z^4", []),
    ("x^2 + (y + 2*z)^2*z + z^4", [("y", "-2*z")]),
])
def test_select_32_isolated_type_d_point(text, change):
    # f*J(f) vanishes on the surface, so the D point is not Du Val for the
    # triple; it is selected at the witness centre in the prepared coordinates
    f = parse_poly(text, V3)
    [choice] = select_centre_32(jacobian_poisson(f).scale(f), f)
    assert choice.case == "inv_233_surface"
    assert str(choice.centre) == "x:2 y:3 z:3"
    assert choice.coordinate_change == [(v, parse_poly(s, V3)) for v, s in change]
    assert choice.certificate.ok()


def test_select_32_refuses_type_d_point_without_witness(monkeypatch):
    original = classify.classify_surface

    def without_witness(f):
        surface = original(f)
        surface.witness_centre = None
        return surface

    monkeypatch.setattr(classify, "classify_surface", without_witness)
    f = parse_poly("x^2 + y^2*z + z^3", V3)
    with pytest.raises(RefusalError, match="no witness centre for the D4 point"):
        select_centre_32(jacobian_poisson(f).scale(f), f)


def _moved(f, matrix):
    """f(M x): each variable replaced by its row of M applied to (x, y, z)."""
    rows = [sum((Poly.var(V3, v).scale(a) for v, a in zip(V3, row)), Poly.zero(V3))
            for row in matrix]
    return f.substitute(dict(zip(V3, rows)))


def test_select_32_moved_whitney_umbrellas_are_certified():
    # the class and its preparation do not depend on the coordinates, so
    # every linear move of the Whitney umbrella gets a certified centre
    rng = random.Random(7)
    W = parse_poly("x^2 - y^2*z", V3)
    matrices = []
    while len(matrices) < 25:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(m):
            matrices.append(m)
    for m in matrices:
        f = _moved(W, m)
        [choice] = select_centre_32(jacobian_poisson(f), f)
        assert choice.case == "inv_233_surface", m
        assert choice.certificate.ok(), m


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_select_32_normal_crossings():
    f = parse_poly("x*y", V3)
    sigma = parse_polyvector("x*y*@x^@z", V3)
    selections = select_centre_32(sigma, f)
    choice = selections[0]
    assert choice.case == "generic_assoc"
    assert str(choice.centre) == "x:1 y:1 z:inf"
    assert choice.report.conilpotent
    assert choice.report is choice.certificate.centre_report


def test_select_32_deep_zero_at_ade_point():
    f = parse_poly("x^2 + y^2 + z^3", V3)
    sigma = jacobian_poisson(f).scale(f * f)
    selections = select_centre_32(sigma, f)
    choice = selections[0]
    assert choice.case == "generic_assoc"
    assert choice.report.conilpotent
    assert choice.report is choice.certificate.centre_report
    assert choice.centre.exponents == (F(2), F(2), F(3))


def test_select_32_duval_terminal():
    f = parse_poly("x^2 + y^3 + z^5", V3)
    selections = select_centre_32(jacobian_poisson(f), f)
    assert selections[0].case == "terminal_duval"
    assert selections[0].centre is None
    assert selections[0].report is None
    assert selections[0].certificate is None


# --- step certification -------------------------------------------------------------------------

def test_certify_whitney_step():
    W = parse_poly("x^2 - y^2*z", V3)
    certificate = certify_blowup_step(jacobian_poisson(W), [W],
                                      parse_centre("x:1 y:1 z:inf"))
    assert certificate.ok()
    assert certificate.exceptional_tangent
    assert certificate.sigma_proper_poisson
    assert certificate.sigma_tangent_to_transforms
    assert certificate.invariant_decreased


def test_certify_aborts_on_wrong_centre():
    W = parse_poly("x^2 - y^2*z", V3)
    with pytest.raises(StepAbort) as err:
        certify_blowup_step(jacobian_poisson(W), [W], parse_centre("x:2 y:3 z:3"))
    assert "CD2" in str(err.value) or "CN" in str(err.value)


def test_certify_degenerate_mode_without_bivector():
    certificate = certify_blowup_step(None, [parse_poly("y^2 - x^3", V2)],
                                      Centre.from_exponents(V2, (3, 2)))
    assert certificate.ok()
    assert certificate.sigma_proper_poisson is None
    assert certificate.centre_report is None


def test_certified_selected_centres_for_corpus_triples():
    # every selected centre from the drivers passes the full step certificate
    W = parse_poly("x^2 - y^2*z", V3)
    selection = select_centre_32(jacobian_poisson(W), W)[0]
    certificate = certify_blowup_step(jacobian_poisson(W), [W], selection.centre)
    assert certificate.ok()

    f = parse_poly("y^2 + z^2", V3)
    sigma = (Polyvector(2, V3, {(1, 2): parse_poly("x", V3) + f})
             + jacobian_poisson(f * f))
    generators = [parse_poly("x", V3) + f, f]
    selection = select_centre_31(sigma, generators)[0]
    certificate = certify_blowup_step(sigma, generators, selection.centre)
    assert certificate.centre_report.conilpotent
    assert certificate.lift_regular
    assert certificate.sigma_proper_poisson
