"""Resolution driver, centre selection, and step certification."""

import random
from fractions import Fraction

import pytest

from wblow import blowup as blowup_module
from wblow import classify
from wblow import resolve as resolve_module
from wblow.blowup import (
    check_centre,
    exceptional_name,
    exceptional_singular_points,
    rational_singular_points,
)
from wblow.ring import Poly, parse_poly, resultant
from wblow.polyvector import (
    CoordinateChange,
    Polyvector,
    is_poisson,
    is_tangent,
    jacobian_poisson,
    parse_polyvector,
)
from wblow.centre import Centre, parse_centre
from wblow.invariant import lex_compare, max_monomial_centre
from wblow.resolve import (
    RefusalError,
    StepAbort,
    _is_squarefree,
    _recognise_heisenberg_form,
    certify_blowup_step,
    count_blowups,
    resolution_is_complete,
    resolve_plane_curve,
    select_centre_31,
    select_centre_32,
)

from conftest import V2, V3, random_change, random_nonzero_poly

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


def _squarefree_per_variable(f):
    """The squarefree test by one resultant with the derivative per
    variable, the oracle of the one-resultant ``_is_squarefree``."""
    for name in f.variables:
        derivative = f.diff(name)
        if not derivative.is_zero() and resultant(f, derivative, name).is_zero():
            return False
    return True


def _non_squarefree_products(seed=18, count=1000):
    """Products a^2*b with a nonconstant in both variables, in x alone or in
    y alone, and b nonzero."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        chart = rng.choice([V2, V2, ("x",), ("y",)])
        a = random_nonzero_poly(rng, chart, max_degree=2, max_terms=3)
        if a.total_degree() < 1:
            continue
        a = a.extend_variables(V2)
        out.append(a * a * random_nonzero_poly(rng, V2, max_degree=2, max_terms=3))
    return out


def test_an_uncertain_search_on_every_non_squarefree_product():
    # a certain root search proves squarefreeness, which the resolver relies on
    for f in _non_squarefree_products():
        assert rational_singular_points(f)[1] is False, str(f)
        with pytest.raises(ValueError, match="must be squarefree"):
            resolve_plane_curve(f)


def test_one_resultant_squarefree_test_matches_one_per_variable():
    rng = random.Random(19)
    curves = _non_squarefree_products(seed=20, count=200)
    curves += [random_nonzero_poly(rng, V2, max_degree=4, max_terms=5) for _ in range(400)]
    curves += [random_nonzero_poly(rng, V2, 2, 3) * random_nonzero_poly(rng, V2, 2, 3)
               for _ in range(200)]
    verdicts = [_is_squarefree(f) for f in curves]
    assert verdicts == [_squarefree_per_variable(f) for f in curves]
    assert not any(verdicts[:200]) and sum(verdicts) > 300


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


# the (2,3,3,5) products: the branch crossing off the origin has irrational
# preimages in the origin's charts, off their exceptional divisors
PRODUCTS_2335 = [f"(y^2 - {c1}*x^3)*(y^3 - {c2}*x^5)" for c1 in (3, 5, 7) for c2 in (3, 5, 7)]


def _seeded_curves(seed: int = 17, count: int = 24):
    """Two-branch products (y^a - c*x^b)*(y^a' - c'*x^b') and one-branch
    curves y^a - c*x^b moved by y -> y + d*x^k, k > b/a."""
    rng = random.Random(seed)
    y, x = Poly.var(V2, "y"), Poly.var(V2, "x")
    out = []
    for _ in range(count):
        a, b = rng.choice([(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5)])
        branch = y ** a - x ** b * rng.choice([1, 2, 3, 5, 7])
        if rng.random() < 0.5:
            a2, b2 = rng.choice([(1, 4), (1, 5), (2, 3), (2, 5), (3, 4)])
            out.append(branch * (y ** a2 - x ** b2 * rng.choice([2, 3, 5])))
        else:
            shift = x ** (b // a + 1) * rng.choice([-3, -1, 2, 5])
            out.append(CoordinateChange.shear("y", shift)(branch))
    return out


def _blowup_charts(node):
    """Every chart below a blown-up point, with its exceptional coordinate."""
    for child in node.children:
        if node.centre is not None:
            yield child, exceptional_name(node.centre.variables)
        yield from _blowup_charts(child)


def test_exceptional_search_matches_the_global_one_on_e():
    curves = [parse_poly(text, V2) for _, text in CORPUS]
    curves += [parse_poly(text, V2) for text in PRODUCTS_2335 + ["y^2 - x^2*(x - 1)^2"]]
    curves += [f for f in _seeded_curves() if _is_squarefree(f)]
    equal = superset = 0
    for f in curves:
        for chart, t in _blowup_charts(resolve_plane_curve(f, max_steps=8)):
            on_e, certain = exceptional_singular_points(chart.equation, t)
            found, everywhere = rational_singular_points(chart.equation)
            index = chart.equation.variables.index(t)
            found_on_e = [p for p in found if p[index] == 0]
            if everywhere:
                assert (on_e, certain) == (found_on_e, True), (str(f), chart.chart_id)
                equal += 1
            else:
                assert set(found_on_e) <= set(on_e), (str(f), chart.chart_id)
                superset += 1
    assert equal and superset


@pytest.mark.parametrize("text", PRODUCTS_2335)
def test_products_2335_resolve_completely(text):
    tree = resolve_plane_curve(parse_poly(text, V2))
    assert resolution_is_complete(tree)
    assert count_blowups(tree) == 2
    assert not any(node.notes for node, _ in _blowup_charts(tree))


def _resultants_by_phase(monkeypatch, text):
    """Resultants taken before, inside and after the one global search, for
    the tree of ``text``."""
    phase, counts = ["before"], {"before": 0, "search": 0, "after": 0}

    def counting_resultant(*args):
        counts[phase[0]] += 1
        return resultant(*args)

    def counting_search(f):
        assert phase[0] == "before", "more than one global search"
        phase[0] = "search"
        found = rational_singular_points(f)
        phase[0] = "after"
        return found

    monkeypatch.setattr(resolve_module, "resultant", counting_resultant)
    monkeypatch.setattr(blowup_module, "resultant", counting_resultant)
    monkeypatch.setattr(resolve_module, "rational_singular_points", counting_search)
    tree = resolve_plane_curve(parse_poly(text, V2))
    assert phase[0] == "after"
    return tree, (counts["before"], counts["search"], counts["after"])


def test_one_global_singular_point_search_per_tree(monkeypatch):
    """Only the root chart runs the elimination; blowup charts run none.  A
    certain root search proves the curve squarefree, so its three
    resultants are the only ones; an uncertain one adds the one resultant
    of _is_squarefree."""
    tree, counts = _resultants_by_phase(monkeypatch, "(y^2 - 3*x^3)*(y^3 - 5*x^5)")
    assert resolution_is_complete(tree) and count_blowups(tree) == 2
    assert counts == (0, 3, 0)
    # two parabolas crossing at the irrational points (+-sqrt(2), 0)
    tree, counts = _resultants_by_phase(monkeypatch, "y^2 - (x^2 - 2)^2")
    assert tree.status == "indeterminate" and not tree.children
    assert counts == (0, 3, 1)


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
        choice = select_centre_31(sigma, generators)
        assert choice.case == "heis_curve_vanishing"
        assert choice.certificate.centre_report.conilpotent
        assert choice.centre.exponent_of(heis) == 1


def test_select_31_heisenberg_surface_vanishing():
    f = parse_poly("y^2 + z^2", V3)
    sigma = Polyvector(2, V3, {(1, 2): parse_poly("x", V3) + f})
    generators = [parse_poly("x", V3) + f, parse_poly("y^2 - z^3", V3)]
    choice = select_centre_31(sigma, generators)
    assert choice.case == "heis_surface_vanishing"
    assert choice.certificate.centre_report.conilpotent
    # b = multiplicity of the plane curve = 2
    assert str(choice.centre) == "x:1 y:2 z:2"
    # x -> x - (y^2 + z^2) makes the vanishing surface x + y^2 + z^2 = 0 the plane x = 0
    assert choice.coordinate_change == CoordinateChange.shear("x", -f)


def test_select_31_multiplicity_above_one():
    # a cone curve cut out in degree two: the associated centre applies and
    # is conilpotent because its first two weights sum to at most one
    g = parse_poly("x^2 - y*z", V3)
    h = parse_poly("y^2 - x*z", V3)
    sigma = jacobian_poisson(g * g)
    choice = select_centre_31(sigma, [g, h])
    assert choice.case == "a1_gt_1"
    assert str(choice.centre) == "x:2 y:2 z:2"
    assert choice.certificate.centre_report.conilpotent


def test_select_31_abelian_point():
    sigma = parse_polyvector("x^2*@x^@y", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    choice = select_centre_31(sigma, generators)
    assert choice.case == "ab_point"
    assert str(choice.centre) == "x:1 y:1 z:1"
    assert choice.certificate.centre_report.conilpotent


def test_select_31_nonnilpotent_terminal():
    sigma = parse_polyvector("x*@x^@y", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    choice = select_centre_31(sigma, generators)
    assert choice.case == "terminal_non_nilpotent"
    # no codegenerate centre exists, so there is nothing to certify
    assert choice.centre is None
    assert choice.certificate is None


def test_select_31_refuses_unrecognised():
    # not tangent to the curve: refused at the tangency check, before any
    # attempt to recognise a normal form
    sigma = parse_polyvector("x*@y^@z + y*@x^@z", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    with pytest.raises(RefusalError, match="not tangent"):
        select_centre_31(sigma, generators)


def test_select_31_refuses_undecided_tangency():
    # the curve-vanishing Heisenberg triple sheared by y -> y + 2*x: neither
    # generator is coordinate-like, so tangency is not decided
    f = parse_poly("y^2 + z^2", V3)
    sigma = Polyvector(2, V3, {(1, 2): parse_poly("x", V3) + f}) + jacobian_poisson(f * f)
    move = CoordinateChange.shear("y", parse_poly("2*x", V3))
    with pytest.raises(RefusalError, match="cannot certify tangency"):
        select_centre_31(move(sigma), [move(parse_poly("x", V3) + f), move(f)])


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
    choice = select_centre_32(jacobian_poisson(W), W)
    assert choice.case == "inv_233_surface"
    assert str(choice.centre) == "x:1 y:1 z:inf"
    assert choice.certificate.centre_report.conilpotent
    # the singular line is already the z-axis: no change of coordinates
    assert choice.coordinate_change == CoordinateChange(())


def test_select_32_sheared_whitney_straightened():
    # singular line x = 0, y = -z: off the axes, so the preparation of the
    # surface class, y -> y - z, moves it onto the z-axis first
    f = parse_poly("x^2 - (y + z)^2*z", V3)
    choice = select_centre_32(jacobian_poisson(f), f)
    assert choice.case == "inv_233_surface"
    assert choice.coordinate_change == CoordinateChange.shear("y", parse_poly("-z", V3))
    assert str(choice.centre) == "x:1 y:1 z:inf"
    assert choice.certificate.centre_report.conilpotent
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
    choice = select_centre_32(jacobian_poisson(f).scale(f), f)
    assert choice.case == "inv_233_surface"
    assert str(choice.centre) == "x:2 y:3 z:3"
    assert choice.coordinate_change == sum(
        (CoordinateChange.shear(v, parse_poly(s, V3)) for v, s in change), CoordinateChange(()))
    assert choice.certificate.ok()


def test_select_32_tests_tangency_once(monkeypatch):
    # the Du Val detector's tangency test is the selection's only one on the
    # germ (the step certificate tests the strict transforms), and its
    # refusal is the selection's
    calls = []
    original = classify.is_tangent
    monkeypatch.setattr(classify, "is_tangent",
                        lambda sigma, f: calls.append(f) or original(sigma, f))
    f = parse_poly("x^2 + y^2*z + z^3", V3)
    choice = select_centre_32(jacobian_poisson(f).scale(f), f)
    assert choice.case == "inv_233_surface" and calls.count(f) == 1
    with pytest.raises(RefusalError, match="^bivector is not tangent to the surface$"):
        select_centre_32(parse_polyvector("@x^@y", V3), f)
    assert RefusalError is classify.RefusalError and issubclass(RefusalError, ValueError)


def _record_calls(monkeypatch, owners, name):
    """The argument tuples of every call of ``name`` through the modules ``owners``."""
    calls = []
    original = getattr(owners[0], name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, recording)
    return calls


def _generators(ideal):
    return [ideal] if isinstance(ideal, Poly) else list(ideal)


@pytest.mark.parametrize("text, multiplier", [("x^2 + y^3 + z^7", "f"), ("x^2 - y^2*z", "1")],
                         ids=["E12 with f*J(f)", "Whitney umbrella with J(f)"])
def test_select_32_searches_the_prepared_germ_once(monkeypatch, text, multiplier):
    # classify_surface searches the prepared germ; the selected centre and the
    # certificate's invariant before the step read that one search
    f = parse_poly(text, V3)
    prepared = classify.classify_surface(f).prepared
    sigma = jacobian_poisson(f).scale(f if multiplier == "f" else parse_poly(multiplier, V3))
    calls = _record_calls(monkeypatch, [classify, resolve_module], "max_monomial_centre")
    choice = select_centre_32(sigma, f)
    assert choice.certificate.ok()
    assert [_generators(g) for (g,) in calls].count([prepared]) == 1
    assert choice.certificate.invariant_before == max_monomial_centre(prepared).invariant


def test_select_31_tests_tangency_once_and_searches_the_pair_once(monkeypatch):
    # the selection's tangency test is the only one on the input (the
    # certificate tests the lifted bivector), and its search of the pair is
    # the certificate's invariant before the step
    sigma = parse_polyvector("x^2*@x^@y", V3)
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    tangency = _record_calls(monkeypatch, [classify, resolve_module], "sigma_tangent_to_ideal")
    searches = _record_calls(monkeypatch, [resolve_module], "max_monomial_centre")
    choice = select_centre_31(sigma, generators)
    assert choice.case == "ab_point" and choice.certificate.ok()
    assert sum(bivector.variables == V3 for bivector, _ in tangency) == 1
    assert [_generators(g) for (g,) in searches].count(generators) == 1
    assert str(choice.certificate.invariant_before) == "1,2,3"


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


# 25 invertible integer matrices with entries in -3..3, from one seed
RNG_7 = random.Random(7)
SEEDED_MOVES = [random_change(RNG_7, range(-3, 4), 1) for _ in range(25)]


def test_select_32_moved_whitney_umbrellas_are_certified():
    # the class and its preparation do not depend on the coordinates, so
    # every linear move of the Whitney umbrella gets a certified centre
    W = parse_poly("x^2 - y^2*z", V3)
    for index, move in enumerate(SEEDED_MOVES):
        f = move(W)
        choice = select_centre_32(jacobian_poisson(f), f)
        assert choice.case == "inv_233_surface", index
        assert choice.certificate.ok(), index


def test_select_32_normal_crossings():
    f = parse_poly("x*y", V3)
    sigma = parse_polyvector("x*y*@x^@z", V3)
    choice = select_centre_32(sigma, f)
    assert choice.case == "generic_assoc"
    assert str(choice.centre) == "x:1 y:1 z:inf"
    assert choice.certificate.centre_report.conilpotent


def test_select_32_deep_zero_at_ade_point():
    f = parse_poly("x^2 + y^2 + z^3", V3)
    sigma = jacobian_poisson(f).scale(f * f)
    choice = select_centre_32(sigma, f)
    assert choice.case == "generic_assoc"
    assert choice.certificate.centre_report.conilpotent
    assert choice.centre.exponents == (F(2), F(2), F(3))


def test_select_32_duval_terminal():
    f = parse_poly("x^2 + y^3 + z^5", V3)
    choice = select_centre_32(jacobian_poisson(f), f)
    assert choice.case == "terminal_duval"
    assert choice.centre is None
    assert choice.certificate is None


# the ADE normal forms of the triangular-move draw, in the order drawn
DRAWN_ADE_FORMS = [("A", 1), ("A", 2), ("A", 3), ("A", 6), ("A", 9), ("A", 12),
                   ("D", 4), ("D", 5), ("D", 7), ("D", 10),
                   ("E6", None), ("E7", None), ("E8", None)]


# each ADE form moved six times: x -> x + a*y^2 + b*z^2 + c*y*z, then
# y -> y + d*z^2, with a, b, c, d in -3..3 from one seeded draw
RNG_11 = random.Random(11)
MOVED_ADE_GERMS = [(f"{family}{n or ''}", random_change(RNG_11, range(-3, 4), 2)(
    classify.DUVAL_EQUATIONS[family](n, V3))) for family, n in DRAWN_ADE_FORMS for _ in range(6)]


def test_select_32_triangularly_moved_duval_triples_are_terminal():
    # (J(f), f) is a Du Val point in any coordinates: no class centre has to
    # match, the Jacobian multiple is the certificate
    germs = MOVED_ADE_GERMS
    assert len(germs) == 78
    for label, f in germs:
        choice = select_centre_32(jacobian_poisson(f), f)
        assert choice.case == "terminal_duval", (label, f)


def test_select_32_unit_multiples_on_moved_duval_germs_are_terminal():
    # u*J(f) with u(0) != 0 is the Jacobian structure of f for the volume
    # form dx^dy^dz/u, whether or not a class centre witnesses it
    unit = parse_poly("1 + x + y^2", V3)
    for label, f in MOVED_ADE_GERMS:
        choice = select_centre_32(jacobian_poisson(f).scale(unit), f)
        assert choice.case == "terminal_duval", (label, f)


@pytest.mark.parametrize("text", ["(x + (y + z^2)^2 + z^2 + (y + z^2)*z)^2 + (y + z^2)^2 + z^16",
                                  "x^2 - (y + z^2)^2*z"],
                         ids=["A15 moved", "Whitney umbrella on a parabola"])
def test_select_32_refuses_indeterminate_duval_verdict(text):
    f = parse_poly(text, V3)
    with pytest.raises(RefusalError, match="Du Val verdict indeterminate"):
        select_centre_32(jacobian_poisson(f), f)


def test_select_32_moved_normal_crossings_are_certified():
    # x*y and its shear (x + 2*z)*(y - z) are selected in the prepared
    # coordinates of their class, as every linear move of x*y is
    f = parse_poly("(x + 2*z)*(y - z)", V3)
    choice = select_centre_32(jacobian_poisson(f), f)
    assert choice.case == "generic_assoc" and choice.certificate.ok()
    for index, move in enumerate(SEEDED_MOVES):
        f = move(parse_poly("x*y", V3))
        choice = select_centre_32(jacobian_poisson(f), f)
        assert choice.case == "generic_assoc", index
        assert choice.certificate.ok(), index


# the triple draw: twelve surface germs (A2, A4, D4, D6, E6, E7, E8, E12, a
# J10 germ, the Whitney umbrella, normal crossings and a non-simple germ),
# each unmoved and moved by x -> x + a*(y^2 + z^2 + y*z), then y -> y + a*z^2,
# with the bivector f*J(f) and (1 + x)*J(f)
DRAW_DUVAL = ["x^2 + y^2 + z^3", "x^2 + y^2 + z^5", "x^2 + y^2*z + z^3", "x^2 + y^2*z + z^5",
              "x^2 + y^3 + z^4", "x^2 + y^3 + y*z^3", "x^2 + y^3 + z^5"]
DRAW_OTHER = ["x^2 + y^3 + z^7", "x^2 + y^3 + z^6 + y*z^4", "x^2 - y^2*z", "x*y",
              "x^2 + y^2*z^2 + z^5"]
DRAW_MOVES = (0, 1, 3, -1)
UNIT = "1 + x"


@pytest.fixture(scope="module")
def triple_draw():
    """(germ, a, multiplier) -> the one selection, or the refusal or abort raised."""
    outcomes = {}
    for text in DRAW_DUVAL + DRAW_OTHER:
        for a in DRAW_MOVES:
            move = (CoordinateChange.shear("x", parse_poly("y^2 + z^2 + y*z", V3).scale(a))
                    + CoordinateChange.shear("y", parse_poly("z^2", V3).scale(a)))
            f = move(parse_poly(text, V3))
            for multiplier in ("f", UNIT):
                unit = f if multiplier == "f" else parse_poly(UNIT, V3)
                try:
                    outcomes[text, a, multiplier] = select_centre_32(
                        jacobian_poisson(f).scale(unit), f)
                except (RefusalError, StepAbort) as error:
                    outcomes[text, a, multiplier] = error
    return outcomes


def test_select_32_draw_is_terminal_or_certified(triple_draw):
    # a unit multiple of J(f) on a Du Val germ is terminal in any coordinates
    # (28 of 96); every other triple is certified, or refused where its
    # singular curve is a parabola (moved x*y and Whitney umbrellas with
    # (1 + x)*J(f)); no step aborts
    assert len(triple_draw) == 96
    refused = {"x^2 - y^2*z", "x*y"}
    for (text, a, multiplier), outcome in triple_draw.items():
        assert not isinstance(outcome, StepAbort), (text, a, multiplier, outcome)
        if isinstance(outcome, RefusalError):
            assert text in refused and a and multiplier == UNIT, (text, a, outcome)
            continue
        terminal = text in DRAW_DUVAL and multiplier == UNIT
        assert (outcome.case == "terminal_duval") == terminal, (text, a, multiplier)
        assert terminal or outcome.certificate.ok(), (text, a, multiplier)
    assert sum(isinstance(o, RefusalError) for o in triple_draw.values()) == 6


def test_select_32_draw_cases(triple_draw):
    for a in DRAW_MOVES:
        assert triple_draw["x^2 + y^2 + z^5", a, UNIT].case == "terminal_duval"
        assert triple_draw["x^2 + y^2 + z^3", a, "f"].case == "generic_assoc"
    # moved E12 is prepared to x:2 y:3 z:6, not its class centre x:2 y:3 z:7:
    # the residual curve needs its own Tschirnhausen shift
    for a in DRAW_MOVES[1:]:
        for multiplier in ("f", UNIT):
            assert str(triple_draw["x^2 + y^3 + z^7", a, multiplier].centre) == "x:2 y:3 z:6"


# --- step certification -------------------------------------------------------------------------

def test_certify_whitney_step():
    W = parse_poly("x^2 - y^2*z", V3)
    certificate = certify_blowup_step(jacobian_poisson(W), [W], parse_centre("x:1 y:1 z:inf"),
                                      max_monomial_centre(W).invariant)
    assert certificate.ok()
    assert certificate.exceptional_tangent
    assert certificate.invariant_decreased


def test_certify_aborts_on_wrong_centre():
    W = parse_poly("x^2 - y^2*z", V3)
    with pytest.raises(StepAbort) as err:
        certify_blowup_step(jacobian_poisson(W), [W], parse_centre("x:2 y:3 z:3"),
                            max_monomial_centre(W).invariant)
    assert "CD2" in str(err.value) or "CN" in str(err.value)


def test_certify_aborts_on_a_lift_that_is_not_poisson():
    # conilpotent at the point centre, but [sigma, sigma] != 0, and so is the
    # bracket of the lift
    sigma = parse_polyvector("y^2*@y^@z + x^2*@x^@y", V3)
    centre, f = parse_centre("x:1 y:1 z:1"), parse_poly("z", V3)
    assert check_centre(sigma, centre).conilpotent and not is_poisson(sigma)[0]
    with pytest.raises(StepAbort, match="^lifted bivector is no longer Poisson$"):
        certify_blowup_step(sigma, [f], centre, max_monomial_centre(f).invariant)


def test_certify_aborts_off_the_strict_transform():
    # a Poisson bivector conilpotent at the point centre, with {x, y} = z^2
    # not in (x): its lift is not tangent to the strict transform of x = 0
    sigma = parse_polyvector("z^2*@x^@y", V3)
    centre, f = parse_centre("x:1 y:1 z:1"), parse_poly("x", V3)
    assert check_centre(sigma, centre).conilpotent and is_poisson(sigma)[0]
    assert not is_tangent(sigma, f)
    with pytest.raises(StepAbort, match="^lifted bivector not tangent to the strict transform$"):
        certify_blowup_step(sigma, [f], centre, max_monomial_centre(f).invariant)


def test_certify_degenerate_mode_without_bivector():
    cusp = parse_poly("y^2 - x^3", V2)
    certificate = certify_blowup_step(None, [cusp], Centre.from_exponents(V2, (3, 2)),
                                      max_monomial_centre(cusp).invariant)
    assert certificate.ok()
    assert certificate.exceptional_tangent is None
    assert certificate.centre_report is None


def test_certified_selected_centres_for_corpus_triples():
    # every selected centre from the drivers passes the full step certificate
    W = parse_poly("x^2 - y^2*z", V3)
    selection = select_centre_32(jacobian_poisson(W), W)
    certificate = certify_blowup_step(jacobian_poisson(W), [W], selection.centre,
                                      max_monomial_centre(W).invariant)
    assert certificate.ok()

    f = parse_poly("y^2 + z^2", V3)
    sigma = (Polyvector(2, V3, {(1, 2): parse_poly("x", V3) + f})
             + jacobian_poisson(f * f))
    generators = [parse_poly("x", V3) + f, f]
    selection = select_centre_31(sigma, generators)
    certificate = certify_blowup_step(sigma, generators, selection.centre,
                                      max_monomial_centre(generators).invariant)
    assert certificate.centre_report.conilpotent
