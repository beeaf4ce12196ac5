"""Milnor numbers, isolatedness, surface classes, triple detectors, normal forms."""

import random
from fractions import Fraction

import pytest

import wblow.classify as classify_module
from wblow.ring import Poly, parse_poly
from wblow.polyvector import (
    ABELIAN,
    HEISENBERG,
    SPLIT_NONABELIAN,
    CoordinateChange,
    Polyvector,
    jacobian_poisson,
    parse_polyvector,
)
from wblow.centre import Centre
from wblow.classify import (
    DOUBLE_ROOT,
    DISTINCT_ROOTS,
    DUVAL_EQUATIONS,
    TRIPLE_ROOT,
    ZERO_CUBIC,
    _diagonalise,
    _prepare,
    binary_cubic_type,
    classify_surface,
    class_exponents,
    detect_duval_point,
    detect_nonnilpotent_point,
    _integer_parts,
    _rational_line_directions,
    _vanishes_on_line,
    is_isolated_singularity,
    line_in_zero_locus,
    local_quotient_dimension,
    milnor_number,
    verify_normal_form,
)

from conftest import V2, V3, det, linear_change, random_change, random_poly

F = Fraction
ORIGIN = (F(0),) * 3


# --- Milnor numbers -----------------------------------------------------------

def _staircase_count(powers):
    """Oracle for monomial Jacobian ideals: count monomials outside (x^a, y^b, z^c)."""
    a, b, c = powers
    return sum(1 for i in range(a) for j in range(b) for k in range(c))


def test_milnor_a_series_against_staircase_oracle():
    # f = x^2 + y^2 + z^(n+1): Jacobian ideal is the monomial ideal (x, y, z^n)
    for n in range(1, 6):
        f = (parse_poly("x^2 + y^2", V3) + Poly.var(V3, "z") ** (n + 1))
        assert milnor_number(f) == _staircase_count((1, 1, n)) == n


def test_milnor_e8():
    # Jacobian ideal (x, y^2, z^4) is monomial: staircase count 1*2*4 = 8
    f = parse_poly("x^2 + y^3 + z^5", V3)
    assert milnor_number(f) == _staircase_count((1, 2, 4)) == 8


def test_milnor_classical_values():
    # A19 and D16 are isolated, but the default degree bound cannot certify
    # their Milnor numbers and no line certificate exists: indeterminate
    for text, expected in [("x^2 + y^2*z + z^3", 4), ("x^2 + y^2*z + z^4", 5),
                           ("x^2 + y^2*z + z^7", 8), ("x^2 + y^3 + z^4", 6),
                           ("x^2 + y^3 + y*z^3", 7),
                           ("x^2 + y^2 + z^20", "indeterminate"),
                           ("x^2 + y^2*z + z^15", "indeterminate")]:
        assert milnor_number(parse_poly(text, V3)) == expected


def test_milnor_nonisolated_unbounded():
    assert milnor_number(parse_poly("x^2 - y^2*z", V3)) == "unbounded"


def test_milnor_invariant_under_linear_substitution(rng):
    f = parse_poly("x^2 + y^3 + z^4", V3)
    expected = 6
    for _ in range(6):
        assert milnor_number(random_change(rng, range(-2, 3), 1)(f)) == expected


def test_quotient_dimension_unit_ideal():
    assert local_quotient_dimension([Poly.const(V3, 1)], 5) == 0


# --- isolatedness ---------------------------------------------------------------

def test_isolatedness():
    assert is_isolated_singularity(parse_poly("x^2 + y^2*z + z^3", V3)) is True
    assert is_isolated_singularity(parse_poly("x^2 - y^2*z", V3)) is False
    assert is_isolated_singularity(parse_poly("x*y", V3)) is False
    for text in ("x^2 + y^2 + z^20", "x^2 + y^2*z + z^15"):
        assert is_isolated_singularity(parse_poly(text, V3)) == "indeterminate"


# --- surface classification ---------------------------------------------------------

CLASS_TABLE = [
    ("x + y^2", "smooth"),
    ("x*y", "normal_crossings_2"),
    ("x^2 - y^2*z", "whitney_umbrella"),
    ("x^2 + y^2 + z^2", "A1"),
    ("x^2 + y^2 + z^4", "A3"),
    ("x^2 + y^2*z + z^3", "D4"),
    ("x^2 + y^2*z + z^4", "D5"),
    ("x^2 + y^3 + z^4", "E6"),
    ("x^2 + y^3 + y*z^3", "E7"),
    ("x^2 + y^3 + z^5", "E8"),
    ("x^2 + y^3 + z^6", "other"),
    ("x^3 + y^3 + z^3", "other"),
]


def test_classify_table():
    for text, expected in CLASS_TABLE:
        assert classify_surface(parse_poly(text, V3)).label() == expected, text


def test_classify_stable_under_catalogue_shears(rng):
    # a single random integer shear must not change the class
    targets = [("x^2 + y^2 + z^4", "A3"), ("x^2 + y^3 + z^4", "E6"),
               ("x^2 + y^3 + z^5", "E8"), ("x^2 + y^2*z + z^4", "D5"),
               ("x^2 - y^2*z", "whitney_umbrella")]
    for text, expected in targets:
        f = parse_poly(text, V3)
        for _ in range(4):
            source, target = rng.sample(V3, 2)
            c = rng.choice([1, -1, 2, -2, 3, -3])
            sheared = CoordinateChange.shear(source, Poly.var(V3, target).scale(c))(f)
            assert classify_surface(sheared).label() == expected, (text, source, c)


def test_classify_hidden_square():
    # (x + y^2)^2 + z^3 is a cuspidal edge, not in the small list
    f = parse_poly("(x + y^2)^2 + z^3", V3)
    assert classify_surface(f).label() == "other"


def test_classify_exact_invariants():
    # the invariant comes from the class, not from a monomial lower bound;
    # D5 keeps (2,3,3) although its exponents (2,8/3,4) sort lex below it
    for text, invariant, witness in [
            ("x*y", "2,2", "x:2 y:2 z:inf"),
            ("x^2 + y^2 + z^2", "2,2,2", "x:2 y:2 z:2"),
            ("x^2 + y^2 + z^4", "2,2,4", "x:2 y:2 z:4"),
            ("x*y + z^7", "2,2,7", "x:2 y:2 z:7"),
            ("x^2 + y^2*z + z^4", "2,3,3", "x:2 y:3 z:3"),
            ("x^2 - y^2*z", "2,3,3", "x:2 y:3 z:3"),
            ("x^2 + y^3 + y*z^3", "2,3,9/2", "x:2 y:3 z:9/2")]:
        result = classify_surface(parse_poly(text, V3))
        assert str(result.invariant) == invariant, text
        assert str(result.witness_centre) == witness, text


def test_classify_prepares_normal_forms_by_the_identity():
    forms = [DUVAL_EQUATIONS["A"](n, V3) for n in (1, 2, 5)] \
        + [DUVAL_EQUATIONS["D"](n, V3) for n in (4, 5, 9)] \
        + [DUVAL_EQUATIONS[e](None, V3) for e in ("E6", "E7", "E8")] \
        + [parse_poly(text, V3) for text in ("x^2 - y^2*z", "x*y", "x*y + z^4")]
    for f in forms:
        assert classify_surface(f).preparation == CoordinateChange(()), f


def test_classify_witness_withheld_below_exact_invariant():
    # an A5 germ whose square cannot be completed in one step (the x^3 term):
    # the monomial centre of the prepared form only reaches (2,2,4)
    result = classify_surface(parse_poly("(x + z^2)^2 + y^2 + z^10 + x^3", V3))
    assert result.label() == "A5" and str(result.invariant) == "2,2,6"
    assert result.witness_centre is None
    assert result.diagnostics == [
        "no monomial centre of the prepared form reaches (2,2,6): best (2,2,4)"]


@pytest.mark.parametrize("text, label", [
    ("x^2 + (y + 7*z)^3 + z^5", "E8"),
    ("x^2 + (2*y + 3*z)^3 + z^5", "E8"),
    ("x^2 + (y + 7*z)^3 + z^4", "E6"),
    ("x^2 + (y + 7*z)^3 + (y + 7*z)*z^3", "E7"),
])
def test_classify_off_catalogue_e_germs(text, label):
    # linear changes outside the integer shears -3..3 once read as type D
    f = parse_poly(text, V3)
    report = detect_duval_point(jacobian_poisson(f), f, ORIGIN)
    assert report.surface_class.label() == label
    assert report.surface_class.invariant.entries == class_exponents(label)
    assert report.duval is True


# a linear change with some entry outside -3..3, seeded per test
GL3_ENTRIES = (-5, -4, 4, 5, F(-1, 2), -1, 0, 0, 1, 1, 2)


ADE_FORMS = ([("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
             + [(e, None) for e in ("E6", "E7", "E8")])


@pytest.mark.parametrize("family, n", ADE_FORMS,
                         ids=[f"{family}{n or ''}" for family, n in ADE_FORMS])
def test_duval_forms_under_random_linear_change(family, n):
    label = f"{family}{n or ''}"
    g = random_change(random.Random(label), GL3_ENTRIES, 1)(DUVAL_EQUATIONS[family](n, V3))
    report = detect_duval_point(jacobian_poisson(g), g, ORIGIN)
    assert report.surface_class.label() == label
    assert report.duval is True


@pytest.mark.parametrize("text, label", [("x^2 - y^2*z", "whitney_umbrella"),
                                         ("x*y", "normal_crossings_2")])
@pytest.mark.parametrize("seed", range(3))
def test_non_isolated_forms_under_random_linear_change(text, label, seed):
    # the singular line moves off the integer directions; the preparation
    # straightens it onto an axis, where the line certificate finds it
    g = random_change(random.Random(f"{label}{seed}"), GL3_ENTRIES, 1)(parse_poly(text, V3))
    result = classify_surface(g)
    assert result.label() == label
    assert result.milnor == "unbounded"


def _quasi_homogeneous_weights(f):
    """Weights w with sum w_i e_i = 1 on the three support monomials (Cramer)."""
    rows = [list(map(F, e)) for e in sorted(f.terms)]
    return [det([row[:i] + [F(1)] + row[i + 1:] for row in rows]) / det(rows)
            for i in range(3)]


@pytest.mark.parametrize("family, n", ADE_FORMS,
                         ids=[f"{family}{n or ''}" for family, n in ADE_FORMS])
def test_milnor_orlik_formula(family, n):
    # Milnor-Orlik: a quasi-homogeneous isolated germ of weights w has
    # mu = prod(1/w_i - 1)
    f = DUVAL_EQUATIONS[family](n, V3)
    mu = 1
    for w in _quasi_homogeneous_weights(f):
        mu *= 1 / w - 1
    assert milnor_number(f) == mu
    result = classify_surface(f)
    assert result.milnor == mu
    assert result.label() == f"{family}{n or ''}"
    assert (result.index or int(family[1])) == mu


def test_binary_cubic_types():
    V = ("v", "w")
    for text, kind, factor in [("0", ZERO_CUBIC, None), ("v^3 - v*w^2", DISTINCT_ROOTS, None),
                               ("v^2*w", DOUBLE_ROOT, (2, 0)), ("v*w^2", DOUBLE_ROOT, (0, 1)),
                               ("(v + 2*w)^3", TRIPLE_ROOT, (3, 6)), ("w^3", TRIPLE_ROOT, (0, 1)),
                               ("v^3 + w^3", DISTINCT_ROOTS, None)]:
        assert binary_cubic_type(parse_poly(text, V)) == (kind, factor), text


def test_classify_requires_vanishing():
    with pytest.raises(ValueError):
        classify_surface(parse_poly("1 + x", V3))


# --- triple detectors -----------------------------------------------------------------

def test_nonnilpotent_detection():
    generators = [parse_poly("x", V3), parse_poly("y^2 - z^3", V3)]
    split = detect_nonnilpotent_point(parse_polyvector("x*@x^@y", V3),
                                      generators, ORIGIN)
    assert split.lie_class == SPLIT_NONABELIAN and split.non_nilpotent
    heis = detect_nonnilpotent_point(parse_polyvector("x*@y^@z", V3),
                                     generators, ORIGIN)
    assert heis.lie_class == HEISENBERG and not heis.non_nilpotent
    flat = detect_nonnilpotent_point(parse_polyvector("x^2*@x^@y", V3),
                                     generators, ORIGIN)
    assert flat.lie_class == ABELIAN and not flat.non_nilpotent


def test_nonnilpotent_requires_tangency():
    generators = [parse_poly("y", V3), parse_poly("x^2 - z^3", V3)]
    with pytest.raises(ValueError):
        detect_nonnilpotent_point(parse_polyvector("x*@x^@y", V3),
                                  generators, ORIGIN)


def test_nonnilpotent_refuses_a_bivector_not_tangent():
    # {x, y} = x is not in (y, x^2 - z^3): a refusal, as in detect_duval_point
    generators = [parse_poly("y", V3), parse_poly("x^2 - z^3", V3)]
    with pytest.raises(classify_module.RefusalError,
                       match="^the bivector is not tangent to the subvariety$"):
        detect_nonnilpotent_point(parse_polyvector("x*@x^@y", V3), generators, ORIGIN)


def test_duval_detection_on_families():
    for family, n in (("A", 1), ("A", 2), ("A", 3), ("D", 4), ("D", 5),
                      ("E6", None), ("E7", None), ("E8", None)):
        f = DUVAL_EQUATIONS[family](n, V3)
        report = detect_duval_point(jacobian_poisson(f), f, ORIGIN)
        assert report.duval is True, (family, n)
        assert report.isolated_sigma_zero


def test_duval_with_unit_factor():
    f = parse_poly("x^2 + y^2 + z^2", V3)
    sigma = jacobian_poisson(f).scale(parse_poly("1 + x", V3))
    report = detect_duval_point(sigma, f, ORIGIN)
    assert report.duval is True
    assert report.duval_witness_centre is not None
    assert report.duval_witness_centre.exponents == (F(2), F(2), F(2))


@pytest.mark.parametrize("scale", [1, F(-3, 2)])
@pytest.mark.parametrize("text, label", [("x^2 + (y + z^2)^2*z + z^6", "D7"),
                                         ("(x + z^2)^2 + y^2 + z^10 + x^3", "A5")])
def test_duval_jacobian_multiple_needs_no_class_centre(scale, text, label):
    # at no permutation of the class exponents is the prepared form of order
    # one, but c*J(f) is the Jacobian structure of c*f in any coordinates
    f = parse_poly(text, V3)
    report = detect_duval_point(jacobian_poisson(f).scale(scale), f, ORIGIN)
    assert report.surface_class.label() == label
    assert report.duval is True and report.isolated_sigma_zero is True
    assert report.duval_witness_centre is None
    assert report.diagnostics == []


def test_duval_negative_cases():
    whitney = parse_poly("x^2 - y^2*z", V3)
    report = detect_duval_point(jacobian_poisson(whitney), whitney, ORIGIN)
    assert report.duval is False and report.isolated_sigma_zero is False
    crossings = parse_poly("x*y", V3)
    report = detect_duval_point(jacobian_poisson(crossings), crossings, ORIGIN)
    assert report.duval is False


# x -> x + y^2 + z^2 + y*z, then y -> y + z^2
MOVE = (CoordinateChange.shear("x", parse_poly("y^2 + z^2 + y*z", V3))
        + CoordinateChange.shear("y", parse_poly("z^2", V3)))


def test_duval_unit_multiple_without_class_centre():
    # moved A4 is prepared to the centre x:2 y:2 z:4, where no permutation of
    # the class exponents (2, 2, 5) has order one; (1 + x)*J(f) is the
    # Jacobian structure of f for the volume form dx^dy^dz/(1 + x)
    f = MOVE(DUVAL_EQUATIONS["A"](4, V3))
    report = detect_duval_point(jacobian_poisson(f).scale(parse_poly("1 + x", V3)), f, ORIGIN)
    assert report.surface_class.label() == "A4" and report.surface_class.witness_centre is None
    assert report.duval is True and report.duval_witness_centre is None
    assert report.diagnostics == []


def test_duval_unmatched_bivector_is_not_certified_either_way():
    # J(f) + f*J(x), the bivector of the 1-form df + f*dx = e^-x*d(e^x*f), is
    # Jacobian for the equation e^x*f, which no polynomial test sees: on the
    # normal form its class centre is the witness; after the move neither a
    # class centre nor a unit multiple matches, and the verdict is None
    x = Poly.var(V3, "x")
    f = DUVAL_EQUATIONS["A"](4, V3)
    report = detect_duval_point(jacobian_poisson(f) + jacobian_poisson(x).scale(f), f, ORIGIN)
    assert report.duval is True and str(report.duval_witness_centre) == "x:2 y:2 z:5"
    f = MOVE(f)
    report = detect_duval_point(jacobian_poisson(f) + jacobian_poisson(x).scale(f), f, ORIGIN)
    assert report.isolated_sigma_zero is True and report.surface_class.label() == "A4"
    assert report.duval is None and report.duval_witness_centre is None
    assert report.diagnostics == ["no class centre matches the leading term of the "
                                  "bivector, which is no unit multiple of J(f)"]


def test_duval_zero_bivector_has_no_isolated_zero():
    f = DUVAL_EQUATIONS["A"](2, V3)
    report = detect_duval_point(Polyvector(2, V3, {}), f, ORIGIN)
    assert report.isolated_sigma_zero is False and report.duval is False
    assert report.prepared_sigma.is_zero()


def test_duval_away_from_origin():
    f = parse_poly("(x - 1)^2 + y^2 + z^3", V3)
    sigma = jacobian_poisson(f)
    report = detect_duval_point(sigma, f, (F(1), F(0), F(0)))
    assert report.duval is True


def _count_stabilisations(monkeypatch):
    calls = []
    original = classify_module.local_dimension_is_zero

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classify_module, "local_dimension_is_zero", counting)
    return calls


def _count_reductions(monkeypatch):
    degrees = []
    original = classify_module._local_dimensions

    def counting(generators, degree):
        degrees.append(degree)
        return original(generators, degree)

    monkeypatch.setattr(classify_module, "_local_dimensions", counting)
    return degrees


BEYOND_THE_BOUND = [("A", 13), ("D", 14)]


@pytest.mark.parametrize("family, n", ADE_FORMS + BEYOND_THE_BOUND,
                         ids=[f"{family}{n or ''}" for family, n in ADE_FORMS + BEYOND_THE_BOUND])
def test_stabilisation_runs_at_most_three_reductions(monkeypatch, family, n):
    # one reduction per degree of the schedule 6, 13 at the default bound,
    # however late the germ stabilises: the doubled degree 12 is within a
    # quarter of the cap 13, so the schedule goes straight to the cap
    # instead of reducing at 12 and again at 13
    label = f"{family}{n or ''}"
    g = random_change(random.Random(label), GL3_ENTRIES, 1)(DUVAL_EQUATIONS[family](n, V3))
    calls = _count_stabilisations(monkeypatch)
    degrees = _count_reductions(monkeypatch)
    mu = milnor_number(g)
    assert len(calls) == 1
    assert degrees == [6, 13][:len(degrees)] and len(degrees) >= 1
    if (family, n) in BEYOND_THE_BOUND:
        assert mu == "indeterminate" and degrees == [6, 13]
    else:
        assert mu == (n or int(family[1]))


@pytest.mark.parametrize("scale", [1, F(-3, 2)])
def test_duval_isolatedness_read_from_the_milnor_verdict(monkeypatch, scale):
    # sigma = c*J(f): its zero is the critical locus of f, so the Milnor
    # verdict of classify_surface decides isolatedness; one stabilisation
    # runs instead of two, and the report is the one the second gave.  The
    # moved D12 misses its class centres, so classify_surface stabilises,
    # past degree 6, at the schedule's next degree, the cap 13
    g = MOVE(DUVAL_EQUATIONS["D"](12, V3))
    calls = _count_stabilisations(monkeypatch)
    degrees = _count_reductions(monkeypatch)
    report = detect_duval_point(jacobian_poisson(g).scale(scale), g, ORIGIN)
    assert len(calls) == 1 and degrees == [6, 13]
    assert report.surface_class.label() == "D12"
    assert report.surface_class.milnor == 12
    assert report.isolated_sigma_zero is True
    assert report.duval is True
    assert report.duval_witness_centre is None
    assert report.diagnostics == []
    # the linearly changed D12 is certified by its principal part, with no
    # stabilisation at all, and its class centre is the witness
    g = random_change(random.Random("D12"), GL3_ENTRIES, 1)(DUVAL_EQUATIONS["D"](12, V3))
    report = detect_duval_point(jacobian_poisson(g).scale(scale), g, ORIGIN)
    assert len(calls) == 1 and report.surface_class.milnor == 12
    assert report.duval is True and str(report.duval_witness_centre) == "x:2 y:11/5 z:11"


@pytest.mark.parametrize("text, steps, morse, diagonal", [
    ("x*y", [], ["x", "y"], "x*y"),
    ("y*z - x*y", [("z", "x")], ["y", "z"], "y*z"),
    ("x*y + x*z + 2*y*z", [("y", "-1/2*x"), ("z", "-1/2*x")], ["y", "z", "x"],
     "2*y*z - 1/2*x^2"),
])
def test_diagonalise_hyperbolic_pivot(text, steps, morse, diagonal):
    # a form with no square keeps its cross term c*v*w; v and w absorb the
    # other cross terms and both become Morse coordinates
    q = parse_poly(text, V3)
    got_steps, got_morse = _diagonalise(q)
    assert got_steps == sum((CoordinateChange.shear(v, parse_poly(s, V3)) for v, s in steps),
                            CoordinateChange(()))
    assert got_morse == morse
    assert got_steps(q) == parse_poly(diagonal, V3)


@pytest.mark.parametrize("seed", range(40))
def test_diagonalise_forms_without_squares(seed):
    # every cross term of the result joins two Morse coordinates that occur
    # nowhere else, and the number of Morse coordinates is the rank of q
    rng = random.Random(seed)
    coefficients = [rng.randint(-3, 3) for _ in range(3)]
    q = sum((Poly.var(V3, v) * Poly.var(V3, w)).scale(c)
            for (v, w), c in zip((("x", "y"), ("x", "z"), ("y", "z")), coefficients))
    if q.is_zero():
        return
    change, morse = _diagonalise(q)
    q = change(q)
    for exponent in q.nums:
        if max(exponent) == 1:
            pair = {i for i, e in enumerate(exponent) if e}
            assert all(not pair & {i for i, e in enumerate(other) if e}
                       for other in q.nums if other != exponent)
    # a nonzero symmetric matrix with zero diagonal has rank 2 or 3: rank one
    # would make it +-v*v^T, whose diagonal v_i^2 vanishes only for v = 0
    a, b, c = coefficients
    rank = 3 if det([[0, a, b], [a, 0, c], [b, c, 0]]) else 2
    assert len(morse) == rank and sorted(morse) == sorted(set(morse))


def test_duval_isolatedness_of_other_bivectors_is_stabilised(monkeypatch):
    # a unit times J(f) vanishes where J(f) does near the origin, so the
    # Milnor verdict of classify_surface is the one stabilisation; moved A4
    # misses its class centres, so classify_surface stabilises
    f = MOVE(DUVAL_EQUATIONS["A"](4, V3))
    calls = _count_stabilisations(monkeypatch)
    report = detect_duval_point(jacobian_poisson(f).scale(parse_poly("1 + x", V3)), f, ORIGIN)
    assert len(calls) == 1
    assert report.isolated_sigma_zero is True and report.duval is True


def test_duval_isolatedness_follows_unbounded_and_indeterminate_milnor():
    whitney = parse_poly("x^2 - y^2*z", V3)
    report = detect_duval_point(jacobian_poisson(whitney), whitney, ORIGIN)
    assert report.surface_class.milnor == "unbounded"
    assert report.isolated_sigma_zero is False and report.duval is False
    a15 = MOVE(DUVAL_EQUATIONS["A"](15, V3))
    report = detect_duval_point(jacobian_poisson(a15), a15, ORIGIN)
    assert report.surface_class.milnor == "indeterminate"
    assert report.duval is None
    assert report.diagnostics == ["isolatedness of the bivector zero is indeterminate"]


@pytest.mark.parametrize("family, n", [("A", 2), ("A", 4), ("E6", None)])
@pytest.mark.parametrize("power", [1, 2])
def test_duval_bivector_divisible_by_f_has_no_isolated_zero(monkeypatch, family, n, power):
    # f^k*J(f) vanishes on the surface f = 0 through the point: f divides
    # every coefficient, which certifies a non-isolated zero with no
    # stabilisation
    f = DUVAL_EQUATIONS[family](n, V3)
    calls = _count_stabilisations(monkeypatch)
    report = detect_duval_point(jacobian_poisson(f).scale(f ** power), f, ORIGIN)
    assert report.duval is False and report.isolated_sigma_zero is False
    assert report.diagnostics == [] and calls == []


# --- mu from the quasi-homogeneous principal part ------------------------------------------

SCALINGS = (1, -1, 2, -2, F(1, 2), F(-1, 2), F(2, 3), F(-3, 2))


def _moved(rng, base, weights, allowed=0):
    """base with random nonzero rational coefficients, one to three monomials
    above its weighted order (of degree at least ``allowed`` in x and y), a
    variable permutation with scalings and, for most, one integer shear of a
    variable of degree at most 4, as the classify benchmark draws them."""
    terms = {e: rng.choice(SCALINGS) for e in base.nums}
    for _ in range(rng.randint(1, 3)):
        while True:
            e = tuple(rng.randint(0, 5) for _ in V3)
            if (sum(e) <= 5 and e[0] + e[1] >= allowed
                    and 1 < sum(w * k for w, k in zip(weights, e)) <= 2):
                terms[e] = rng.choice(SCALINGS)
                break
    order = rng.sample(V3, 3)
    scales = [rng.choice(SCALINGS) for _ in V3]
    g = linear_change([[s * (w == v) for w in V3] for v, s in zip(order, scales)])(Poly(V3, terms))
    sources = [v for v in V3 if g.degree_in(v) <= 4]
    if sources and rng.random() < 0.75:
        source = rng.choice(sources)
        target = rng.choice([v for v in V3 if v != source])
        g = CoordinateChange.shear(source, Poly.var(V3, target).scale(
            rng.choice((1, -1, 2, -2))))(g)
    return g


WIDE_ADE_FORMS = ([("A", n) for n in range(2, 41)] + [("D", n) for n in range(4, 41)]
                  + [(e, None) for e in ("E6", "E7", "E8")])


@pytest.mark.parametrize("family, n", WIDE_ADE_FORMS,
                         ids=[f"{family}{n or ''}" for family, n in WIDE_ADE_FORMS])
def test_principal_part_and_local_algebra_agree(family, n):
    # two routes to mu: the principal part of the prepared germ, and the
    # local algebra of the same germ wherever the default bound certifies it
    label = f"{family}{n or ''}"
    mu = n or int(family[1])
    rng = random.Random(f"principal {label}")
    weights = [1 / a for a in class_exponents(family, n)]
    for _ in range(2):
        g = _moved(rng, DUVAL_EQUATIONS[family](n, V3), weights)
        result = classify_surface(g)
        assert (result.label(), result.milnor) == (label, mu), g
        if mu <= 10:
            assert milnor_number(result.prepared) == mu, g


@pytest.mark.parametrize("text, label, mu", [
    ("x^2 + y^2 + x*z^3 + y*z^3 + z^6", "A5", 5),
    ("x^2 - y^2*z + x*y^2", "whitney_umbrella", "unbounded"),
    ("(x + 2*z)^2 - y^2*z", "whitney_umbrella", "unbounded"),
    ("x*y + x^3", "normal_crossings_2", "unbounded"),
    ("(x + 2*z)*(y - z)", "normal_crossings_2", "unbounded"),
    ("x^2 + y^3 + z^7", "other", 12),
], ids=["two weight-one cross terms", "Whitney", "Whitney sheared", "crossings",
        "crossings sheared", "E12"])
def test_germs_off_the_normal_forms_reach_the_local_algebra(monkeypatch, text, label, mu):
    # one square completion leaves y*z^3 at the centre x:2 y:2 z:6; the
    # non-isolated germs and E12 have no normal form among A, D and E
    calls = _count_stabilisations(monkeypatch)
    result = classify_surface(parse_poly(text, V3))
    assert (result.label(), result.milnor) == (label, mu)
    assert len(calls) == 1


@pytest.mark.parametrize("family, n", [("A", 15), ("D", 16)])
def test_moved_germs_beyond_the_bound_stay_indeterminate(monkeypatch, family, n):
    # x -> x + y^2 + z^2 + y*z, then y -> y + z^2: the preparation misses
    # the class centre, and the local algebra exhausts its bound
    calls = _count_stabilisations(monkeypatch)
    result = classify_surface(MOVE(DUVAL_EQUATIONS[family](n, V3)))
    assert (result.label(), result.milnor) == ("other", "indeterminate")
    assert len(calls) == 1


def _workload_like_germs(seed, count):
    """(label, germ): A2-A15, D4-D16, E6-E8, Whitney umbrellas and crossings,
    moved as in ``_moved``; the higher monomials of the last two lie in
    (x, y)^2 and (x, y)^3, which keeps their singular line."""
    rng = random.Random(seed)
    families = [("A", (2, 15)), ("D", (4, 16)), ("E6", None), ("E7", None), ("E8", None),
                ("whitney", None), ("nc", None)]
    for _ in range(count):
        family, span = rng.choice(families)
        n = rng.randint(*span) if span else None
        if family == "whitney":
            label, base, allowed = "whitney_umbrella", parse_poly("x^2 - y^2*z", V3), 2
            weights = (F(1, 2), F(1, 3), F(1, 3))
        elif family == "nc":
            label, base, allowed = "normal_crossings_2", parse_poly("x*y", V3), 3
            weights = (F(1, 2), F(1, 2), F(0))
        else:
            label, base, allowed = f"{family}{n or ''}", DUVAL_EQUATIONS[family](n, V3), 0
            weights = tuple(1 / a for a in class_exponents(family, n))
        yield label, _moved(rng, base, weights, allowed)


def test_ade_germs_skip_the_local_algebra(monkeypatch):
    # deterministic counts behind the classify throughput: no local algebra
    # on A/D/E germs, while the non-isolated germs still find their line
    degrees = _count_reductions(monkeypatch)
    searches = []
    original = classify_module.line_in_zero_locus
    monkeypatch.setattr(classify_module, "line_in_zero_locus",
                        lambda generators: searches.append(1) or original(generators))
    germs = list(_workload_like_germs("principal counts", 100))
    non_isolated = sum(label in ("whitney_umbrella", "normal_crossings_2") for label, _ in germs)
    assert 0 < non_isolated < 100
    for label, g in germs:
        found = len(searches)
        assert classify_surface(g).label() == label, g
        if label in ("whitney_umbrella", "normal_crossings_2"):
            assert len(searches) == found + 1
        else:
            assert len(searches) == found
    assert degrees == []


def test_d_series_uses_its_own_exponents():
    # the type-D quasi-homogeneity exponents differ from the invariant
    assert class_exponents("D", 5) == (F(2), F(8, 3), F(4))
    f = DUVAL_EQUATIONS["D"](5, V3)
    centre = Centre.from_exponents(V3, class_exponents("D", 5))
    assert centre.ord_poly(f) == 1
    assert centre.leading_term_poly(f) == f


# --- normal forms --------------------------------------------------------------------------

def test_split_log_family():
    for k in (1, 2, 3):
        for lam in (0, 1):
            report = verify_normal_form("split_log", k=k, lam=lam, cap=9)
            assert report.ok, (k, lam, report.checks)


def test_split_log_cap_too_small():
    report = verify_normal_form("split_log", k=3, lam=1, cap=4)
    assert not report.ok and not report.checks
    assert any("cap" in note for note in report.notes)


def test_heisenberg_pencil_family():
    f = parse_poly("y^2 + z^2", V3)
    instances = [
        {"f": f, "a_coefficients": [1], "b_coefficients": []},
        {"f": f, "a_coefficients": [1], "b_coefficients": [0, 1]},
        {"f": parse_poly("y^2 + z^3", V3), "a_coefficients": [0, 1],
         "b_coefficients": [0, 0, 2]},
    ]
    for params in instances:
        report = verify_normal_form("heisenberg_pencil", cap=9, **params)
        assert report.ok, (params, report.checks)


def test_pencil_series_refused_before_expanding():
    # the 11th power of a 9-term pencil of degree 4 in y and in z may have
    # up to 45^2 = 2025 terms
    f = parse_poly("y^2 + y*z + z^2 + y^3 + z^3 + y^2*z + y*z^2 + y^4 + z^4", V3)
    with pytest.raises(ValueError, match="2025 terms exceeds the limit 1000"):
        verify_normal_form("heisenberg_pencil", f=f, b_coefficients=[0] * 10 + [1])
    report = verify_normal_form("heisenberg_pencil", f=f, b_coefficients=[0, 1])
    assert report.ok, report.checks


def test_whitney_family():
    for coefficients in ([1], [0, 1]):
        report = verify_normal_form("whitney_family", cap=9,
                                    a_coefficients=coefficients)
        assert report.ok, report.checks


def test_duval_family_normal_forms():
    unit = parse_poly("1 + x", V3)
    for family, n in (("A", 1), ("A", 2), ("D", 4),
                      ("E6", None), ("E7", None), ("E8", None)):
        report = verify_normal_form("duval_family", cap=9, family=family,
                                    n=n, unit=unit)
        assert report.ok, (family, n, report.checks)


@pytest.mark.parametrize("variables", [V2, V3], ids=["2 vars", "3 vars"])
@pytest.mark.parametrize("seed", range(8))
def test_line_restriction_matches_substitution(variables, seed):
    # oracle: restrict g to the line by substituting v -> s*d_v
    rng = random.Random(seed)
    s = Poly.var(("s",), "s")
    directions = list(_rational_line_directions(len(variables)))
    g = random_poly(rng, variables)
    # g times a linear form vanishing on a chosen catalogue direction, so
    # that some directions give a hit
    d = rng.choice(directions)
    x = [Poly.var(variables, v) for v in variables]
    form = sum((x[i].scale(d[j]) - x[j].scale(d[i])).scale(rng.randint(1, 3))
               for i in range(len(variables)) for j in range(i + 1, len(variables)))
    for h in (g, g * form):
        on_lines = []
        for direction in directions:
            images = {v: s.scale(e) for v, e in zip(variables, direction)}
            on_line = h.substitute(images).is_zero()
            assert _vanishes_on_line(_integer_parts(h), direction) == on_line
            if on_line:
                on_lines.append(direction)
        expected = on_lines[0] if on_lines and not h.is_zero() else None
        assert line_in_zero_locus([h]) == expected


# --- the determinator's jets against sympy ---------------------------------------------------

def _random_linear(rng):
    return sum((Poly.var(V3, v).scale(rng.randint(-3, 3)) for v in V3), Poly.zero(V3))


def _random_cubic(rng, kind):
    L, M, N = _random_linear(rng), _random_linear(rng), _random_linear(rng)
    return {"product": L * M * N, "double": L * L * M, "triple": L ** 3, "zero": Poly.zero(V3),
            "random": Poly(V3, {e: c for e, c in random_poly(rng, V3, 3, 12).terms.items()
                                if sum(e) == 3})}[kind]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", ["product", "double", "triple", "zero", "random"])
@pytest.mark.parametrize("rank", range(4))
def test_determinator_jets_against_sympy(rank, kind, seed):
    # a 2-jet of at most the given rank, a cubic of the given shape, and
    # random higher terms
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"{rank}{kind}{seed}")
    quadratic = sum((_random_linear(rng) ** 2).scale(rng.choice((1, -1, 2)))
                    for _ in range(rank))
    cubic = _random_cubic(rng, kind)
    higher = Poly(V3, {e: c for e, c in random_poly(rng, V3, 5, 6).terms.items()
                       if sum(e) >= 4})
    f = quadratic + cubic + higher
    if f.is_zero() or f.min_total_degree() < 2:
        return
    prepared, _, roles, rank, root_type = _prepare(f)
    assert sorted(roles) == list(V3)

    symbols = sympy.symbols("x y z")
    expression = sympy.sympify(str(f).replace("^", "**"), locals=dict(zip(V3, symbols)))
    hessian = sympy.hessian(expression, symbols).subs(dict.fromkeys(symbols, 0))
    assert rank == hessian.rank()
    if hessian.rank() != 1:
        assert root_type is None
        return
    # the prepared cubic on the kernel has its multiple factor on role y
    x, y = (V3.index(v) for v in roles[:2])
    on_kernel = [e for e in prepared.nums if sum(e) == 3 and e[x] == 0]
    least = {DOUBLE_ROOT: 2, TRIPLE_ROOT: 3}.get(root_type, 0)
    assert all(e[y] >= least for e in on_kernel)
    # restrict the cubic part to the kernel, parametrised by s*k1 + t*k2
    s, t = sympy.symbols("s t")
    k1, k2 = hessian.nullspace()
    point = dict(zip(symbols, [s * a + t * b for a, b in zip(k1, k2)]))
    cubic_part = sympy.Add(*[c * sympy.prod(v ** e for v, e in zip(symbols, m))
                             for m, c in sympy.Poly(expression, *symbols).terms()
                             if sum(m) == 3])
    binary = sympy.expand(cubic_part.subs(point, simultaneous=True))
    if binary == 0:
        assert root_type == ZERO_CUBIC
        return
    multiplicity = max(m for _, m in sympy.factor_list(binary, s, t)[1])
    assert root_type == {1: DISTINCT_ROOTS, 2: DOUBLE_ROOT, 3: TRIPLE_ROOT}[multiplicity]
    for u, v in ((s, t), (t, s)):
        dehomogenised = sympy.Poly(binary.subs(v, 1), u)
        if dehomogenised.degree() == 3:
            assert (sympy.discriminant(dehomogenised) != 0) == (root_type == DISTINCT_ROOTS)


@pytest.mark.parametrize("seed", range(12))
def test_binary_cubic_factor_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    V = ("v", "w")
    L = Poly(V, {(1, 0): rng.randint(-4, 4), (0, 1): rng.randint(-4, 4)})
    M = Poly(V, {(1, 0): rng.randint(-4, 4), (0, 1): rng.randint(-4, 4)})
    N = Poly(V, {(1, 0): rng.randint(-4, 4), (0, 1): rng.randint(-4, 4)})
    cubic = (L * M * N, L * L * M, L ** 3)[seed % 3]
    if cubic.is_zero():
        return
    kind, factor = binary_cubic_type(cubic)
    v, w = sympy.symbols("v w")
    expression = sympy.sympify(str(cubic).replace("^", "**"), locals={"v": v, "w": w})
    multiplicity = max(m for _, m in sympy.factor_list(expression, v, w)[1])
    assert kind == {1: DISTINCT_ROOTS, 2: DOUBLE_ROOT, 3: TRIPLE_ROOT}[multiplicity]
    if factor is not None:
        linear = factor[0] * v + factor[1] * w
        assert sympy.rem(expression, linear ** multiplicity, v) == 0
