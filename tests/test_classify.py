"""Milnor numbers, isolatedness, surface classes, triple detectors, normal forms."""

import random
from fractions import Fraction

import pytest

from wblow.ring import Poly, parse_poly
from wblow.polyvector import (
    ABELIAN,
    HEISENBERG,
    SPLIT_NONABELIAN,
    jacobian_poisson,
    parse_polyvector,
)
from wblow.centre import Centre
from wblow.classify import (
    DUVAL_EQUATIONS,
    classify_surface,
    class_exponents,
    detect_duval_point,
    detect_nonnilpotent_point,
    _rational_line_directions,
    _vanishes_on_line,
    is_isolated_singularity,
    line_in_zero_locus,
    local_quotient_dimension,
    milnor_number,
    verify_normal_form,
)

from conftest import V2, V3, random_poly

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
        while True:
            rows = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                   - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                   + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
            if det != 0:
                break
        images = {
            V3[i]: sum((Poly.var(V3, V3[j]).scale(rows[i][j]) for j in range(3)),
                       Poly.zero(V3))
            for i in range(3)}
        assert milnor_number(f.substitute(images)) == expected


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
    # a single random integer shear from the preparation catalogue must not
    # change the class (A and E rows; D rows recovered via the Milnor number)
    targets = [("x^2 + y^2 + z^4", "A3"), ("x^2 + y^3 + z^4", "E6"),
               ("x^2 + y^3 + z^5", "E8"), ("x^2 + y^2*z + z^4", "D5"),
               ("x^2 - y^2*z", "whitney_umbrella")]
    for text, expected in targets:
        f = parse_poly(text, V3)
        for _ in range(4):
            source, target = rng.sample(V3, 2)
            c = rng.choice([1, -1, 2, -2, 3, -3])
            image = Poly.var(V3, source) + Poly.var(V3, target).scale(c)
            sheared = f.substitute({source: image})
            assert classify_surface(sheared).label() == expected, (text, source, c)


def test_classify_hidden_square():
    # (x + y^2)^2 + z^3 is a cuspidal edge, not in the small list
    f = parse_poly("(x + y^2)^2 + z^3", V3)
    assert classify_surface(f).label() == "other"


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


def test_duval_negative_cases():
    whitney = parse_poly("x^2 - y^2*z", V3)
    report = detect_duval_point(jacobian_poisson(whitney), whitney, ORIGIN)
    assert report.duval is False and report.isolated_sigma_zero is False
    crossings = parse_poly("x*y", V3)
    report = detect_duval_point(jacobian_poisson(crossings), crossings, ORIGIN)
    assert report.duval is False


def test_duval_away_from_origin():
    f = parse_poly("(x - 1)^2 + y^2 + z^3", V3)
    sigma = jacobian_poisson(f)
    report = detect_duval_point(sigma, f, (F(1), F(0), F(0)))
    assert report.duval is True


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
            assert _vanishes_on_line(h, direction) == on_line
            if on_line:
                on_lines.append(direction)
        expected = on_lines[0] if on_lines and not h.is_zero() else None
        assert line_in_zero_locus([h]) == expected
