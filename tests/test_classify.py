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
    _prepare,
    binary_cubic_type,
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
    # a single random integer shear must not change the class
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


def test_classify_exact_invariants():
    # the invariant comes from the class, not from a monomial lower bound;
    # D5 keeps (2,3,3) although its exponents (2,8/3,4) sort lex below it
    for text, invariant, witness in [
            ("x*y", "2,2", "x:2 y:2 z:inf"),
            ("x^2 + y^2 + z^2", "2,2,2", "x:2 y:2 z:2"),
            ("x^2 + y^2 + z^4", "2,2,4", "x:2 y:2 z:4"),
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
        + [parse_poly("x^2 - y^2*z", V3)]
    for f in forms:
        assert classify_surface(f).preparation == [], f


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


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _random_gl3(rng):
    """An invertible rational matrix with some entry outside -3..3."""
    entries = (-5, -4, 4, 5, F(-1, 2), -1, 0, 0, 1, 1, 2)
    while True:
        m = [[F(rng.choice(entries)) for _ in range(3)] for _ in range(3)]
        if _det3(m) != 0 and any(abs(e) > 3 for row in m for e in row):
            return m


def _linear_change(f, m):
    images = {V3[i]: sum((Poly.var(V3, V3[j]).scale(m[i][j]) for j in range(3)),
                         Poly.zero(V3))
              for i in range(3)}
    return f.substitute(images)


ADE_FORMS = ([("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
             + [(e, None) for e in ("E6", "E7", "E8")])


@pytest.mark.parametrize("family, n", ADE_FORMS,
                         ids=[f"{family}{n or ''}" for family, n in ADE_FORMS])
def test_duval_forms_under_random_linear_change(family, n):
    label = f"{family}{n or ''}"
    g = _linear_change(DUVAL_EQUATIONS[family](n, V3), _random_gl3(random.Random(label)))
    report = detect_duval_point(jacobian_poisson(g), g, ORIGIN)
    assert report.surface_class.label() == label
    assert report.duval is True


@pytest.mark.parametrize("text, label", [("x^2 - y^2*z", "whitney_umbrella"),
                                         ("x*y", "normal_crossings_2")])
@pytest.mark.parametrize("seed", range(3))
def test_non_isolated_forms_under_random_linear_change(text, label, seed):
    # the singular line moves off the integer directions; the preparation
    # straightens it onto an axis, where the line certificate finds it
    g = _linear_change(parse_poly(text, V3), _random_gl3(random.Random(f"{label}{seed}")))
    result = classify_surface(g)
    assert result.label() == label
    assert result.milnor == "unbounded"


def _quasi_homogeneous_weights(f):
    """Weights w with sum w_i e_i = 1 on the three support monomials (Cramer)."""
    rows = [list(map(F, e)) for e in sorted(f.terms)]
    return [_det3([row[:i] + [F(1)] + row[i + 1:] for row in rows]) / _det3(rows)
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
    # one reduction per degree of the schedule 6, 12, 13 at the default
    # bound, however late the germ stabilises (A1 needs no stabilisation)
    label = f"{family}{n or ''}"
    g = _linear_change(DUVAL_EQUATIONS[family](n, V3), _random_gl3(random.Random(label)))
    calls = _count_stabilisations(monkeypatch)
    degrees = _count_reductions(monkeypatch)
    result = classify_surface(g)
    assert len(calls) == (label != "A1")
    assert degrees == [6, 12, 13][:len(degrees)] and len(degrees) >= len(calls)
    if (family, n) in BEYOND_THE_BOUND:
        assert result.milnor == "indeterminate" and degrees == [6, 12, 13]
    else:
        assert result.milnor == (n or int(family[1]))


@pytest.mark.parametrize("scale", [1, F(-3, 2)])
def test_duval_isolatedness_read_from_the_milnor_verdict(monkeypatch, scale):
    # sigma = c*J(f): its zero is the critical locus of f, so the Milnor
    # verdict of classify_surface decides isolatedness; one stabilisation
    # runs instead of two, and the report is the one the second gave
    g = _linear_change(DUVAL_EQUATIONS["D"](12, V3), _random_gl3(random.Random("D12")))
    calls = _count_stabilisations(monkeypatch)
    degrees = _count_reductions(monkeypatch)
    report = detect_duval_point(jacobian_poisson(g).scale(scale), g, ORIGIN)
    assert len(calls) == 1 and degrees == [6, 12]
    assert report.surface_class.label() == "D12"
    assert report.surface_class.milnor == 12
    assert report.isolated_sigma_zero is True
    assert report.duval is True
    assert str(report.duval_witness_centre) == "x:2 y:11/5 z:11"
    assert report.diagnostics == []


def test_duval_isolatedness_of_other_bivectors_is_stabilised(monkeypatch):
    # a unit times J(f) is not a constant multiple: its zero set is tested
    f = parse_poly("x^2 + y^2 + z^3", V3)
    calls = _count_stabilisations(monkeypatch)
    report = detect_duval_point(jacobian_poisson(f).scale(parse_poly("1 + x", V3)), f, ORIGIN)
    assert len(calls) == 2
    assert report.isolated_sigma_zero is True and report.duval is True


def test_duval_isolatedness_follows_unbounded_and_indeterminate_milnor():
    whitney = parse_poly("x^2 - y^2*z", V3)
    report = detect_duval_point(jacobian_poisson(whitney), whitney, ORIGIN)
    assert report.surface_class.milnor == "unbounded"
    assert report.isolated_sigma_zero is False and report.duval is False
    a13 = parse_poly("x^2 + y^2 + z^14", V3)
    report = detect_duval_point(jacobian_poisson(a13), a13, ORIGIN)
    assert report.surface_class.milnor == "indeterminate"
    assert report.duval is None
    assert report.diagnostics == ["isolatedness of the bivector zero is indeterminate"]


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
    _, _, morse, root_type = _prepare(f)

    symbols = sympy.symbols("x y z")
    expression = sympy.sympify(str(f).replace("^", "**"), locals=dict(zip(V3, symbols)))
    hessian = sympy.hessian(expression, symbols).subs(dict.fromkeys(symbols, 0))
    assert len(morse) == hessian.rank()
    if hessian.rank() != 1:
        assert root_type is None
        return
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
