"""Acceptance criteria, one test per criterion, printing a PASS line each.

Every expected value is exact (rational arithmetic); the timing budgets are
the stated ones.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from fractions import Fraction

from wblow.ring import INF, Poly, parse_poly
from wblow.polyvector import (
    ABELIAN,
    HEISENBERG,
    SPLIT_NONABELIAN,
    Polyvector,
    jacobian_poisson,
    linearize,
    parse_polyvector,
    schouten,
)
from wblow.centre import Centre, parse_centre
from wblow.blowup import check_centre, check_lift, pullback_polyvector
from wblow.invariant import (
    InvariantSeq,
    VALID,
    canonical_numerics,
    lex_compare,
    max_monomial_centre,
    validate_invariant,
)
from wblow.classify import (
    DUVAL_EQUATIONS,
    classify_surface,
    detect_duval_point,
    milnor_number,
    verify_normal_form,
)
from wblow.resolve import (
    count_blowups,
    resolution_is_complete,
    resolve_plane_curve,
)

from conftest import V2, V3, random_change, random_nonzero_poly, random_poly, undo

F = Fraction
WHITNEY_SIGMA = "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y"


def report(number: int, description: str):
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_valuation_suite():
    centre = parse_centre("x:2 y:3 z:inf")
    unweighted = parse_centre("x:1 y:1 z:inf")
    x5 = parse_poly("x^5", V3)
    mixed = parse_poly("x^2*y^4*z^5", V3)
    total = parse_poly("x^5 + x^2*y^4*z^5", V3)
    centre.ord_poly(x5)  # warm-up outside the timed region
    checks = [
        (centre, x5, F(5, 2)),
        (centre, total, F(7, 3)),
        (unweighted, x5, F(5)),
        (unweighted, mixed, F(6)),
    ]
    for c, f, expected in checks:
        start = time.perf_counter()
        value = c.ord_poly(f)
        elapsed = time.perf_counter() - start
        assert value == expected
        assert elapsed < 1e-3, f"order took {elapsed * 1e3:.3f} ms"
    assert unweighted.ord_poly(total) == F(5)
    report(1, "orders 5/2, 7/3 weighted and 5, 6 unweighted, each under 1 ms")


def test_criterion_2_whitney_order_table():
    sigma = parse_polyvector(WHITNEY_SIGMA, V3)
    W = parse_poly("x^2 - y^2*z", V3)
    start = time.perf_counter()
    point = parse_centre("x:1 y:1 z:1")
    axis = parse_centre("x:1 y:1 z:inf")
    weighted = parse_centre("x:2 y:3 z:3")
    assert point.ord_polyvector(sigma) == F(-1)
    assert axis.ord_polyvector(sigma) == F(0)
    assert weighted.ord_polyvector(sigma) == F(-1, 6)
    assert point.leading_term(sigma) == parse_polyvector("2*x*@y^@z", V3)
    assert axis.leading_term(sigma) == sigma
    assert weighted.leading_term(sigma) == sigma
    assert point.leading_term(W) == parse_poly("x^2", V3)
    assert axis.leading_term(W) == W
    assert weighted.leading_term(W) == W
    elapsed = time.perf_counter() - start
    assert elapsed < 10e-3, f"order table took {elapsed * 1e3:.1f} ms"
    report(2, "Whitney orders -1, 0, -1/6 and leading terms, under 10 ms")


def test_criterion_3_lifting_verdicts():
    sigma = parse_polyvector(WHITNEY_SIGMA, V3)
    axis = check_centre(sigma, parse_centre("x:1 y:1 z:inf"))
    assert axis.conilpotent is True
    point = check_centre(sigma, parse_centre("x:1 y:1 z:1"))
    assert point.codegenerate is False
    weighted = check_centre(sigma, parse_centre("x:2 y:3 z:3"))
    assert weighted.codegenerate is False
    witnesses = [w for w in weighted.witnesses if w.tag == "CD2"]
    assert len(witnesses) == 1
    assert witnesses[0].combination == parse_poly("x^2 - y^2*z", V3)
    assert witnesses[0].offending == F(1) and witnesses[0].required == F(7, 6)
    report(3, "conilpotent axis; point and (2,3,3) non-codegenerate, CD2 witness W")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(424242)

    def random_polyvector(variables):
        degree = rng.randint(0, len(variables))
        terms = {}
        for indices in itertools.combinations(range(len(variables)), degree):
            if rng.random() < 0.8:
                coeff = random_poly(rng, variables, max_degree=4)
                if not coeff.is_zero():
                    terms[indices] = coeff
        return Polyvector(degree, tuple(variables), terms)

    def random_centre(variables):
        exponents = []
        for _ in variables:
            if rng.random() < 0.25:
                exponents.append(INF)
            else:
                exponents.append(F(rng.randint(1, 6), rng.randint(1, 4)))
        if all(e is INF for e in exponents):
            exponents[rng.randrange(len(exponents))] = F(1)
        return Centre.from_exponents(tuple(variables), exponents)

    start = time.perf_counter()
    pairs = 0
    while pairs < 200:
        variables = V3[:rng.randint(1, 3)]
        centre = random_centre(variables)
        xi = random_polyvector(variables)
        lift = check_lift(xi, centre)
        pulled = pullback_polyvector(xi, centre)
        assert lift.lift_ok == pulled.regular, (str(xi), str(centre))
        if lift.lift_ok:
            assert lift.exceptional_tangent == pulled.exceptional_tangent
        pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"oracle suite took {elapsed:.1f} s"
    report(4, f"200 randomized lift/pullback pairs agree in {elapsed:.2f} s")


def test_criterion_5_table_reproduction():
    start = time.perf_counter()
    rows = [
        ("x*y", (F(2), F(2)), F(1)),
        ("x^2 - y^2*z", (F(2), F(3), F(3)), F(7, 6)),
        ("x^2 + y^2 + z^2", (F(2), F(2), F(2)), F(3, 2)),
        ("x^2 + y^2*z + z^3", (F(2), F(3), F(3)), F(7, 6)),
        ("x^2 + y^3 + z^4", (F(2), F(3), F(4)), F(13, 12)),
        ("x^2 + y^3 + y*z^3", (F(2), F(3), F(9, 2)), F(19, 18)),
        ("x^2 + y^3 + z^5", (F(2), F(3), F(5)), F(31, 30)),
    ]
    for text, entries, kappa in rows:
        result = max_monomial_centre(parse_poly(text, V3))
        assert result.invariant.finite_entries() == entries, text
        assert result.invariant.kappa(3) == kappa, text
    assert classify_surface(parse_poly("x^2 - y^2*z", V3)).kind == "whitney_umbrella"
    assert classify_surface(parse_poly("x^2 + y^2*z + z^3", V3)).label() == "D4"
    for n in range(1, 6):
        f = parse_poly("x^2 + y^2", V3) + Poly.var(V3, "z") ** (n + 1)
        assert milnor_number(f) == n
    assert milnor_number(parse_poly("x^2 + y^2*z + z^3", V3)) == 4
    assert milnor_number(parse_poly("x^2 + y^3 + z^4", V3)) == 6
    assert milnor_number(parse_poly("x^2 + y^3 + y*z^3", V3)) == 7
    assert milnor_number(parse_poly("x^2 + y^3 + z^5", V3)) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"table suite took {elapsed:.1f} s"
    report(5, f"all seven rows, isolatedness split, Milnor numbers in {elapsed:.2f} s")


def test_criterion_6_trichotomy_enumeration():
    start = time.perf_counter()
    grid = sorted({F(p, q) for q in range(1, 7) for p in range(1, 12 * q + 1)})
    checked = 0

    def valid_extensions(prefix, length):
        nonlocal checked
        if len(prefix) == length:
            sequence = InvariantSeq(tuple(prefix))
            if prefix[0] > 1:
                canonical_numerics(sequence)  # asserts the three agree
                checked += 1
            return
        start_value = prefix[-1] if prefix else grid[0]
        for value in grid:
            if value < start_value:
                continue
            candidate = prefix + [value]
            if validate_invariant(InvariantSeq(tuple(candidate))).status == VALID:
                valid_extensions(candidate, length)

    for length in (2, 3):
        valid_extensions([], length)
    elapsed = time.perf_counter() - start
    assert checked > 200
    assert elapsed < 60, f"enumeration took {elapsed:.1f} s"
    report(6, f"trichotomy agrees on {checked} valid sequences in {elapsed:.2f} s")


def test_criterion_7_constraint_examples():
    grid = sorted({F(p, q) for q in range(1, 7) for p in range(1, 12 * q + 1)})
    for a1 in grid:
        status = validate_invariant(InvariantSeq((a1,))).status
        assert (status == VALID) == (a1.denominator == 1), a1
    for a in grid:
        if a < 2:
            continue
        status = validate_invariant(InvariantSeq((F(2), F(2), a))).status
        assert (status == VALID) == (a.denominator == 1), a
    allowed = {a for a in grid if a >= 3 and (a.denominator == 1 or (2 * a) % 3 == 0)}
    for a in grid:
        if a < 3:
            continue
        status = validate_invariant(InvariantSeq((F(2), F(3), a))).status
        assert (status == VALID) == (a in allowed), a
    assert validate_invariant(InvariantSeq.parse("2,3,11/2")).status != VALID
    assert validate_invariant(InvariantSeq.parse("2,3,9/2")).status == VALID
    assert validate_invariant(InvariantSeq.parse("2,3,15/2")).status == VALID
    report(7, "first entry integral, 2-prefix integral, 2,3-prefix in Z or (3/2)Z")


def test_criterion_8_power_scaling():
    cusp = parse_poly("y^2 - x^3", V2)
    e6 = parse_poly("x^2 + y^3 + z^4", V3)
    for f, base in ((cusp, (F(2), F(3))), (e6, (F(2), F(3), F(4)))):
        for k in (1, 2, 3):
            entries = max_monomial_centre(f ** k).invariant.finite_entries()
            assert entries == tuple(k * b for b in base), (k, entries)
    report(8, "exponent sequences of f, f^2, f^3 scale by k for cusp and E6")


def test_criterion_9_plane_curve_resolution():
    start = time.perf_counter()
    curves = ["y^2 - x^2", "y^2 - x^3", "y^2 - x^4", "y^2 - x^5", "y^3 - x^5"]
    for text in curves:
        tree = resolve_plane_curve(parse_poly(text, V2))
        assert resolution_is_complete(tree), text
        assert count_blowups(tree) <= 4, text
        # strict lex decrease along every edge of the chart tree

        def walk(node, bound):
            if node.invariant is not None and bound is not None:
                assert lex_compare(node.invariant, bound) < 0, text
            next_bound = node.invariant if node.invariant is not None else bound
            for child in node.children:
                walk(child, next_bound)

        for germ in tree.children:
            for chart in germ.children:
                walk(chart, germ.invariant)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"resolution suite took {elapsed:.1f} s"
    report(9, f"five curves resolve with descending invariants in {elapsed:.2f} s")


def test_criterion_10_normal_form_verification():
    for k in (1, 2, 3):
        for lam in (0, 1):
            result = verify_normal_form("split_log", k=k, lam=lam)
            assert result.ok, (k, lam, result.checks)
    f = parse_poly("y^2 + z^2", V3)
    pencil_instances = [
        {"f": f, "a_coefficients": [1], "b_coefficients": []},
        {"f": f, "a_coefficients": [1], "b_coefficients": [0, 1]},
        {"f": parse_poly("y^2 + z^3", V3), "a_coefficients": [0, 1],
         "b_coefficients": [0, 0, 2]},
    ]
    for params in pencil_instances:
        result = verify_normal_form("heisenberg_pencil", **params)
        assert result.ok, result.checks
    for coefficients in ([1], [0, 1]):  # A(W) = W and W^2
        result = verify_normal_form("whitney_family", a_coefficients=coefficients)
        assert result.ok, result.checks
    unit = parse_poly("1 + x", V3)
    for family, n in (("A", 1), ("A", 2), ("D", 4),
                      ("E6", None), ("E7", None), ("E8", None)):
        result = verify_normal_form("duval_family", family=family, n=n, unit=unit)
        assert result.ok, (family, result.checks)
    report(10, "split_log, heisenberg_pencil, whitney_family, duval_family verified exactly")


def test_criterion_11_triple_detectors():
    rng = random.Random(1111)
    origin = (F(0),) * 3
    models = [("x*@x^@y", SPLIT_NONABELIAN), ("x*@y^@z", HEISENBERG),
              ("x^2*@x^@y", ABELIAN)]
    for text, expected in models:
        sigma = parse_polyvector(text, V3)
        _, lie_class = linearize(sigma, origin)
        assert lie_class == expected
        for _ in range(20):
            moved = undo(random_change(rng, range(-3, 4), 1))(sigma)
            _, lie_class = linearize(moved, origin)
            assert lie_class == expected
    for family, n in (("A", 1), ("A", 3), ("D", 4), ("D", 5),
                      ("E6", None), ("E7", None), ("E8", None)):
        f = DUVAL_EQUATIONS[family](n, V3)
        assert detect_duval_point(jacobian_poisson(f), f, origin).duval is True
    for text in ("x^2 - y^2*z", "x*y"):
        f = parse_poly(text, V3)
        assert detect_duval_point(jacobian_poisson(f), f, origin).duval is False
    report(11, "Table-2 classes stable under 20 basis changes; Du Val rows exact")


def test_criterion_12_property_suites():
    rng = random.Random(121212)
    start = time.perf_counter()

    def random_polyvector(degree):
        terms = {}
        for indices in itertools.combinations(range(3), degree):
            if rng.random() < 0.8:
                coeff = random_poly(rng, V3, max_degree=2)
                if not coeff.is_zero():
                    terms[indices] = coeff
        return Polyvector(degree, V3, terms)

    def random_centre(allow_infinite=True):
        exponents = []
        for _ in V3:
            if allow_infinite and rng.random() < 0.2:
                exponents.append(INF)
            else:
                exponents.append(F(rng.randint(1, 5), rng.randint(1, 3)))
        if all(e is INF for e in exponents):
            exponents[0] = F(1)
        return Centre.from_exponents(V3, exponents)

    # graded Jacobi with degree sums <= 4
    checked = 0
    while checked < 500:
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        if a + b + c > 4:
            continue
        xi, eta, zeta = (random_polyvector(d) for d in (a, b, c))
        left = schouten(xi, schouten(eta, zeta))
        sign = 1 if ((a - 1) * (b - 1)) % 2 == 0 else -1
        right = schouten(schouten(xi, eta), zeta) + schouten(
            eta, schouten(xi, zeta)).scale(sign)
        assert left == right
        checked += 1

    # valuation axioms
    for _ in range(500):
        centre = random_centre()
        f = random_nonzero_poly(rng, V3)
        g = random_nonzero_poly(rng, V3)
        assert centre.ord_poly(f * g) == centre.ord_poly(f) + centre.ord_poly(g)
        if not (f + g).is_zero():
            bound = min(centre.ord_poly(f), centre.ord_poly(g))
            assert centre.ord_poly(f + g) >= bound
            if centre.ord_poly(f) != centre.ord_poly(g):
                assert centre.ord_poly(f + g) == bound

    # order additivity of the bracket
    checked = 0
    while checked < 500:
        centre = random_centre(allow_infinite=False)
        xi = random_polyvector(rng.randint(1, 2))
        eta = random_polyvector(rng.randint(1, 2))
        if xi.is_zero() or eta.is_zero():
            continue
        bracket = schouten(xi, eta)
        if bracket.is_zero():
            continue
        assert centre.ord_polyvector(bracket) >= \
            centre.ord_polyvector(xi) + centre.ord_polyvector(eta)
        checked += 1

    # leading-term multiplicativity
    for _ in range(500):
        centre = random_centre(allow_infinite=False)
        f = random_nonzero_poly(rng, V3)
        g = random_nonzero_poly(rng, V3)
        assert centre.leading_term_poly(f * g) == \
            centre.leading_term_poly(f) * centre.leading_term_poly(g)

    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"property suites took {elapsed:.1f} s"
    report(12, f"four property suites, 500 cases each, in {elapsed:.2f} s")
