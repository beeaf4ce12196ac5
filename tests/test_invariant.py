"""Invariant constraints, lex order, monomial maxima, plane-curve invariants."""

import bisect
import math
import random
from fractions import Fraction

import pytest

from wblow.ring import INF, Poly, parse_poly
from wblow.centre import Centre, parse_centre
from wblow.polyvector import CoordinateChange
from wblow.invariant import (
    INVALID,
    UNCHECKED,
    VALIDATION_BUDGET,
    InvariantSeq,
    VALID,
    _partial_sums_reachable,
    canonical_numerics,
    is_admissible,
    lex_compare,
    max_monomial_centre,
    plane_curve_invariant,
    validate_invariant,
)
from wblow.resolve import _is_squarefree, resolve_plane_curve

from conftest import V2, V3, random_poly

F = Fraction


def seq(text: str) -> InvariantSeq:
    return InvariantSeq.parse(text)


# --- validation -----------------------------------------------------------------

def test_validate_examples():
    assert validate_invariant(seq("2,3,9/2")).status == VALID
    failed = validate_invariant(seq("2,3,11/2"))
    assert failed.status == INVALID and failed.witness == 3
    failed = validate_invariant(seq("3/2,2"))
    assert failed.status == INVALID and failed.witness == 1


def test_validate_first_entry_integer():
    # a valid sequence starts with an integer
    assert validate_invariant(seq("7/2")).status == INVALID
    assert validate_invariant(seq("4")).status == VALID


def test_validate_rejects_non_monotone():
    with pytest.raises(ValueError):
        seq("3,2")


def _reachable_by_fractions(entries, j):
    """Whether 1 = sum n_i/a_i has a solution with n_j > 0, by Fraction sums
    over the prefix bounded by one: the oracle of the integer search."""
    reachable = {F(0)}
    for a in entries[:j - 1]:
        new = set()
        for s in reachable:
            n = 0
            while s + F(n) / a <= 1:
                new.add(s + F(n) / a)
                n += 1
        reachable = new
    a_j = entries[j - 1]
    return any(1 - F(n) / a_j in reachable for n in range(1, int(a_j) + 1))


def test_partial_sums_match_the_fraction_search():
    rng = random.Random(18)
    verdicts = []
    for _ in range(3000):
        entries = sorted(F(rng.randint(1, 14), rng.choice((1, 1, 2, 3, 4)))
                         for _ in range(rng.randint(1, 4)))
        j = rng.randint(1, len(entries))
        found, generated = _partial_sums_reachable(entries, j, VALIDATION_BUDGET)
        assert found == _reachable_by_fractions(entries, j), (entries, j)
        assert 0 <= generated <= VALIDATION_BUDGET
        verdicts.append(found)
    assert 500 < sum(verdicts) < 2500


def test_validation_budget_leaves_large_entries_unchecked():
    # the sets of sums grow with the product of the entries' numerators
    entries = seq("2,1000003,1000033").finite_entries()
    assert _partial_sums_reachable(entries, 3, VALIDATION_BUDGET)[0] is None
    assert _partial_sums_reachable(entries, 2, VALIDATION_BUDGET) == (True, 3)
    assert validate_invariant(seq("2,1000003,1000033")).status == UNCHECKED
    # short prefixes stay within the budget, either way
    assert validate_invariant(seq("2,1000003")).status == VALID
    failed = validate_invariant(seq("2,1000003/2"))
    assert failed.status == INVALID and failed.witness == 2
    assert validate_invariant(seq("2,7919,7927")).status == VALID
    big = Poly(V3, {(2, 0, 0): 1, (0, 1000003, 0): 1, (0, 0, 1000033): 1})
    result = max_monomial_centre(big)
    assert result.invariant.status == UNCHECKED
    assert "not checked" in result.warning and "fails" not in result.warning


def _fractions_built(monkeypatch, call):
    calls = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    call()
    monkeypatch.undo()
    return calls[0]


def test_invariant_search_builds_few_fractions(monkeypatch):
    # the search runs on integer numerators; only the returned weights are Fractions
    sequences = [seq(text) for text in ("2,3,9/2", "2,3,11/2", "2,2,13", "2,7919,7927")]
    assert _fractions_built(monkeypatch, lambda: [validate_invariant(s) for s in sequences]) == 0
    f = parse_poly("x^2 + y^2 + z^13", V3)
    assert _fractions_built(monkeypatch, lambda: max_monomial_centre(f)) <= 60


GRID = sorted({F(p, q) for q in range(1, 7) for p in range(1, 12 * q + 1)})


def _valid_sequences(length: int):
    """All weakly increasing valid sequences over the small grid."""
    out = []

    def extend(prefix):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        start = prefix[-1] if prefix else GRID[0]
        for value in GRID:
            if value < start:
                continue
            candidate = prefix + [value]
            if validate_invariant(InvariantSeq(tuple(candidate))).status == VALID:
                extend(candidate)

    extend([])
    return out


def test_two_prefix_forces_integer():
    # after a prefix of 2s the next entry of a valid sequence is an integer
    for a2 in GRID:
        if a2 < 2:
            continue
        status = validate_invariant(InvariantSeq((F(2), a2))).status
        assert (status == VALID) == (a2.denominator == 1), a2
    for a3 in GRID:
        if a3 < 2:
            continue
        status = validate_invariant(InvariantSeq((F(2), F(2), a3))).status
        assert (status == VALID) == (a3.denominator == 1), a3


def test_two_three_prefix_forces_z_or_3halves():
    allowed = {a for a in GRID if a >= 3 and (a.denominator == 1 or (2 * a) % 3 == 0)}
    for a3 in GRID:
        if a3 < 3:
            continue
        status = validate_invariant(InvariantSeq((F(2), F(3), a3))).status
        assert (status == VALID) == (a3 in allowed), a3
    assert validate_invariant(seq("2,3,9/2")).status == VALID
    assert validate_invariant(seq("2,3,15/2")).status == VALID
    assert validate_invariant(seq("2,3,11/2")).status == INVALID


# --- lexicographic order ----------------------------------------------------------

def test_lex_examples():
    assert lex_compare(seq("2,3,3"), seq("2,3,6")) < 0
    assert lex_compare(seq("2,2"), seq("2,2,5")) > 0  # (2,2) = (2,2,inf)
    assert lex_compare(seq("2,2"), seq("2,2,inf")) == 0
    assert lex_compare(seq("1,1"), seq("2")) < 0


def test_smooth_curve_invariant_is_minimal():
    smooth = seq("1,1")
    for other in ("2,2", "2,3", "1,2", "3,5"):
        assert lex_compare(smooth, seq(other)) < 0


# --- the trichotomy ------------------------------------------------------------------

def test_trichotomy_examples():
    result = canonical_numerics(seq("2,2,7"))
    assert all(result.values())
    assert seq("2,2,7").kappa(3) == F(8, 7)
    result = canonical_numerics(seq("2,3,6"))
    assert not any(result.values())
    result = canonical_numerics(seq("2,3,5"))
    assert all(result.values())
    assert seq("2,3,5").kappa(3) == F(31, 30)


def test_trichotomy_full_enumeration():
    # every valid length-2/3 sequence over the grid with a_1 > 1 agrees
    checked = 0
    for length in (2, 3):
        for entries in _valid_sequences(length):
            if entries[0] <= 1:
                continue
            result = canonical_numerics(InvariantSeq(entries))  # asserts agreement
            checked += 1
    assert checked > 200


# --- admissibility ------------------------------------------------------------------------

def test_admissibility_examples():
    assert is_admissible(Centre.from_exponents(V2, (3, 2)),
                         parse_poly("y^2 - x^3", V2))
    W = parse_poly("x^2 - y^2*z", V3)
    assert is_admissible(parse_centre("x:2 y:3 z:3"), W)
    assert not is_admissible(parse_centre("x:1 y:1 z:1"), W)  # ord = 2


# --- maximal monomial centres ----------------------------------------------------------------

TABLE_ONE = [
    ("x*y", (F(2), F(2))),
    ("x^2 - y^2*z", (F(2), F(3), F(3))),
    ("x^2 + y^2 + z^2", (F(2), F(2), F(2))),
    ("x^2 + y^2 + z^5", (F(2), F(2), F(5))),
    ("x^2 + y^2*z + z^3", (F(2), F(3), F(3))),
    ("x^2 + y^2*z + z^6", (F(2), F(3), F(3))),
    ("x^2 + y^3 + z^4", (F(2), F(3), F(4))),
    ("x^2 + y^3 + y*z^3", (F(2), F(3), F(9, 2))),
    ("x^2 + y^3 + z^5", (F(2), F(3), F(5))),
]


def test_table_one_invariants():
    for text, expected in TABLE_ONE:
        result = max_monomial_centre(parse_poly(text, V3))
        assert result.invariant.finite_entries() == expected, text
        assert is_admissible(result.centre, parse_poly(text, V3))


def _brute_force_lex_max(f: Poly, grid):
    """Independent oracle: enumerate per-variable grid exponents directly.

    A pure-power monomial v^k caps the exponent of v at k (its order must
    stay at least one); variables without a pure power range over the whole
    grid.  Every assignment is then checked against the admissibility
    constraints, with no greedy structure shared with the implementation.
    """
    top = max(grid)
    support = list(f.terms)
    n = len(f.variables)
    bounds = []
    for v in range(n):
        bound = top
        for J in support:
            if J[v] > 0 and all(J[u] == 0 for u in range(n) if u != v):
                bound = min(bound, F(J[v]))
        bounds.append(bound)
    candidates = [[a for a in grid if a <= bounds[v]] + [INF] for v in range(n)]
    # integer screening: every weight 1/a is a multiple of 1/scale, so each
    # weighted order times scale is an exact integer, summed variable by
    # variable; the sum for each monomial only grows
    scale = math.lcm(*(a.numerator for column in candidates for a in column if a is not INF))
    contributions = [[tuple(0 if a is INF else scale // a.numerator * a.denominator * J[v]
                            for J in support) for a in column]
                     for v, column in enumerate(candidates)]
    accepted = []

    def extend(v, partial, prefix):
        if v == n - 1:
            # the column ascends in a, so the minimal order falls along it:
            # the assignments of minimal order one are one run of positions
            column = contributions[v]
            falling = lambda k: -min(map(int.__add__, partial, column[k]))
            positions = range(len(column))
            low = bisect.bisect_left(positions, -scale, key=falling)
            high = bisect.bisect_right(positions, -scale, key=falling)
            accepted.extend(prefix + (a,) for a in candidates[v][low:high])
            return
        for a, contribution in zip(candidates[v], contributions[v]):
            orders = tuple(map(int.__add__, partial, contribution))
            if min(orders) <= scale:  # else no monomial can come back to order one
                extend(v + 1, orders, prefix + (a,))

    extend(0, (0,) * len(support), ())
    by_key = {}
    for assignment in accepted:
        key = tuple(sorted([a for a in assignment if a is not INF]))
        by_key.setdefault(key, []).append(assignment)
    best = None
    for key in by_key:
        if best is None or lex_compare(key, best) > 0:
            best = key
    # exact confirmation of every assignment that attains the maximum
    for assignment in by_key.get(best, []):
        weights = [F(0) if a is INF else 1 / a for a in assignment]
        orders = [sum((w * j for w, j in zip(weights, J)), F(0)) for J in support]
        assert min(orders) == 1, assignment
    return best


def test_monomial_maximum_matches_brute_force_two_vars():
    grid = sorted({F(p, q) for q in range(1, 13) for p in range(1, 12 * q + 1)})
    for text in ("y^2 - x^3", "y^2 - x^4", "y^2 - x^2", "(x + y)^2", "y^3 - x^5"):
        f = parse_poly(text, V2)
        oracle = _brute_force_lex_max(f, grid)
        computed = max_monomial_centre(f).invariant.finite_entries()
        assert computed == oracle, text


def test_monomial_maximum_matches_brute_force_three_vars():
    # denominators up to six keep the unbounded-variable product tractable;
    # every corpus entry has denominator at most two, so the resolution is
    # ample
    grid = sorted({F(p, q) for q in range(1, 7) for p in range(1, 12 * q + 1)})
    for text, expected in TABLE_ONE:
        f = parse_poly(text, V3)
        oracle = _brute_force_lex_max(f, grid)
        assert oracle == max_monomial_centre(f).invariant.finite_entries(), text


def test_sheared_square_is_lower_bound_with_valid_status():
    result = max_monomial_centre(parse_poly("(x + y)^2", V2))
    assert result.invariant.finite_entries() == (F(2), F(2))
    assert result.lower_bound_only


def test_power_scaling():
    cusp = parse_poly("y^2 - x^3", V2)
    e6 = parse_poly("x^2 + y^3 + z^4", V3)
    for f, base in ((cusp, (F(2), F(3))), (e6, (F(2), F(3), F(4)))):
        for k in (1, 2, 3):
            entries = max_monomial_centre(f ** k).invariant.finite_entries()
            assert entries == tuple(k * b for b in base)


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        max_monomial_centre(parse_poly("1 + x", V2))


def test_dn_quasi_homogeneity():
    # x^2 + y^2 z + z^(n-1) has order exactly one under (2, 2 + 2/(n-2), n-1)
    for n in range(4, 9):
        f = (parse_poly("x^2", V3) + parse_poly("y^2*z", V3)
             + Poly.var(V3, "z") ** (n - 1))
        centre = Centre.from_exponents(
            V3, (F(2), 2 + F(2, n - 2), F(n - 1)))
        assert centre.ord_poly(f) == 1


# --- plane curves -----------------------------------------------------------------------------

def test_plane_curve_invariants():
    expectations = [("y^2 - x^3", (F(2), F(3)), True),
                    ("y^2 - x^4", (F(2), F(4)), True),
                    ("y^2 - x^2", (F(2), F(2)), True),
                    ("y^2 - x^5", (F(2), F(5)), True),
                    ("y^3 - x^5", (F(3), F(5)), False)]
    for text, expected, exact in expectations:
        result = plane_curve_invariant(parse_poly(text, V2))
        assert result.invariant.finite_entries() == expected
        assert result.exact == exact
        # cross-check against the monomial machinery
        assert max_monomial_centre(parse_poly(text, V2)).invariant.finite_entries() \
            == expected


def test_plane_curve_tschirnhaus_shift():
    # (y + x^2)^2 - x^5 needs the shift y -> y - x^2 to reveal (2, 5)
    f = parse_poly("(y + x^2)^2 - x^5", V2)
    result = plane_curve_invariant(f)
    assert result.invariant.finite_entries() == (F(2), F(5))
    assert result.preparation.lines() == ["y -> -x^2 + y"]


def test_plane_curve_shear_catalogue():
    result = plane_curve_invariant(parse_poly("x*y", V2))
    assert result.invariant.finite_entries() == (F(2), F(2))
    # the shear y -> y + x exposes x^2, then the square is completed
    assert result.preparation.lines() == ["y -> x + y", "x -> x - 1/2*y"]


def test_plane_curve_shear_beyond_small_slopes():
    # the tangent cone vanishes at the slopes 0, +-1, +-2, +-3 of y -> y + c*x,
    # so the first shear exposing x^12 is c = 4
    f = parse_poly("x*y*(y - x)*(y + x)*(y - 2*x)*(y + 2*x)*(y - 3*x)*(y + 3*x)"
                   "*(x - 2*y)*(x + 2*y)*(x - 3*y)*(x + 3*y)", V2)
    result = plane_curve_invariant(f)
    assert result.preparation.lines()[0] == "y -> 4*x + y"
    assert result.invariant.finite_entries() == (F(12), F(12))
    assert str(result.centre) == "x:12 y:12"
    assert not result.exact


def test_plane_curve_prefers_the_variable_that_takes_the_shift():
    # both pure powers occur; the germ has degree d only in y, where the
    # subleading shift straightens it: (y + x)^2 - x^5 is an A4 germ
    for text, expected, shift in (("(y + x)^2 - x^5", (F(2), F(5)), "y -> -x + y"),
                                  ("(y - x)^3 + x^7", (F(3), F(7)), "y -> x + y")):
        result = plane_curve_invariant(parse_poly(text, V2))
        assert result.invariant.finite_entries() == expected, text
        assert result.preparation.lines() == [shift], text
    tree = resolve_plane_curve(parse_poly("(y + x)^2 - x^5", V2))
    assert tree.children[0].invariant.finite_entries() == (F(2), F(5))


@pytest.mark.parametrize("text", ["(y + x)^2 + x^3*y^3", "(y + x)^2*(1 + y) - x^5"])
def test_plane_curve_exact_only_for_a_prepared_square(text):
    # both pure squares occur but the germ has degree 3 in each variable, so
    # no subleading shift applies and (2,2) is only the monomial lower bound
    result = plane_curve_invariant(parse_poly(text, V2))
    assert result.invariant.finite_entries() == (F(2), F(2))
    assert not result.exact


def newton_reader(prepared: Poly):
    """The Newton-polygon reading of a prepared plane-curve germ.

    With u^d in the support, d the multiplicity, a_2 = min j*d/(d-i) over the
    monomials u^i v^j with i < d (None when there are none); the centre
    gives u the exponent d and v the exponent a_2.
    """
    d = prepared.min_total_degree()
    main = next(k for k in range(2)
                if tuple(d if m == k else 0 for m in range(2)) in prepared.terms)
    a2 = min((F(e[1 - main] * d, d - e[main]) for e in prepared.terms if e[main] < d),
             default=None)
    exponents = [INF, INF]
    exponents[main], exponents[1 - main] = F(d), INF if a2 is None else a2
    return d, a2, Centre(prepared.variables, tuple(exponents))


def is_weierstrass(prepared: Poly, d: int) -> bool:
    """Whether the prepared germ is c*u^d + (terms of degree < d - 1 in u)
    for one of its variables u."""
    powers = [tuple(d if m == k else 0 for m in range(2)) for k in range(2)]
    return any(power in prepared.terms
               and all(e[k] < d - 1 or e == power for e in prepared.terms)
               for k, power in enumerate(powers))


def assert_reader_agrees(f: Poly):
    plane = plane_curve_invariant(f)
    d, a2, centre = newton_reader(plane.prepared)
    expected = (F(d),) if a2 is None else (F(d), a2)
    assert plane.invariant.finite_entries() == expected, f
    assert plane.centre == centre, f
    assert plane.centre.ord_poly(plane.prepared) == 1, f
    assert plane.preparation(f) == plane.prepared, f
    assert plane.exact == (d == 2 and a2 is not None
                           and is_weierstrass(plane.prepared, d)), f
    return plane


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


# the curves of the `curves` corpus
CORPUS_CURVES = ("y^2 - x^2", "y^2 - x^3", "y^2 - x^4", "y^2 - x^5", "y^3 - x^5")


def test_plane_curve_matches_newton_reader_on_corpus():
    # every germ blown up while resolving the corpus curves
    germs = 0
    for text in CORPUS_CURVES:
        for node in _walk(resolve_plane_curve(parse_poly(text, V2))):
            if node.centre is not None:
                assert_reader_agrees(node.equation)
                germs += 1
    assert germs >= len(CORPUS_CURVES)


def test_plane_curve_matches_newton_reader_on_random_curves():
    # random squarefree curves, each also under a random change
    # y -> y + c*x + e*x^2 that hides the Newton polygon of the germ
    rng = random.Random(20261018)
    x = Poly.var(V2, "x")
    checked = sheared = raised = 0
    while checked < 100:
        f = random_poly(rng, V2, max_degree=6, max_terms=5)
        f = Poly(V2, {e: c for e, c in f.terms.items() if sum(e) >= 2})
        if f.is_zero() or not _is_squarefree(f):
            continue
        shift = x.scale(rng.choice((1, -1, 2, -3, 4, -5))) + (x ** 2).scale(rng.randint(-3, 3))
        for germ in (f, CoordinateChange.shear("y", shift)(f)):
            plane = assert_reader_agrees(germ)
            d = germ.min_total_degree()
            if (d, 0) not in germ.nums and (0, d) not in germ.nums:
                # neither pure power: the first step is the shear y -> y + c*x
                name, image = plane.preparation.steps[0]
                slope = (image - Poly.var(V2, "y")).terms
                assert name == "y" and list(slope) == [(1, 0)], germ
                sheared += 1
            raised += lex_compare(plane.invariant, max_monomial_centre(germ).invariant) > 0
        checked += 1
    # some germs need the first shear, and the preparation raises some
    # invariants above the monomial bound of the unprepared germ
    assert sheared > 0 and raised > 0


def test_plane_curve_centre():
    result = plane_curve_invariant(parse_poly("y^2 - x^3", V2))
    centre = result.centre
    assert str(centre) == "x:3 y:2"
