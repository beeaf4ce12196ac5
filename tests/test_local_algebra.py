"""Truncated local algebras against a Fraction reference, and Milnor numbers
against sympy's Groebner bases.

``_local_dimensions(generators, k)`` reduces the shifts x^a*g truncated
below k once, on their lowest monomials, and reads dim O/(I + m^j) for every
j <= k from the pivots.  The reference below is the direct definition: for
each degree j on its own, the same shifts truncated below j, reduced in
``Fraction`` on their grlex-highest monomial.  The Milnor oracle is global:
for a quasi-homogeneous germ with an isolated critical point the Jacobian
ideal has no other zero, so mu is the dimension of Q[x, y, z]/(df), which
sympy reads off the staircase of a Groebner basis.
"""

import itertools
import random
from fractions import Fraction

import pytest

import wblow.classify as classify_module
from wblow.classify import (
    DUVAL_EQUATIONS,
    _local_dimensions,
    line_in_zero_locus,
    local_dimension_is_zero,
    local_quotient_dimension,
    milnor_number,
)
from wblow.ring import Poly

from conftest import V2, V3

F = Fraction


# --- the Fraction reference ------------------------------------------------------

def reference_dimension(generators, degree):
    """dim O/(ideal + m^degree), one Fraction reduction for this degree alone."""
    generators = [g for g in generators if not g.is_zero()]
    n = len(generators[0].variables)
    monomials = [e for e in itertools.product(range(degree), repeat=n) if sum(e) < degree]
    pivots = {}
    for g in generators:
        for alpha in monomials:
            row = {}
            for exponent, coeff in g.terms.items():
                shifted = tuple(a + b for a, b in zip(exponent, alpha))
                if sum(shifted) < degree:
                    row[shifted] = coeff
            while row:
                lead = max(row, key=lambda e: (sum(e), e))
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                factor = row[lead] / pivot[lead]
                for exponent, coeff in pivot.items():
                    new = row.get(exponent, F(0)) - factor * coeff
                    if new:
                        row[exponent] = new
                    else:
                        row.pop(exponent, None)
    return len(monomials) - len(pivots)


def reference_stabilisation(generators, bound):
    """(j, dim) for the first j in 2..bound with equal dimensions at j and
    j + 1, or None when the bound runs out."""
    previous = reference_dimension(generators, 2)
    for j in range(2, bound + 1):
        current = reference_dimension(generators, j + 1)
        if current == previous:
            return j, current
        previous = current
    return None


# --- random generator sets -----------------------------------------------------------

def _coefficient(rng):
    if rng.random() < 0.3:
        return F(rng.randint(-10 ** 20, 10 ** 20) or 1, rng.randint(10 ** 19, 10 ** 20))
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 7)))


def _monomial(rng, n, low, high):
    exponent = [0] * n
    for _ in range(rng.randint(low, high)):
        exponent[rng.randrange(n)] += 1
    return tuple(exponent)


def _tail(rng, n, low=1, high=4, terms=3):
    return {_monomial(rng, n, low, high): _coefficient(rng) for _ in range(rng.randint(0, terms))}


def _power(n, i, k):
    return tuple(k if j == i else 0 for j in range(n))


FLAVOURS = ("isolated", "deep", "random", "unit", "non_isolated", "wide")


def generator_set(flavour, variables, seed):
    """Generators of one flavour: ``isolated`` sets start with a pure power
    of every variable, ``deep`` ones with pure powers up to the fifth under
    terms of higher degree, so that they stabilise late; ``random`` ones are
    arbitrary; ``unit`` sets hold a generator with a constant term;
    ``non_isolated`` ones share a linear factor; ``wide`` ones hold a pure
    power of exponent 60, far above the truncation degrees."""
    rng = random.Random(f"{flavour}:{len(variables)}:{seed}")
    n = len(variables)
    gens = []
    if flavour in ("isolated", "deep", "wide", "unit"):
        for i in range(n):
            if flavour == "deep":
                terms = _tail(rng, n, 5, 6)
                terms[_power(n, i, rng.randint(2, 5))] = _coefficient(rng)
            else:
                terms = _tail(rng, n, 2, 4)
                terms[_power(n, i, rng.randint(1, 4))] = _coefficient(rng)
            gens.append(terms)
        if flavour == "unit":
            gens[rng.randrange(n)][(0,) * n] = _coefficient(rng)
        if flavour == "wide":
            gens.append({_power(n, n - 1, 60): _coefficient(rng),
                         _power(n, 0, 3): _coefficient(rng)})
            gens[rng.randrange(n)][_power(n, rng.randrange(n), 60)] = _coefficient(rng)
    else:
        gens = [_tail(rng, n, 1, 4, 4) for _ in range(rng.randint(1, n + 1))]
    polys = [Poly(variables, g) for g in gens]
    if flavour == "non_isolated":
        form = Poly(variables, {_power(n, i, 1): F(rng.randint(-2, 2)) for i in range(n)})
        form = form if not form.is_zero() else Poly.var(variables, variables[0])
        polys = [g * form for g in polys]
    polys = [g for g in polys if not g.is_zero()]
    return polys or [Poly.var(variables, variables[0])]


CASES = [(flavour, variables, seed) for flavour in FLAVOURS
         for variables in (V2, V3) for seed in range(6)]
IDS = [f"{flavour}-{len(variables)}vars-{seed}" for flavour, variables, seed in CASES]


@pytest.mark.parametrize("flavour, variables, seed", CASES, ids=IDS)
def test_dimensions_match_the_per_degree_reference(flavour, variables, seed):
    generators = generator_set(flavour, variables, seed)
    k = 7 if len(variables) == 3 else 9
    dims = _local_dimensions(generators, k)
    assert dims == [reference_dimension(generators, j) for j in range(k + 1)]
    for j in (1, 4, k):
        assert local_quotient_dimension(generators, j) == dims[j]
    if flavour == "unit":
        assert dims == [0] * (k + 1)
    if flavour == "non_isolated":
        # a common factor through the origin: the quotient grows with j
        assert all(dims[j] < dims[j + 1] for j in range(1, k))


@pytest.mark.parametrize("flavour, variables, seed", CASES, ids=IDS)
def test_stabilisation_stops_where_the_reference_does(flavour, variables, seed, monkeypatch):
    generators = generator_set(flavour, variables, seed)
    bound = 7 if len(variables) == 3 else 8
    expected = reference_stabilisation(generators, bound)
    degrees = []
    original = classify_module._local_dimensions

    def recording(gens, degree):
        degrees.append(degree)
        return original(gens, degree)

    monkeypatch.setattr(classify_module, "_local_dimensions", recording)
    verdict = local_dimension_is_zero(generators, bound)
    if line_in_zero_locus(generators) is not None:
        assert verdict == (False, None) and degrees == []
        return
    if expected is None:
        assert verdict == (None, None)
        assert degrees == _schedule(bound)
    else:
        stop, dimension = expected
        assert verdict == (True, dimension)
        # the schedule ends with its first degree that holds both j and j + 1
        assert degrees == [d for d in _schedule(bound) if d < stop + 1] + [
            next(d for d in _schedule(bound) if d >= stop + 1)]


def _schedule(bound):
    """6, 12, 24, ... capped at bound + 1."""
    degrees = [min(6, bound + 1)]
    while degrees[-1] < bound + 1:
        degrees.append(min(2 * degrees[-1], bound + 1))
    return degrees


def test_wide_exponent_does_not_overflow_the_packing():
    # at degree 3 the packed fields are two bits wide: z^60 and x*z^61 do not
    # fit them and lie far above the truncation, and must reach no row
    x, y, z = (Poly.var(V3, v) for v in V3)
    generators = [x + z ** 60, y, z ** 2 + x * z ** 61]
    assert _local_dimensions(generators, 3) == [0, 1, 2, 2]
    assert _local_dimensions(generators, 3) == [reference_dimension(generators, j)
                                                for j in range(4)]


def test_monomial_ideal_dimensions_are_staircase_counts():
    x, y, z = (Poly.var(V3, v) for v in V3)
    dims = _local_dimensions([x ** 2, y ** 3, z ** 4], 12)
    staircase = [e for e in itertools.product(range(2), range(3), range(4))]
    assert dims == [sum(1 for e in staircase if sum(e) < j) for j in range(13)]
    assert dims[7] == dims[12] == 24


# --- Milnor numbers against the Groebner quotient --------------------------------------

def _groebner_quotient_dimension(sympy, f):
    """dim Q[x, y, z]/(df): the standard monomials of a grevlex Groebner basis."""
    symbols = sympy.symbols("x y z")
    expression = sympy.sympify(str(f).replace("^", "**"), locals=dict(zip(V3, symbols)))
    basis = sympy.groebner([sympy.diff(expression, s) for s in symbols], *symbols,
                           order="grevlex")
    leads = [sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in basis.exprs]
    box = []
    for i in range(3):
        powers = [m[i] for m in leads if all(e == 0 for j, e in enumerate(m) if j != i)]
        assert powers, "the Jacobian ideal is not zero-dimensional"
        box.append(min(powers))
    return sum(1 for m in itertools.product(*map(range, box))
               if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads))


def _rescaled(f, rng):
    """f with every monomial multiplied by a random nonzero rational."""
    return Poly(f.variables, {e: c * F(rng.choice((-7, -3, -2, -1, 1, 2, 5, 11)),
                                       rng.choice((1, 2, 3, 4, 9)))
                              for e, c in f.terms.items()})


ADE_UP_TO_12 = ([("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
                + [(e, None) for e in ("E6", "E7", "E8")])


@pytest.mark.parametrize("family, n", ADE_UP_TO_12,
                         ids=[f"{family}{n or ''}" for family, n in ADE_UP_TO_12])
def test_ade_milnor_numbers_against_groebner(family, n):
    sympy = pytest.importorskip("sympy")
    f = _rescaled(DUVAL_EQUATIONS[family](n, V3), random.Random(f"{family}{n}"))
    mu = milnor_number(f)
    assert mu == _groebner_quotient_dimension(sympy, f)
    assert mu == (n or int(family[1]))


BRIESKORN_PHAM = list(itertools.combinations_with_replacement(range(2, 6), 3))


@pytest.mark.parametrize("a, b, c", BRIESKORN_PHAM,
                         ids=[f"{a}-{b}-{c}" for a, b, c in BRIESKORN_PHAM])
def test_brieskorn_pham_milnor_numbers_against_groebner(a, b, c):
    sympy = pytest.importorskip("sympy")
    x, y, z = (Poly.var(V3, v) for v in V3)
    f = _rescaled(x ** a + y ** b + z ** c, random.Random(f"{a}{b}{c}"))
    # the local algebra's top monomial has degree a + b + c - 6
    mu = milnor_number(f, a + b + c - 4)
    assert mu == _groebner_quotient_dimension(sympy, f) == (a - 1) * (b - 1) * (c - 1)
