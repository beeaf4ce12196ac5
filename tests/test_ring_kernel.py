"""The Poly kernel against plain Fraction loops, and against sympy.

The reference functions below are the straightforward Fraction
implementations of ``*``, ``+``, ``diff`` and ``substitute``: every
coefficient is multiplied and added as a Fraction and every result goes
through the validating ``Poly`` constructor.  The kernel clears denominators,
accumulates integers and builds its results through the trusted constructor;
it must agree with them value for value and in the order of the terms, and
every result must be canonical.  Weighted orders and leading terms, which the
centre computes as integer dot products with the reduced weights, are checked
against Fraction sums over the weights 1/a_i.
"""

import random
from fractions import Fraction

import pytest

from wblow.ring import INF, Poly
from wblow.polyvector import Polyvector, is_poisson, jacobian_poisson
from wblow.centre import Centre
from wblow.blowup import pullback_polyvector

F = Fraction
NAMES = ("x", "y", "z", "w")
SEEDS = range(40)


# --- the Fraction reference ----------------------------------------------------

def _min_cap(a, b):
    return b if a is None else a if b is None else min(a, b)


def ref_mul(a: Poly, b: Poly) -> Poly:
    cap = _min_cap(a.cap, b.cap)
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            exponent = tuple(x + y for x, y in zip(ea, eb))
            if cap is not None and sum(exponent) >= cap:
                continue
            out[exponent] = out.get(exponent, F(0)) + ca * cb
    return Poly(a.variables, out, cap)


def ref_add(a: Poly, b: Poly) -> Poly:
    out = dict(a.terms)
    for exponent, coeff in b.terms.items():
        out[exponent] = out.get(exponent, F(0)) + coeff
    return Poly(a.variables, out, _min_cap(a.cap, b.cap))


def ref_diff(a: Poly, name: str) -> Poly:
    i = a.variables.index(name)
    out = {}
    for exponent, coeff in a.terms.items():
        if exponent[i]:
            reduced = exponent[:i] + (exponent[i] - 1,) + exponent[i + 1:]
            out[reduced] = out.get(reduced, F(0)) + coeff * exponent[i]
    return Poly(a.variables, out, None if a.cap is None else max(a.cap - 1, 0))


def ref_pow(a: Poly, k: int) -> Poly:
    result = Poly.const(a.variables, 1, a.cap)
    for _ in range(k):
        result = ref_mul(result, a)
    return result


def ref_substitute(a: Poly, images) -> Poly:
    target = next(iter(images.values())).variables
    cap = a.cap
    for image in images.values():
        cap = _min_cap(cap, image.cap)
    full = {v: images[v] if v in images else Poly.var(target, v) for v in a.variables}
    result = Poly.zero(target, cap)
    for exponent, coeff in a.terms.items():
        term = Poly.const(target, coeff, cap)
        for v, k in zip(a.variables, exponent):
            if k:
                term = ref_mul(term, ref_pow(full[v], k))
        result = ref_add(result, term)
    return result


# --- random inputs ---------------------------------------------------------------

def _coefficient(rng):
    if rng.random() < 0.3:
        return F(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 20))
    return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))


def _random(rng, variables, cap=None, terms=5, degree=4, constant=True):
    out = {}
    for _ in range(rng.randint(0, terms)):
        exponent = [0] * len(variables)
        for _ in range(rng.randint(0 if constant else 1, degree)):
            exponent[rng.randrange(len(variables))] += 1
        out[tuple(exponent)] = _coefficient(rng)
    return Poly(variables, out, cap)


def _cap(rng):
    return rng.choice((None, None, None, 1, 2, 3, 5, 8))


def _pair(seed):
    rng = random.Random(seed)
    variables = NAMES[:rng.randint(1, 4)]
    return rng, variables, _random(rng, variables, _cap(rng)), _random(rng, variables, _cap(rng))


def assert_canonical(p: Poly):
    assert Poly(p.variables, p.terms, p.cap) == p
    for exponent, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert len(exponent) == len(p.variables) and min(exponent, default=0) >= 0
        assert p.cap is None or sum(exponent) < p.cap


def assert_same(result: Poly, reference: Poly):
    assert_canonical(result)
    assert result == reference
    assert list(result.terms) == list(reference.terms)


# --- arithmetic ------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_product_sum_difference(seed):
    rng, variables, a, b = _pair(seed)
    assert_same(a * b, ref_mul(a, b))
    assert_same(a + b, ref_add(a, b))
    assert_same(a - b, ref_add(a, Poly(variables, {e: -c for e, c in b.terms.items()},
                                        b.cap)))
    assert_same(a * a, ref_mul(a, a))
    assert_same(a + (-a), Poly.zero(variables, a.cap))
    monomial = Poly(variables, {(1,) * len(variables): _coefficient(rng)})
    assert_same(a * monomial, ref_mul(a, monomial))
    assert_same(monomial * a, ref_mul(monomial, a))


@pytest.mark.parametrize("seed", SEEDS)
def test_power_scale_diff(seed):
    rng, variables, a, _ = _pair(seed)
    k = rng.randint(0, 4)
    assert_same(a ** k, ref_pow(a, k))
    value = _coefficient(rng)
    assert_same(a.scale(value), Poly(variables, {e: c * value for e, c in a.terms.items()},
                                     a.cap))
    assert_same(a.scale(0), Poly.zero(variables, a.cap))
    for name in variables:
        assert_same(a.diff(name), ref_diff(a, name))


@pytest.mark.parametrize("seed", SEEDS)
def test_substitute(seed):
    rng, variables, a, _ = _pair(seed)
    target = NAMES[:rng.randint(1, 4)]
    if not set(variables) <= set(target):
        target = variables
    images = {}
    for name in rng.sample(variables, rng.randint(1, len(variables))):
        # a truncated polynomial takes only images without constant term
        images[name] = _random(rng, target, _cap(rng), terms=3, degree=3,
                               constant=a.cap is None)
    assert_same(a.substitute(images), ref_substitute(a, images))
    point = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in variables)
    if a.cap is None:
        translated = a.translate(point)
        assert_canonical(translated)
        assert translated == ref_substitute(a, {
            v: ref_add(Poly.var(variables, v), Poly.const(variables, p))
            for v, p in zip(variables, point) if p})


def test_cancellation_and_caps():
    x = Poly.var(("x", "y"), "x")
    y = Poly.var(("x", "y"), "y")
    assert_same((x + y) * (x - y), ref_mul(x + y, x - y))
    assert (x + y) * (x - y) == x * x - y * y
    series = (x + y).with_cap(3)
    assert_same(series ** 5, Poly.zero(("x", "y"), 3))
    assert_same(series * (1 + x), ref_mul(series, 1 + x))
    assert_same(Poly.const(("x", "y"), 2, cap=0) + x, Poly.zero(("x", "y"), 0))


# --- against sympy -----------------------------------------------------------------

def _to_sympy(sympy, p: Poly, symbols):
    total = sympy.Integer(0)
    for exponent, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, k in zip(symbols, exponent):
            term *= s ** k
        total += term
    return total


def _from_sympy(sympy, expr, variables, symbols, cap):
    expanded = sympy.Poly(sympy.expand(expr), *symbols, domain="QQ")
    return Poly(variables, {e: F(int(c.p), int(c.q)) for e, c in expanded.terms()}, cap)


@pytest.mark.parametrize("seed", SEEDS)
def test_against_sympy_expand(seed):
    sympy = pytest.importorskip("sympy")
    rng, variables, a, b = _pair(seed)
    symbols = sympy.symbols(" ".join(variables), seq=True)
    sa, sb = _to_sympy(sympy, a, symbols), _to_sympy(sympy, b, symbols)
    cap = _min_cap(a.cap, b.cap)
    assert a * b == _from_sympy(sympy, sa * sb, variables, symbols, cap)
    assert a + b == _from_sympy(sympy, sa + sb, variables, symbols, cap)
    k = rng.randint(0, 3)
    assert a ** k == _from_sympy(sympy, sa ** k, variables, symbols, a.cap)
    name = rng.choice(variables)
    assert a.diff(name) == _from_sympy(
        sympy, sympy.diff(sa, symbols[variables.index(name)]), variables, symbols,
        None if a.cap is None else max(a.cap - 1, 0))
    image = _random(rng, variables, None, terms=3, degree=2, constant=a.cap is None)
    substituted = sa.subs(symbols[variables.index(name)], _to_sympy(sympy, image, symbols))
    assert a.substitute({name: image}) == _from_sympy(sympy, substituted, variables, symbols,
                                                      a.cap)


# --- integer weighted orders -----------------------------------------------------------

def _random_centre(rng, variables, trivial=False):
    exponents = [INF if trivial or rng.random() < 0.3 else F(rng.randint(1, 7), rng.randint(1, 3))
                 for _ in variables]
    point = None
    if rng.random() < 0.3:
        point = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in variables)
    return Centre.from_exponents(variables, exponents, point)


def _fraction_orders(centre, f):
    """Weighted order of every term of f recentred at the base point."""
    if centre.base_point is not None:
        f = ref_substitute(f, {v: ref_add(Poly.var(f.variables, v), Poly.const(f.variables, p))
                               for v, p in zip(f.variables, centre.base_point)})
    weights = [F(0) if a is INF else 1 / a for a in centre.exponents]
    return f, {e: sum((w * k for w, k in zip(weights, e)), F(0)) for e in f.terms}, weights


@pytest.mark.parametrize("seed", SEEDS)
def test_orders_and_leading_terms_against_fraction_sums(seed):
    rng = random.Random(seed)
    variables = NAMES[:rng.randint(1, 3)]
    centre = _random_centre(rng, variables, trivial=seed % 10 == 0)
    f = _random(rng, variables)
    recentred, orders, weights = _fraction_orders(centre, f)
    if not orders:
        assert centre.ord_poly_with_witness(f) == (INF, None)
        return
    minimum = min(orders.values())
    witness = min((e for e, v in orders.items() if v == minimum), key=lambda e: (sum(e), e))
    order, found = centre.ord_poly_with_witness(f)
    assert (order, found) == (minimum, witness)
    assert type(order) is Fraction
    lead = centre.leading_term_poly(f)
    assert_canonical(lead)
    assert lead == Poly(variables, {e: c for e, c in recentred.terms.items()
                                    if orders[e] == minimum}, f.cap)

    xi = Polyvector(1, variables, {(i,): _random(rng, variables) for i in range(len(variables))})
    if xi.is_zero():
        return
    values = {}
    for indices, coeff in xi.terms.items():
        moved, coeff_orders, _ = _fraction_orders(centre, coeff)
        shift = sum((weights[i] for i in indices), F(0))
        for e in moved.terms:
            values[(indices, e)] = (coeff_orders[e] - shift, moved.terms[e])
    least = min(v for v, _ in values.values())
    assert centre.ord_polyvector(xi) == least
    expected = {}
    for (indices, e), (v, c) in values.items():
        if v == least:
            expected.setdefault(indices, {})[e] = c
    lead_xi = centre.leading_term_polyvector(xi)
    assert lead_xi == Polyvector(1, variables, {i: Poly(variables, t)
                                                for i, t in expected.items()})


def test_trivial_centre_has_order_zero():
    centre = Centre.from_exponents(("x", "y"), (INF, INF))
    f = Poly(("x", "y"), {(2, 1): 1, (0, 3): F(1, 2), (1, 0): -1})
    assert centre.ord_poly_with_witness(f) == (F(0), (1, 0))
    assert centre.leading_term_poly(f) == f


def test_centre_memo_keeps_equality_on_fields():
    a = Centre.from_exponents(("x", "y", "z"), (2, 3, INF))
    b = Centre.from_exponents(("x", "y", "z"), (2, 3, INF))
    assert a.weight_data() is a.weight_data()
    assert a.weights_by_variable() is a.weights_by_variable()
    a.reduced_weights_by_variable()
    assert a == b and hash(a) == hash(b)
    assert a.translated_to_origin() is a


# --- the trusted path is taken -------------------------------------------------------

def test_validating_constructors_stay_off_the_arithmetic(monkeypatch):
    """Counts, not timings: results of the arithmetic go through the trusted
    constructors, so the validating ones run only for coordinate functions,
    zero and volume polyvectors and the coefficients the blowup re-charts.
    Validating every result instead takes the bracket to 49 Poly and 68
    Polyvector constructions and the pullback to 160 and 5."""
    x, y, z = (Poly.var(("x", "y", "z"), v) for v in ("x", "y", "z"))
    f = x ** 2 * y - y ** 3 * z + x * z ** 2 - 3 * z ** 5
    u = 1 + x * y - F(2, 3) * z ** 2
    xi = Polyvector(2, ("x", "y", "z"), {(0, 1): x * y ** 2, (0, 2): z ** 3 - x,
                                         (1, 2): F(1, 2) * y * z})
    centre = Centre.from_exponents(("x", "y", "z"), (2, 3, F(5, 2)), (1, 0, 0))
    counts = {"Poly": 0, "Polyvector": 0}
    for cls in (Poly, Polyvector):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    poisson, _ = is_poisson(jacobian_poisson(f).scale(u))
    assert poisson is True
    assert counts["Poly"] <= 5 and counts["Polyvector"] <= 15, counts
    counts.update(Poly=0, Polyvector=0)
    pullback_polyvector(xi, centre)
    assert counts["Poly"] <= 40 and counts["Polyvector"] <= 3, counts
