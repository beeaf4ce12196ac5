"""The Poly kernel against plain Fraction loops, and against sympy.

The reference functions below are the straightforward Fraction
implementations of ``*``, ``+``, ``diff``, ``substitute`` and ``divides``:
every coefficient is multiplied and added as a Fraction and every result goes
through the validating ``Poly`` constructor.  The kernel computes on integer
numerators over one shared denominator, builds no Fraction, and builds its
results through the trusted constructor; it must agree with the reference
value for value and in the order of the terms, and every result must be
canonical.  Weighted orders and leading terms, which the
centre computes as integer dot products with the reduced weights, are checked
against Fraction sums over the weights 1/a_i, and the reduced weights and
their gcd, which the centre reads off the exponents with integer gcd and lcm,
against the weights 1/a_i sorted as Fractions with their Fraction gcd.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from wblow import blowup, resolve
from wblow.ring import INF, Poly, divides, parse_poly, resultant, univariate_gcd
from wblow.polyvector import Polyvector, is_poisson, jacobian_poisson, schouten
from wblow.centre import Centre, parse_centre
from wblow.blowup import _shift_t_down, check_centre, check_lift, pullback_polyvector
from wblow.cli import main
from wblow.invariant import max_monomial_centre

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
    assert hash(p) == hash(Poly(p.variables, p.terms, p.cap))
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1
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


@pytest.mark.parametrize("seed", SEEDS)
def test_translate_is_the_substitution(seed):
    """The Taylor shift on the numerators equals x_i -> x_i + p_i by the
    Fraction reference and by ``substitute``, at points with denominators up to 10^12 and some zero
    coordinates, and shifting back returns the polynomial."""
    rng = random.Random(seed)
    variables = NAMES[:rng.randint(1, 4)]
    a = _random(rng, variables, terms=6, degree=6)
    point = tuple(rng.choice((0, F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 12))))
                  for _ in variables)
    images = {v: ref_add(Poly.var(variables, v), Poly.const(variables, p))
              for v, p in zip(variables, point) if p}
    translated = a.translate(point)
    assert_canonical(translated)
    if images:
        assert translated == ref_substitute(a, images) == a.substitute(images)
    else:
        assert translated is a
    assert translated.translate(tuple(-p for p in point)) == a


def test_translate_refuses_a_truncated_polynomial(capsys):
    """A nonzero shift of a truncated polynomial is refused with the message
    of ``substitute``, naming the first shifted variable; from the command
    line it is a usage error."""
    f = parse_poly("x^2 + y^2", ("x", "y")).with_cap(3)
    assert f.translate((0, 0)) is f
    for point, name in (((1, 0), "x"), ((0, F(1, 3)), "y"), ((2, 5), "x")):
        with pytest.raises(ValueError) as refusal:
            f.translate(point)
        assert str(refusal.value) == (f"cannot substitute {name} -> series with constant "
                                      "term into a truncated polynomial")
    code = main(["blowup", "--centre", "x:1 y:1 @ (1,0)", "--cap", "3", "x^2 + y^2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", (
        "error: cannot substitute x -> series with constant term into a truncated "
        "polynomial\n"))


@pytest.mark.parametrize("seed", SEEDS)
def test_specialise_is_substitute_then_drop(seed):
    """Setting a variable to 0, -2 or 3/5 on the integer numerators equals
    substituting the constant and dropping the variable, on polynomials with
    denominators 2, 3 and 6; a truncated one is refused unless the value is
    zero, as substitute refuses a constant image."""
    rng = random.Random(seed)
    variables = NAMES[:rng.randint(1, 4)]
    terms = {tuple(rng.randint(0, 3) for _ in variables):
             F(rng.randint(-9, 9), rng.choice((1, 2, 3, 6))) for _ in range(rng.randint(0, 6))}
    a = Poly(variables, terms)
    capped = a.with_cap(rng.randint(1, 8))
    for name in variables:
        for value in (0, -2, F(3, 5)):
            image = {name: Poly.const(variables, value)}
            result = a.specialise(name, value)
            assert_canonical(result)
            assert result == a.substitute(image).drop_variables([name])
            if value:
                for refused in (lambda: capped.specialise(name, value),
                                lambda: capped.substitute(image)):
                    with pytest.raises(ValueError, match="constant term"):
                        refused()
            else:
                assert capped.specialise(name, 0) == \
                    capped.substitute(image).drop_variables([name])


def test_cancellation_and_caps():
    x = Poly.var(("x", "y"), "x")
    y = Poly.var(("x", "y"), "y")
    assert_same((x + y) * (x - y), ref_mul(x + y, x - y))
    assert (x + y) * (x - y) == x * x - y * y
    series = (x + y).with_cap(3)
    assert_same(series ** 5, Poly.zero(("x", "y"), 3))
    assert_same(series * (1 + x), ref_mul(series, 1 + x))
    assert_same(Poly.const(("x", "y"), 2, cap=0) + x, Poly.zero(("x", "y"), 0))


def test_canonical_after_each_operation():
    """Every operation that can shrink the content, or cut the terms that
    carry the denominator, divides out what it shares with the denominator."""
    variables = ("x", "y")
    x, y = (Poly.var(variables, v) for v in variables)
    half = F(1, 2)
    cases = [
        ((F(3, 2) * x + 3 * y ** 2).scale(F(2, 3)), x + 2 * y ** 2),
        ((half * x ** 2).diff("x"), x),
        ((x + F(1, 6) * x * y).with_cap(2), x.with_cap(2)),
        *zip((x + half * y).coefficients_in("y"),
             (Poly.var(("x",), "x"), Poly.const(("x",), half))),
        (Centre.from_exponents(variables, (1, 1)).leading_term_poly(x + half * y ** 2), x),
        ((x + half).extend_variables(("w", "x", "y")).drop_variables(("w",)),
         Poly(variables, {(1, 0): 1, (0, 0): half})),
        (F(1, 3) * x - F(1, 3) * x, Poly.zero(variables)),
        ((2 * x) * (half * x), x ** 2),
        ((half * x) * (2 * x), x ** 2),
        ((2 * x + 4 * y) * (x + y).scale(half), (x + 2 * y) * (x + y)),
    ]
    for result, expected in cases:
        assert_canonical(result)
        assert result == expected
    assert [p.den for p, _ in cases] == [1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1]


def _fraction_str(p: Poly) -> str:
    """The printed form read off the Fraction coefficients, term by term."""
    pieces = []
    for exponent, coeff in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]),
                                  reverse=True):
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(p.variables, exponent) if k]
        if not factors or abs(coeff) != 1:
            factors.insert(0, str(abs(coeff)))
        sign = ("" if coeff > 0 else "-") if not pieces else ("+ " if coeff > 0 else "- ")
        pieces.append(sign + "*".join(factors))
    return " ".join(pieces) or "0"


@pytest.mark.parametrize("seed", SEEDS)
def test_printing_matches_the_fraction_form(seed):
    _, _, a, b = _pair(seed)
    for p in (a, b, a * b, -a):
        assert str(p) == _fraction_str(p)


def test_kernel_builds_no_fraction(monkeypatch):
    """Products, sums, differences, integer scaling, derivatives,
    substitutions, specialisations and printing compute on integers only,
    even with denominators 2, 3, 6."""
    variables = ("x", "y", "z")
    a = Poly(variables, {(2, 1, 0): F(1, 2), (0, 1, 1): F(-2, 3), (1, 0, 0): F(5, 6)})
    b = Poly(variables, {(1, 1, 0): F(3, 2), (0, 0, 2): F(1, 3), (0, 0, 0): F(7, 6)})
    extended = variables + ("t",)
    t = Poly.var(extended, "t")
    blowdown = {v: Poly.var(extended, v) * t ** w for v, w in zip(variables, (3, 2, 1))}
    lifted = a.extend_variables(extended)
    shift = {"x": Poly.var(variables, "x") + Poly.const(variables, F(1, 2))}
    value = F(3, 5)
    calls = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    results = [a * b, b * a, a * a, a + b, a - b, b - b, a.scale(6), a.scale(-4),
               a.diff("x"), b.diff("z"), lifted.substitute(blowdown), a.substitute(shift),
               a.specialise("y", value), b.specialise("x", 2), str(a), str(b)]
    assert calls[0] == 0
    F(1, 3)
    assert calls[0] == 1
    monkeypatch.undo()
    assert results[:3] == [ref_mul(a, b), ref_mul(b, a), ref_mul(a, a)]
    assert results[3] == ref_add(a, b) and results[5].is_zero()
    assert results[8:10] == [ref_diff(a, "x"), ref_diff(b, "z")]
    assert results[10] == ref_substitute(lifted, blowdown)
    assert results[11] == ref_substitute(a, shift)
    for result, p, name, at in ((results[12], a, "y", value), (results[13], b, "x", 2)):
        assert result == p.substitute({name: Poly.const(variables, at)}).drop_variables([name])
    assert results[14:] == [_fraction_str(a), _fraction_str(b)]


def _call_count(monkeypatch, owners, name, call):
    """How often ``call()`` calls the function or method ``name``, patched
    on every owner that binds it."""
    calls = [0]
    original = getattr(owners[0], name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    call()
    monkeypatch.undo()
    return calls[0]


def test_blowup_step_pulls_each_equation_back_once(monkeypatch):
    """Every slice chart is cut from one pullback per equation, and the
    centre report reads its order off its own lift report."""
    owners = [blowup, resolve]
    W = parse_poly("x^2 - y^2*z", ("x", "y", "z"))
    sigma, centre = jacobian_poisson(W), parse_centre("x:1 y:1 z:inf")
    before = max_monomial_centre(W).invariant
    step = lambda: resolve.certify_blowup_step(sigma, [W], centre, before)
    assert _call_count(monkeypatch, owners, "pullback_function", step) == 1
    cusp = parse_poly("y^2 - x^3", ("x", "y"))
    curve = lambda: resolve.resolve_plane_curve(cusp)
    assert _call_count(monkeypatch, owners, "pullback_function", curve) == 1
    report = lambda: check_centre(sigma, centre)
    assert _call_count(monkeypatch, [Centre], "ord_polyvector", report) == 2


def _fraction_count(monkeypatch, call):
    """(Fractions built by ``call()``, its result)."""
    calls = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return calls[0], result


def test_elimination_and_orders_build_counted_fractions(monkeypatch):
    """Exact counts: division, resultants and gcds build no Fraction (the
    Fraction division, and results rebuilt from Fractions, built 53, 3 and
    3 here), and an order on a fresh unbased centre builds two, the gcd of
    the weights and the order itself (sorted Fraction weights built 21)."""
    x, y = (Poly.var(("x", "y"), v) for v in ("x", "y"))
    f = F(1, 2) * x ** 2 - F(2, 3) * x * y + F(5, 6) * y ** 2 - 1
    q = F(3, 4) * x - y + F(1, 5)
    g = f * q
    counted, quotient = _fraction_count(monkeypatch, lambda: divides(f, g))
    assert counted == 0 and quotient == q
    counted, value = _fraction_count(monkeypatch, lambda: resultant(f, q, "y"))
    assert counted == 0 and value == ref_resultant_value(f, q)
    t = Poly.var(("t",), "t")
    a = (t - F(1, 2)) * (F(2, 3) * t + 1) * (t + 3)
    b = (t - F(1, 2)) * (F(3, 7) * t - 2) * (t + 3)
    counted, common = _fraction_count(monkeypatch, lambda: univariate_gcd(a, b))
    assert counted == 0 and common == (t - F(1, 2)) * (t + 3)
    centre = Centre.from_exponents(("x", "y", "z"), (2, F(3, 2), INF))
    h = Poly(("x", "y", "z"), {(3, 0, 1): F(1, 2), (1, 2, 0): -3, (0, 1, 4): F(2, 5)})
    counted, order = _fraction_count(monkeypatch, lambda: centre.ord_poly(h))
    assert counted == 2 and order == F(2, 3)


def ref_resultant_value(f: Poly, g: Poly) -> Poly:
    """res_y(f, g) for f of degree 2 and g of degree 1 in y: with g = b1*y +
    b0, the Sylvester determinant a2*b0^2 - a1*b0*b1 + a0*b1^2."""
    a0, a1, a2 = f.coefficients_in("y")
    b0, b1 = g.coefficients_in("y")
    return a2 * b0 * b0 - a1 * b0 * b1 + a0 * b1 * b1


# --- division against the Fraction loop --------------------------------------------

def ref_divides(f: Poly, g: Poly):
    """Single-divisor division with Fraction coefficients, every step a
    Fraction quotient of remainder and leading coefficient."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    divisor = f.terms
    lead_exp = max(divisor, key=lambda e: (sum(e), e))
    lead_coeff = divisor[lead_exp]
    quotient = {}
    remainder = dict(g.terms)
    while remainder:
        exponent = max(remainder, key=lambda e: (sum(e), e))
        diff = tuple(a - b for a, b in zip(exponent, lead_exp))
        if any(d < 0 for d in diff):
            return None
        factor = remainder[exponent] / lead_coeff
        quotient[diff] = factor
        for fe, fc in divisor.items():
            target = tuple(a + b for a, b in zip(diff, fe))
            new = remainder.get(target, F(0)) - factor * fc
            if new == 0:
                remainder.pop(target, None)
            else:
                remainder[target] = new
    return Poly(f.variables, quotient, _min_cap(f.cap, g.cap))


@pytest.mark.parametrize("seed", range(60))
def test_divides_against_the_fraction_loop(seed):
    """Divisible pairs f, f*q and perturbed ones, with negative leading
    coefficients, 20-digit denominators, constant divisors and caps."""
    rng = random.Random(seed)
    variables = NAMES[:rng.randint(1, 3)]
    f = _random(rng, variables, terms=4, degree=3)
    if seed % 6 == 0:
        f = Poly.const(variables, _coefficient(rng))
    if f.is_zero():
        f = Poly.const(variables, -F(7, 10 ** 20 + 1))
    lead = max(f.terms, key=lambda e: (sum(e), e))
    if seed % 3 == 1 and f.terms[lead] > 0:
        f = -f
    q = _random(rng, variables, terms=4, degree=3)
    divisible = f * q
    perturbed = divisible + _random(rng, variables, terms=2, degree=4)
    for g in (divisible, perturbed):
        if seed % 4 == 3:
            cap = rng.randint(1, 6)
            f_cut, g_cut = f.with_cap(rng.choice((cap, None))), g.with_cap(cap)
        else:
            f_cut, g_cut = f, g
        if f_cut.is_zero():
            continue
        result, reference = divides(f_cut, g_cut), ref_divides(f_cut, g_cut)
        assert result == reference
        if result is not None:
            assert_canonical(result)
            if f_cut.cap is None and g_cut.cap is None:
                assert f_cut * result == g_cut
    assert divides(f, divisible) == q


# --- centre weights against sorted Fractions -------------------------------------------

def ref_weight_views(centre: Centre):
    """The weights as sorted Fractions with their Fraction gcd; the views
    of WeightData, the weights by variable, the reduced ones and the reduced
    centre."""
    weights = tuple(F(0) if a is INF else 1 / F(a) for a in centre.exponents)
    nonzero = sorted((w for w in weights if w != 0), reverse=True)
    num, den = 0, 1
    for v in nonzero:
        num, den = gcd(num * v.denominator, v.numerator * den), den * v.denominator
        common = gcd(num, den)
        num, den = num // common, den // common
    g = F(num, den)
    padded = nonzero + [F(0)] * (len(weights) - len(nonzero))
    kappa = [F(0)]
    for w in padded:
        kappa.append(kappa[-1] + w)
    return {
        "weight_seq": tuple(nonzero),
        "exponent_seq": tuple(1 / w for w in nonzero),
        "kappa": tuple(kappa),
        "gcd": g,
        "reduced_weight_seq": tuple(int(w / g) for w in padded),
        "weights_by_variable": weights,
        "reduced_weights_by_variable": tuple(int(w / g) for w in weights),
        "reduced": Centre(centre.variables,
                          tuple(a if a is INF else a * g for a in centre.exponents),
                          centre.base_point),
    }


def _exponent_centres():
    values = [F(p, q) for p in range(1, 8) for q in range(1, 4)] + [INF]
    for a, b in itertools.product(values, repeat=2):
        yield ("x", "y"), (a, b)
    rng = random.Random(7)
    for _ in range(300):
        yield ("x", "y", "z"), tuple(rng.choice(values) for _ in range(3))


def test_weight_data_against_sorted_fractions():
    checked = 0
    for variables, exponents in _exponent_centres():
        for point in (None, tuple(F(k - 1, 2) for k in range(len(variables)))):
            centre = Centre.from_exponents(variables, exponents, point)
            if centre.is_trivial():
                with pytest.raises(ValueError, match="trivial"):
                    centre.weight_data()
                assert centre.weights_by_variable() == (F(0),) * len(variables)
                continue
            expected = ref_weight_views(centre)
            data = centre.weight_data()
            for view in ("weight_seq", "exponent_seq", "kappa", "gcd", "reduced_weight_seq"):
                assert getattr(data, view) == expected[view], (centre, view)
            for j in range(len(variables) + 3):
                assert data.kappa_at(j) == expected["kappa"][min(j, len(variables))]
            assert centre.weights_by_variable() == expected["weights_by_variable"]
            assert centre.reduced_weights_by_variable() == \
                expected["reduced_weights_by_variable"]
            assert centre.reduced() == expected["reduced"]
            assert all(type(w) is Fraction for w in
                       data.weight_seq + data.exponent_seq + data.kappa + (data.gcd,)
                       + centre.weights_by_variable())
            assert all(type(r) is int for r in data.reduced_weight_seq)
            checked += 1
    assert checked == 2 * (22 * 22 - 1) + 2 * 300


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


# --- the self-bracket ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_self_bracket_equals_the_full_formula(seed):
    """schouten(s, s) reuses D(s)^s as s^D(s); an equal but distinct copy
    of s takes the full formula."""
    rng = random.Random(seed)
    variables = NAMES[:rng.choice((3, 4))]
    degree = rng.choice((2, 3))
    s = Polyvector(degree, variables, {
        indices: _random(rng, variables, terms=3, degree=3)
        for indices in itertools.combinations(range(len(variables)), degree)})
    s_copy = Polyvector(degree, variables, dict(s.terms))
    assert s_copy == s and s_copy is not s
    assert schouten(s, s) == schouten(s, s_copy)


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
    """Counts, not timings: results of the arithmetic and of re-charting go
    through the trusted constructors, so the validating ones run only for
    coordinate functions, constants, and zero and volume polyvectors.
    Validating every result instead takes the bracket to 49 Poly and 68
    Polyvector constructions and the pullback to 160 and 5; validating the
    re-charted copies takes the pullback to 36 Poly constructions.  The
    lifting conditions and the pullback on a based centre build coordinate
    functions, constants, Euler fields and lifts from data valid by
    construction, and validate nothing."""
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
    for check in (pullback_polyvector, check_lift, check_centre):
        counts.update(Poly=0, Polyvector=0)
        check(xi, centre)
        assert counts == {"Poly": 0, "Polyvector": 0}, (check.__name__, counts)
    counts.update(Poly=0, Polyvector=0)
    g = (f * u).with_cap(9)
    recharted = [g.with_cap(6), g.with_cap(12), g.with_cap(None),
                 g.extend_variables(("w", "x", "y", "z")),
                 g.extend_variables(("w", "x", "y", "z")).drop_variables(("w",)),
                 *g.coefficients_in("y"),
                 _shift_t_down(f * u * z ** 2, 2, 2)]
    assert counts["Poly"] == 0, counts
    for p in recharted:
        assert_canonical(p)
    assert recharted[0] == Poly(g.variables, g.terms, 6)
    assert recharted[1] == Poly(g.variables, g.terms, 12) and recharted[2] == f * u
    assert recharted[-1] == f * u
    with pytest.raises(ValueError, match="duplicate"):
        g.extend_variables(("x", "x", "y", "z"))


def test_based_pullbacks_take_no_substitution_and_no_power(monkeypatch):
    """Counts, not timings: on a based centre the recentring is a Taylor shift
    on the numerators and the blowdown x_i -> x_i*t^w_i an exponent shift, so
    the pullbacks and the lifting conditions call neither ``substitute`` nor
    ``**``.  Through ``substitute`` the four took 2, 6, 3 and 3 substitutions
    and 20, 21, 6 and 6 powers on the inputs below."""
    x, y, z = (Poly.var(("x", "y", "z"), v) for v in ("x", "y", "z"))
    f = x ** 2 * y - y ** 3 * z + x * z ** 2 - 3 * z ** 5
    xi = Polyvector(2, ("x", "y", "z"), {(0, 1): x * y ** 2, (0, 2): z ** 3 - x,
                                         (1, 2): F(1, 2) * y * z})
    centre = Centre.from_exponents(("x", "y", "z"), (2, 3, F(5, 2)), (1, F(-2, 3), F(5, 7)))
    counts = {"substitute": 0, "__pow__": 0}
    for name in counts:
        original = getattr(Poly, name)

        def counting(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Poly, name, counting)
    for check, value in ((blowup.pullback_function, f), (pullback_polyvector, xi),
                         (check_lift, xi), (check_centre, xi)):
        check(value, centre)
        assert counts == {"substitute": 0, "__pow__": 0}, (check.__name__, counts)
