"""Lifting criteria and the weighted blowdown.

Two independent routes decide whether a polyvector field survives the
weighted blowup of a centre:

* :func:`check_lift` evaluates the order conditions directly on the chart:
  the order of the field must be at least -gcd(w), and wedging with the
  weighted Euler field must have non-negative order.
* :func:`pullback_polyvector` applies the blowdown x_i -> t^w_i x_i (reduced
  integer weights) to exponents, rescales the coordinate frame, wedges with
  the multiplicative-group generator t*@t - sum w_i x_i @x_i, and inspects
  t-exponents for poles on the exceptional divisor t = 0.

The two routes are kept independent and compared in the test suite.  For
bivectors, :func:`check_centre` additionally evaluates the coordinate
conditions (P), (CD1), (CD2), (CN) for Poisson / codegenerate / conilpotent
centres, recording a witness for every violated inequality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ring import (
    ExtRational,
    Point,
    Poly,
    format_ext,
    rational_roots,
    resultant,
    univariate_gcd,
)
from .polyvector import Polyvector, wedge
from .centre import Centre, require_exact

EXCEPTIONAL_VARIABLE = "t"


@dataclass
class Witness:
    """One violated condition: which inequality, where, and by how much."""

    tag: str                      # P | CD1 | CD2 | CN | ORD | EULER
    variables: Tuple[str, ...]
    offending: ExtRational
    required: ExtRational
    combination: Optional[Poly] = None   # the offending polynomial, for CD2

    def to_dict(self) -> dict:
        out = {
            "tag": self.tag,
            "variables": list(self.variables),
            "offending": format_ext(self.offending),
            "required": format_ext(self.required),
        }
        if self.combination is not None:
            out["combination"] = str(self.combination)
        return out


@dataclass
class CentreReport:
    """Verdicts of the four lifting criteria for a centre, with witnesses."""

    poisson: Optional[bool] = None
    codegenerate: Optional[bool] = None
    conilpotent: Optional[bool] = None
    lift_ok: Optional[bool] = None
    exceptional_tangent: Optional[bool] = None
    witnesses: List[Witness] = field(default_factory=list)
    order: Optional[ExtRational] = None

    def to_dict(self) -> dict:
        return {
            "poisson": self.poisson,
            "codegenerate": self.codegenerate,
            "conilpotent": self.conilpotent,
            "lift_ok": self.lift_ok,
            "exceptional_tangent": self.exceptional_tangent,
            "order": None if self.order is None else format_ext(self.order),
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


@dataclass
class PullbackResult:
    """Outcome of a pullback along the blowdown.

    min_t_exponent counts in reduced-integer-weight units (so it is an
    integer); for a function it equals ord/gcd(w).  proper_part is the object
    with the maximal t-power removed: for a function, the strict transform
    equation in the t-chart.
    """

    min_t_exponent: int
    proper_part: Union[Poly, Polyvector]
    regular: bool
    exceptional_tangent: Optional[bool] = None
    variables: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SliceChart:
    """A chart of the blowup obtained by setting one positive-weight variable to 1.

    The residual group order is the reduced integer weight of the slice
    variable; the chart is an honest affine chart on the cover of order that
    size.
    """

    slice_variable: str
    residual_group_order: int
    variables: Tuple[str, ...]

    def __post_init__(self):
        if self.residual_group_order < 1:
            raise ValueError("residual group order must be at least 1")


# ---------------------------------------------------------------------------
# coordinate conditions for bivectors
# ---------------------------------------------------------------------------

def check_centre(sigma: Polyvector, centre: Centre) -> CentreReport:
    """Evaluate the Poisson / codegenerate / conilpotent conditions of a centre.

    The coordinate brackets {x_i, x_j} are the bivector coefficients.  The
    conditions, with w the weights and g = gcd(w):

        (P)   ord {x_i, x_j}  >=  max(w_i, w_j)             for all i < j
        (CD1) ord {x_i, x_j}  >=  w_i + w_j - g             for all i < j
        (CD2) ord (w_i x_i {x_j,x_k} + cyclic)  >=  w_i + w_j + w_k
        (CN)  ord {x_i, x_j}  >=  w_i + w_j

    A witness is recorded for every failed inequality.  Conilpotent implies
    codegenerate implies Poisson; the chain is asserted for centres of
    codimension at least two (for codimension one the middle implication can
    fail, matching the trivial blowup of a divisor).
    """
    require_exact(sigma)
    if sigma.is_zero():
        sigma = Polyvector._from_canonical(2, sigma.variables, {})
    elif sigma.degree != 2:
        raise ValueError("check_centre expects a bivector")
    if sigma.variables != centre.variables:
        raise ValueError("chart mismatch between bivector and centre")
    if centre.is_trivial():
        raise ValueError("the trivial centre admits no lifting analysis")
    if centre.base_point is not None:
        sigma = sigma.translate(centre.base_point)
        centre = centre.translated_to_origin()

    weights = centre.weights_by_variable()
    gcd = centre.weight_data().gcd
    n = len(centre.variables)
    report = CentreReport(witnesses=[])

    poisson = codegenerate = conilpotent = True
    brackets: Dict[Tuple[int, int], Poly] = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = sigma.bracket_of_coordinates(i, j)

    for (i, j), bracket in brackets.items():
        order = centre.ord_poly(bracket)
        pair = (centre.variables[i], centre.variables[j])
        checks = (
            ("P", max(weights[i], weights[j])),
            ("CD1", weights[i] + weights[j] - gcd),
            ("CN", weights[i] + weights[j]),
        )
        for tag, required in checks:
            if order < required:
                report.witnesses.append(Witness(tag, pair, order, required))
                if tag == "P":
                    poisson = False
                elif tag == "CD1":
                    codegenerate = False
                else:
                    conilpotent = False

    for i, j, k in itertools.combinations(range(n), 3):
        combination = (
            brackets[(j, k)] * Poly.var(centre.variables, centre.variables[i]).scale(weights[i])
            - brackets[(i, k)] * Poly.var(centre.variables, centre.variables[j]).scale(weights[j])
            + brackets[(i, j)] * Poly.var(centre.variables, centre.variables[k]).scale(weights[k])
        )
        required = weights[i] + weights[j] + weights[k]
        order = centre.ord_poly(combination)
        if order < required:
            codegenerate = False
            triple = (centre.variables[i], centre.variables[j], centre.variables[k])
            report.witnesses.append(Witness("CD2", triple, order, required,
                                            combination=combination))

    report.poisson = poisson
    report.codegenerate = codegenerate
    report.conilpotent = conilpotent
    lift = check_lift(sigma, centre)
    report.order = lift.order
    report.exceptional_tangent = lift.exceptional_tangent
    report.lift_ok = lift.lift_ok
    assert report.lift_ok == report.codegenerate, \
        "order-based lift conditions disagree with (CD1)+(CD2)"
    if centre.codimension() >= 2:
        assert (not conilpotent or codegenerate) and (not codegenerate or poisson), \
            "conilpotent => codegenerate => Poisson chain violated"
    return report


def check_lift(xi: Polyvector, centre: Centre) -> CentreReport:
    """The two order conditions for a polyvector to lift to the blowup.

    (1) ord(xi) >= -gcd(w); (2) ord(E ^ xi) >= 0 for the weighted Euler field
    E, which is Euler-like on the chart.  The lift is tangent to the
    exceptional divisor exactly when ord(xi) >= 0.
    """
    require_exact(xi)
    if xi.variables != centre.variables:
        raise ValueError("chart mismatch between polyvector and centre")
    if centre.is_trivial():
        raise ValueError("the trivial centre admits no lifting analysis")
    if centre.base_point is not None:
        xi = xi.translate(centre.base_point)
        centre = centre.translated_to_origin()

    gcd = centre.weight_data().gcd
    order = centre.ord_polyvector(xi)
    report = CentreReport(witnesses=[], order=order)
    condition_order = order >= -gcd
    if not condition_order:
        report.witnesses.append(Witness("ORD", (), order, -gcd))
    euler_wedge_order = centre.ord_polyvector(wedge(centre.euler_field(), xi))
    condition_euler = euler_wedge_order >= 0
    if not condition_euler:
        report.witnesses.append(Witness("EULER", (), euler_wedge_order, Fraction(0)))
    report.lift_ok = condition_order and condition_euler
    report.exceptional_tangent = order >= 0
    return report


# ---------------------------------------------------------------------------
# the blowdown
# ---------------------------------------------------------------------------

def exceptional_name(variables: Sequence[str]) -> str:
    """The exceptional-divisor coordinate: "t", or "t1", "t2", ... if taken."""
    if EXCEPTIONAL_VARIABLE not in variables:
        return EXCEPTIONAL_VARIABLE
    k = 1
    while f"{EXCEPTIONAL_VARIABLE}{k}" in variables:
        k += 1
    return f"{EXCEPTIONAL_VARIABLE}{k}"


def _extended_chart(centre: Centre) -> Tuple[Tuple[str, ...], int]:
    variables = centre.variables + (exceptional_name(centre.variables),)
    return variables, len(variables) - 1


def _blowdown(f: Poly, reduced: Sequence[int], extended: Tuple[str, ...],
              twist: int = 0) -> Poly:
    """f(t^w x) * t^twist on the extended chart: each n*x^e becomes
    n*x^e*t^(w.e + twist) over the same denominator."""
    nums = {exponent + (sum(map(mul, reduced, exponent)) + twist,): n
            for exponent, n in f.nums.items()}
    return Poly._from_numerators(extended, nums, f.den, None)


def _shift_t_down(f: Poly, t_index: int, amount: int) -> Poly:
    if amount == 0:
        return f
    nums = {}
    for exponent, n in f.nums.items():
        if exponent[t_index] < amount:
            raise ValueError("cannot remove more t-powers than present")
        new = exponent[:t_index] + (exponent[t_index] - amount,) + exponent[t_index + 1:]
        nums[new] = n
    return Poly._from_numerators(f.variables, nums, f.den, None)


def pullback_function(f: Poly, centre: Centre) -> PullbackResult:
    """Pullback of a function along the blowdown: f(t^w x) = t^m * (strict transform).

    m is the weighted order in reduced integer units, i.e. ord(f)/gcd(w); the
    proper part is not divisible by t.
    """
    require_exact(f)
    if f.is_zero():
        raise ValueError("pullback of the zero polynomial")
    if f.variables != centre.variables:
        raise ValueError("chart mismatch")
    if centre.base_point is not None:
        f = f.translate(centre.base_point)
        centre = centre.translated_to_origin()
    extended, t_index = _extended_chart(centre)
    lifted = _blowdown(f, centre.reduced_weights_by_variable(), Poly._chart(extended))
    m = min(e[t_index] for e in lifted.nums)
    expected = centre.ord_poly(f) / centre.weight_data().gcd
    assert m == expected, f"t-exponent {m} disagrees with ord/gcd = {expected}"
    return PullbackResult(
        min_t_exponent=m,
        proper_part=_shift_t_down(lifted, t_index, m),
        regular=True,
        variables=extended,
    )


def degeneration_euler_generator(centre: Centre) -> Polyvector:
    """The generator t*@t - sum w_i x_i @x_i on the extended (x, t) chart."""
    extended, t_index = _extended_chart(centre)
    reduced = centre.reduced_weights_by_variable()
    terms: Dict[Tuple[int, ...], Poly] = {
        (t_index,): Poly.var(extended, extended[t_index])}
    for i, (name, weight) in enumerate(zip(centre.variables, reduced)):
        if weight:
            terms[(i,)] = Poly.var(extended, name).scale(-weight)
    return Polyvector._from_canonical(1, extended, terms)


def pullback_polyvector(xi: Polyvector, centre: Centre) -> PullbackResult:
    """Pullback of a polyvector along the blowdown, with pole detection.

    Coefficients are lifted through x_i -> t^w_i x_i and each @x_i picks up
    t^(-w_i); the pullback to the blowup is represented by E~ ^ xi~ where E~
    is the degeneration generator.  A uniform t^shift keeps every exponent
    non-negative: the coefficient of @x_I is one :func:`_blowdown` with the
    twist shift - sum_{i in I} w_i, and the shift is subtracted at the end.

    The result is regular (the polyvector lifts) when the minimum t-exponent
    over all terms of E~ ^ xi~ is non-negative, and tangent to the exceptional
    divisor t = 0 when every @t-component is divisible by t.  proper_part is
    t^-k xi~ with k the minimal t-exponent of xi~ itself.
    """
    require_exact(xi)
    if xi.variables != centre.variables:
        raise ValueError("chart mismatch")
    if centre.base_point is not None:
        xi = xi.translate(centre.base_point)
        centre = centre.translated_to_origin()
    extended, t_index = _extended_chart(centre)
    reduced = centre.reduced_weights_by_variable()
    shift = sum(reduced)

    if xi.is_zero():
        zero = Polyvector.zero(xi.degree, extended)
        return PullbackResult(0, zero, True, True, extended)

    # t^shift * xi~, an honest polyvector on the extended chart
    lifted_terms: Dict[Tuple[int, ...], Poly] = {}
    for indices, coeff in xi.terms.items():
        frame_twist = shift - sum(reduced[i] for i in indices)
        lifted_terms[indices] = _blowdown(coeff, reduced, extended, frame_twist)
    lifted_xi = Polyvector._from_canonical(xi.degree, extended, lifted_terms)

    generator = degeneration_euler_generator(centre)
    full = wedge(generator, lifted_xi)

    # the least t-exponent of the (@t-)components; t*@t ^ xi~ makes both exist
    def min_t(pv: Polyvector, only_t_components: bool = False) -> int:
        return min(e[t_index] for indices, coeff in pv.terms.items()
                   if not only_t_components or t_index in indices for e in coeff.nums)

    min_exponent = min_t(full) - shift
    tangent = min_t(full, only_t_components=True) - shift >= 1
    xi_min = min_t(lifted_xi)
    proper = lifted_xi.map_coefficients(lambda c: _shift_t_down(c, t_index, xi_min))

    return PullbackResult(
        min_t_exponent=min_exponent,
        proper_part=proper,
        regular=min_exponent >= 0,
        exceptional_tangent=tangent,
        variables=extended,
    )


# ---------------------------------------------------------------------------
# slice charts and strict transforms
# ---------------------------------------------------------------------------

def slice_chart(centre: Centre, name: str) -> SliceChart:
    """The chart of the blowup where the positive-weight variable ``name`` is 1."""
    reduced = dict(zip(centre.variables, centre.reduced_weights_by_variable()))
    if name not in reduced:
        raise ValueError(f"unknown variable {name!r}")
    if reduced[name] == 0:
        raise ValueError(f"variable {name!r} has weight zero; it gives no slice chart")
    extended, _ = _extended_chart(centre)
    remaining = tuple(v for v in extended if v != name)
    return SliceChart(name, reduced[name], remaining)


def strict_transform_in_chart(f: Poly, centre: Centre, name: str) -> Poly:
    """Strict transform equation in the slice chart ``name`` = 1."""
    proper = pullback_function(f, centre).proper_part
    assert isinstance(proper, Poly)
    return _restrict_to_slice(proper, slice_chart(centre, name))


def _restrict_to_slice(proper: Poly, chart: SliceChart) -> Poly:
    """A proper part on the extended chart, restricted to a slice chart."""
    return proper.specialise(chart.slice_variable, 1)


# ---------------------------------------------------------------------------
# singular points of plane curves
# ---------------------------------------------------------------------------

def rational_singular_points(f: Poly) -> Tuple[List[Point], bool]:
    """Common rational zeros of (f, df/du, df/dv) for a two-variable curve.

    Returns (points, certain).  ``certain`` is False when non-rational common
    zeros may exist (detected through residual factors of the eliminant), in
    which case the returned list may be incomplete, and on a singular line
    (f in one variable with a repeated factor), where the list is empty.
    """
    if len(f.variables) != 2:
        raise ValueError("rational_singular_points expects a two-variable chart")
    u, v = f.variables
    fu, fv = f.diff(u), f.diff(v)
    if fu.is_zero() and fv.is_zero():
        return [], True  # nonzero constant: empty smooth curve
    if fu.is_zero() or fv.is_zero():
        # f is univariate (fu + fv is its derivative): each repeated factor
        # is a whole line of singular points, which no finite list describes
        other = u if fu.is_zero() else v
        g = univariate_gcd(*(p.drop_variables([other]) for p in (f, fu + fv)))
        return [], g.total_degree() <= 0

    eliminants = []
    for left, right in ((f, fu), (f, fv), (fu, fv)):
        if left.degree_in(v) <= 0 and right.degree_in(v) <= 0:
            continue
        r = resultant(left, right, v)
        if not r.is_zero():
            eliminants.append(r)
    if not eliminants:
        return [], False  # every elimination degenerates
    eliminant = eliminants[0]
    for r in eliminants[1:]:
        eliminant = univariate_gcd(eliminant, r)
    if eliminant.total_degree() <= 0:
        return [], True
    u_candidates = rational_roots(eliminant)
    accounted = 0
    points: List[Point] = []
    for u0 in sorted(set(u_candidates)):
        slice_f, slice_fu, slice_fv = (p.specialise(u, u0) for p in (f, fu, fv))
        common = univariate_gcd(univariate_gcd(slice_f, slice_fu), slice_fv)
        if common.is_zero():
            return [], False
        if common.total_degree() <= 0:
            accounted += u_candidates.count(u0)
            continue
        v_roots = rational_roots(common)
        if len(v_roots) < common.total_degree():
            return [p for p in points], False
        for v0 in sorted(set(v_roots)):
            points.append((u0, v0))
        accounted += u_candidates.count(u0)
    certain = accounted >= eliminant.total_degree()
    if not certain:
        # candidate non-rational u-coordinates remain unexamined
        return points, False
    return points, True


def exceptional_singular_points(f: Poly, t: str) -> Tuple[List[Point], bool]:
    """Rational singular points of a two-variable curve on the divisor t = 0.

    With f = g(u) + h(u)*t + O(t^2), the point (u0, 0) is singular exactly
    when g(u0) = g'(u0) = h(u0) = 0, that is at a root of gcd(g, g', h).
    Returns (points, certain) as :func:`rational_singular_points` does:
    ``certain`` is False when the gcd has a root that is not rational, or
    is zero (t^2 divides f, so the whole divisor is singular).
    """
    if len(f.variables) != 2:
        raise ValueError("exceptional_singular_points expects a two-variable chart")
    coeffs = f.coefficients_in(t)
    g = coeffs[0]
    h = coeffs[1] if len(coeffs) > 1 else Poly.zero(g.variables)
    common = univariate_gcd(univariate_gcd(g, g.diff(g.variables[0])), h)
    if common.is_zero():
        return [], False
    roots = rational_roots(common)
    zero = Fraction(0)
    points: List[Point] = [(zero, u0) if f.variables[0] == t else (u0, zero)
                           for u0 in sorted(set(roots))]
    return points, len(roots) == common.total_degree()
