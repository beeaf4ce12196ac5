"""Desk-scale singularity classification for surfaces in three variables.

Milnor numbers and isolatedness are decided by exact linear algebra on
degree-truncated local algebras: dims[j] = dim O/(ideal + m^j), and the first
j with dims[j] == dims[j + 1] certifies that m^j lies in the ideal
(Nakayama), so the dimension has stabilised.  Non-isolated loci are
certified by rational lines contained in the singular locus; anything
neither certified finite nor certified infinite is reported indeterminate,
never guessed.

One row reduction gives dims[j] for every j <= k: the shifts x^a*g cut below
degree k pivot on their lowest monomial in a degree-first order.  Cut below
j, the pivots led in degree >= j vanish and the others keep distinct leads,
spanning (ideal + m^j)/m^j: its dimension is the number of pivots of degree
< j.  k runs through 6, 12, 24, ... capped at the bound plus one; small
passes certify most germs, and one pass at the bound fills in far more.

Surface germs are classified by Arnold's determinator (Funct. Anal. Appl. 6,
1972; Arnold, Gusein-Zade and Varchenko, Singularities of Differentiable
Maps I, section 16), which needs no search over coordinates: the rank of the
Hessian over Q, the root type of the cubic part on the Hessian kernel and the
Milnor number decide between A, D, E, normal crossings, the Whitney umbrella
and ``other``.  The class fixes the invariant exactly.  One exact linear
change of coordinates, logged as shears, and one completion of the square
prepare the germ so that the centre of its class sees the normal form; the
monomial centre of the prepared form witnesses the invariant.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ring import MAX_TERMS, Point, Poly, _expansion_bound, divides, insert_row
from .polyvector import (
    OTHER,
    SPLIT_NONABELIAN,
    Lie3Class,
    Polyvector,
    interior_product_df,
    is_poisson,
    is_tangent,
    jacobian_poisson,
    linearize,
    shear,
    wedge,
)
from .centre import Centre
from .invariant import (
    InvariantSeq,
    MonomialCentreResult,
    max_monomial_centre,
    subleading_shift,
    validate_invariant,
)

DEFAULT_DEGREE_BOUND = 12
UNBOUNDED = "unbounded"
INDETERMINATE = "indeterminate"


# ---------------------------------------------------------------------------
# local algebra dimensions
# ---------------------------------------------------------------------------

def _local_dimensions(generators: Sequence[Poly], degree: int) -> List[int]:
    """[dim O/(ideal + m^j) for j = 0..degree] from one row reduction.

    Each g enters as its integer numerators, a multiple of g spanning the
    same rows.  A monomial e is packed into the int
    |e|*B^n + sum e_i*B^(n-1-i), B = 2^w > degree: packing is additive, ints
    compare like grlex, and the packed e is below ``degree``*B^n exactly when
    |e| < ``degree``.  Sparsest generators and each one's highest shifts go
    first, which keeps the fill-in low (on the classify benchmark, lowest
    shifts first cost about 1.5 times as much).
    """
    generators = sorted((g for g in generators if not g.is_zero()),
                        key=lambda g: len(g.nums))
    if not generators:
        raise ValueError("no nonzero generators")
    n, width = len(generators[0].variables), degree.bit_length()
    top = degree << (n * width)
    units = [1 << (n * width) | 1 << ((n - 1 - i) * width) for i in range(n)]
    shifts = sorted(sum(monomial) for d in range(degree)
                    for monomial in itertools.combinations_with_replacement(units, d))
    pivots: Dict[int, Dict[int, int]] = {}
    for g in generators:
        terms = sorted((sum(map(mul, e, units)), n)
                       for e, n in g.nums.items() if sum(e) < degree)
        if not terms:
            continue
        codes = [code for code, _ in terms]
        numerators = [n for _, n in terms]
        for alpha in reversed(shifts[:bisect_left(shifts, top - codes[0])]):
            kept = bisect_left(codes, top - alpha)
            insert_row(pivots, {alpha + code: c
                                for code, c in zip(codes[:kept], numerators)})
    leads_by_degree = [0] * degree
    for lead in pivots:
        leads_by_degree[lead >> n * width] += 1
    ranks = [0, *itertools.accumulate(leads_by_degree)]
    return [comb(j - 1 + n, n) - ranks[j] for j in range(degree + 1)]


def local_quotient_dimension(generators: Sequence[Poly], degree: int) -> int:
    """dim of O/(ideal + m^degree), the last entry of ``_local_dimensions``."""
    return _local_dimensions(generators, degree)[degree]


@lru_cache(maxsize=None)
def _rational_line_directions(dimension: int) -> Tuple[Tuple[int, ...], ...]:
    """Primitive integer directions with entries in -3..3."""
    seen = {}
    for entries in itertools.product(range(-3, 4), repeat=dimension):
        if all(e == 0 for e in entries):
            continue
        g = gcd(*entries)
        primitive = tuple(e // g for e in entries)
        first = next(e for e in primitive if e != 0)
        if first < 0:
            primitive = tuple(-e for e in primitive)
        seen.setdefault(primitive, None)
    return tuple(seen)


def line_in_zero_locus(generators: Sequence[Poly]) -> Optional[Tuple[int, ...]]:
    """A rational line through the origin on which every generator vanishes.

    Searches the small catalogue of primitive integer directions; a hit is a
    certificate that the common zero locus is not a fat point.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        return None
    parts = [_integer_parts(g) for g in generators]
    for direction in _rational_line_directions(len(generators[0].variables)):
        if all(_vanishes_on_line(p, direction) for p in parts):
            return direction
    return None


IntegerParts = List[List[Tuple[Tuple[int, ...], int]]]


def _integer_parts(g: Poly) -> IntegerParts:
    """The homogeneous parts of g, lowest degree first, as (exponent, int)
    terms: the numerators of g, a multiple of g with the same zeros."""
    parts: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
    for exponent, c in g.nums.items():
        parts.setdefault(sum(exponent), []).append((exponent, c))
    return [parts[d] for d in sorted(parts)]


def _vanishes_on_line(parts: IntegerParts, direction: Tuple[int, ...]) -> bool:
    """Whether g, given by its ``_integer_parts``, vanishes on the line
    through ``direction``.

    g(s*d) is the sum of s^k g_k(d) over the homogeneous parts g_k of g, so
    it is zero exactly when every homogeneous part vanishes at d; the parts
    are tested lowest degree first and the first nonzero value decides.
    """
    for part in parts:
        total = 0
        for exponent, value in part:
            for d, k in zip(direction, exponent):
                if k:
                    value *= d ** k
            total += value
        if total:
            return False
    return True


def local_dimension_is_zero(generators: Sequence[Poly],
                            degree_bound: int = DEFAULT_DEGREE_BOUND
                            ) -> Tuple[Optional[bool], Optional[int]]:
    """Whether the generators cut out a fat point at the origin.

    Returns (verdict, dimension): (True, dim) with the stabilised quotient
    dimension, (False, None) when a rational line through the origin lies in
    the zero set (divisibility certificate), or (None, None) when the bound
    is exhausted.  The certificate is the first j in 2..``degree_bound``
    with dims[j] == dims[j + 1]; the dimensions come from one reduction per
    degree k of the schedule 6, 12, 24, ... capped at ``degree_bound`` + 1.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        return False, None
    if line_in_zero_locus(generators) is not None:
        return False, None
    last = degree_bound + 1
    degree = min(6, last)
    while True:
        dims = _local_dimensions(generators, degree)
        for j in range(2, degree):
            if dims[j] == dims[j + 1]:
                return True, dims[j]
        if degree >= last:
            return None, None
        degree = min(2 * degree, last)


def milnor_number(f: Poly,
                  degree_bound: int = DEFAULT_DEGREE_BOUND) -> Union[int, str]:
    """Dimension of the local algebra O/(partial derivatives of f).

    Stabilisation of the truncated dimensions certifies the value; a
    rational line inside the critical locus certifies ``unbounded``
    (non-isolated).  When the degree bound is exhausted without either
    certificate the result is ``indeterminate``.
    """
    if f.constant_term() != 0:
        raise ValueError("the germ must vanish at the origin")
    gradient = [f.diff(v) for v in f.variables]
    verdict, dimension = local_dimension_is_zero(gradient, degree_bound)
    if verdict is None:
        return INDETERMINATE
    return dimension if verdict else UNBOUNDED


def is_isolated_singularity(f: Poly,
                            degree_bound: int = DEFAULT_DEGREE_BOUND
                            ) -> Union[bool, str]:
    """Whether the singular locus of V(f) is at most the origin.

    True when the Milnor number is finite; False when it is ``unbounded``: f
    is constant, hence zero, along the certifying line, so the line lies in
    the singular locus; ``indeterminate`` otherwise.
    """
    mu = milnor_number(f, degree_bound)
    return INDETERMINATE if mu == INDETERMINATE else mu != UNBOUNDED


# ---------------------------------------------------------------------------
# surface classification
# ---------------------------------------------------------------------------

SMOOTH = "smooth"
NORMAL_CROSSINGS_2 = "normal_crossings_2"
WHITNEY_UMBRELLA = "whitney_umbrella"
A_CLASS = "A"
D_CLASS = "D"
E6 = "E6"
E7 = "E7"
E8 = "E8"
OTHER_CLASS = "other"

# quasi-homogeneity exponents of the standard equations, per class
def class_exponents(kind: str, index: Optional[int] = None) -> Tuple[Fraction, ...]:
    if kind == A_CLASS:
        assert index is not None and index >= 1
        return (Fraction(2), Fraction(2), Fraction(index + 1))
    if kind == D_CLASS:
        assert index is not None and index >= 4
        return (Fraction(2), 2 + Fraction(2, index - 2), Fraction(index - 1))
    return {E6: (Fraction(2), Fraction(3), Fraction(4)),
            E7: (Fraction(2), Fraction(3), Fraction(9, 2)),
            E8: (Fraction(2), Fraction(3), Fraction(5))}[kind]


@dataclass
class SingularityClass:
    kind: str
    index: Optional[int] = None              # n for A(n), D(n)
    invariant: Optional[InvariantSeq] = None
    milnor: Optional[Union[int, str]] = None
    witness_centre: Optional[Centre] = None
    preparation: List[Tuple[str, Poly]] = field(default_factory=list)
    prepared: Optional[Poly] = None          # the germ after ``preparation``
    diagnostics: List[str] = field(default_factory=list)

    def __post_init__(self):
        if self.kind == A_CLASS and (self.index is None or self.index < 1):
            raise ValueError("A(n) requires n >= 1")
        if self.kind == D_CLASS and (self.index is None or self.index < 4):
            raise ValueError("D(n) requires n >= 4")

    def label(self) -> str:
        if self.kind in (A_CLASS, D_CLASS):
            return f"{self.kind}{self.index}"
        return self.kind

    def is_du_val(self) -> bool:
        return self.kind in (A_CLASS, D_CLASS, E6, E7, E8)


def _homogeneous_part(f: Poly, degree: int) -> Poly:
    return Poly._from_numerators(
        f.variables, {e: n for e, n in f.nums.items() if sum(e) == degree}, f.den, None)


def _complete_square(f: Poly) -> Optional[Tuple[Poly, Tuple[str, Poly]]]:
    """One exact Morse step: kill the linear-in-u part when f is quadratic in u."""
    if f.min_total_degree() != 2:
        return None
    for name in f.variables:
        if f.degree_in(name) != 2:
            continue
        found = subleading_shift(f, name)
        if found is not None:
            step = (name, found[0])
            return shear(f, *step), step
    return None


def _diagonalise(q: Poly) -> Tuple[List[Tuple[str, Poly]], List[str]]:
    """Shears taking the quadratic form q to a diagonal form (Lagrange).

    Each round takes the first variable u whose square occurs and removes
    the cross terms u*w by u -> u + shift; when no square occurs, a cross
    term v*w is turned into a square by v -> v + w first.  Returns the steps
    in order and the pivots, the Morse coordinates: their number is the rank
    of q over Q.  A diagonal q gives no steps.
    """
    variables = q.variables
    steps: List[Tuple[str, Poly]] = []
    morse: List[str] = []
    while not q.is_zero():
        squares = [v for v in variables
                   if tuple(2 if w == v else 0 for w in variables) in q.nums]
        if squares:
            pivot = squares[0]
        else:
            exponent = min(q.nums)
            source, pivot = [v for v, e in zip(variables, exponent) if e]
            steps.append((source, Poly.var(variables, pivot)))
            q = shear(q, *steps[-1])
        found = subleading_shift(q, pivot)
        if found is not None:
            steps.append((pivot, found[0]))
            q = shear(q, *steps[-1])
        morse.append(pivot)
        q = q.coefficients_in(pivot)[0].extend_variables(variables)
    return steps, morse


ZERO_CUBIC = "zero"
DISTINCT_ROOTS = "distinct"
DOUBLE_ROOT = "double"
TRIPLE_ROOT = "triple"


def binary_cubic_type(cubic: Poly) -> Tuple[str, Optional[Tuple[Fraction, Fraction]]]:
    """Root type of a binary cubic form and its multiple linear factor.

    For a v^3 + b v^2 w + c v w^2 + d w^3 in the chart (v, w): ``zero``;
    ``distinct`` when the discriminant is nonzero; ``triple`` when the
    Hessian covariant (b^2 - 3ac) v^2 + (bc - 9ad) v w + (c^2 - 3bd) w^2
    vanishes, the cubic being a cube L^3; ``double`` otherwise, the cubic
    being L^2 M and the covariant a multiple of L^2.  The second entry holds
    the coefficients (l_v, l_w) of L, None when there is no multiple root.
    """
    if len(cubic.variables) != 2:
        raise ValueError("a binary cubic lives in a two-variable chart")
    a, b, c, d = (cubic.terms.get((3 - i, i), Fraction(0)) for i in range(4))
    if a == b == c == d == 0:
        return ZERO_CUBIC, None
    if b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d \
            + 18 * a * b * c * d != 0:
        return DISTINCT_ROOTS, None
    p, q, r = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
    if p == q == r == 0:
        factor = (3 * a, b) if a else (Fraction(0), Fraction(1))
        return TRIPLE_ROOT, factor
    factor = (2 * p, q) if p else (Fraction(0), Fraction(1))
    return DOUBLE_ROOT, factor


def _class_invariant(kind: str, index: Optional[int]) -> InvariantSeq:
    """The exact invariant of a class; for D(n), n >= 5, it is not
    class_exponents (D5 would sort to (2,8/3,4), lex below (2,3,3))."""
    if kind == NORMAL_CROSSINGS_2:
        entries: Tuple[Fraction, ...] = (Fraction(2), Fraction(2))
    elif kind in (D_CLASS, WHITNEY_UMBRELLA):
        entries = (Fraction(2), Fraction(3), Fraction(3))
    else:
        entries = class_exponents(kind, index)
    return validate_invariant(InvariantSeq(entries))


def _prepare(f: Poly) -> Tuple[Poly, List[Tuple[str, Poly]], List[str], Optional[str]]:
    """One exact linear change, logged as shears, then one square completion.

    The change diagonalises the Hessian, its pivots becoming the Morse
    coordinates.  With one Morse coordinate it also puts the multiple linear
    factor of the cubic on the Hessian kernel onto a kernel coordinate.
    Returns the prepared form, the steps, the Morse coordinates and the root
    type of that cubic (None unless the Hessian has rank one).
    """
    variables = f.variables
    steps, morse = _diagonalise(_homogeneous_part(f, 2))
    root_type = None
    if len(morse) == 1:
        cubic = _homogeneous_part(f, 3)
        for step in steps:
            cubic = shear(cubic, *step)
        on_kernel = cubic.coefficients_in(morse[0])[0]
        kernel = on_kernel.variables
        root_type, factor = binary_cubic_type(on_kernel)
        if factor is not None and factor[0] != 0 and factor[1] != 0:
            # v -> v - (l_w/l_v) w turns the factor l_v v + l_w w into l_v v
            steps.append((kernel[0],
                          Poly.var(variables, kernel[1]).scale(-factor[1] / factor[0])))
    prepared = f
    for step in steps:
        prepared = shear(prepared, *step)
    completed = _complete_square(prepared)
    if completed is not None:
        prepared, step = completed
        steps.append(step)
    return prepared, steps, morse, root_type


def classify_surface(f: Poly) -> SingularityClass:
    """Classify a surface germ in three variables at the origin.

    Arnold's determinator, from the rank of the Hessian over Q, the cubic
    part of f on the Hessian kernel and the Milnor number mu (at
    ``DEFAULT_DEGREE_BOUND``):

    * rank 3: A1;
    * rank 2: A(mu), or normal crossings when mu is unbounded;
    * rank 1: D4 when the cubic has three distinct roots, D(mu) or the
      Whitney umbrella (mu unbounded) for a double root, E6, E7 or E8 for a
      triple root with mu 6, 7 or 8;
    * anything else (rank 0, a vanishing cubic, another mu) is ``other``.

    mu is computed on the prepared form (see ``_prepare``), which is f in
    coordinates related by shears and one square completion, automorphisms
    that leave mu unchanged; a singular line the preparation straightens
    onto an axis is found there.  The monomial centre of the prepared form
    is the witness when it reaches the exact invariant of the class; for
    ``other`` its lower bound is reported.
    """
    if len(f.variables) != 3:
        raise ValueError("classify_surface expects a three-variable chart")
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a surface")
    if f.constant_term() != 0:
        raise ValueError("the germ must vanish at the origin; translate first")
    if f.min_total_degree() == 1:
        return SingularityClass(SMOOTH, prepared=f)

    prepared, steps, morse, root_type = _prepare(f)
    report = SingularityClass(OTHER_CLASS, preparation=steps, prepared=prepared)
    if len(morse) == 3:
        report.kind, report.index, report.milnor = A_CLASS, 1, 1
    elif len(morse) == 2:
        mu = report.milnor = milnor_number(prepared)
        if isinstance(mu, int):
            report.kind, report.index = A_CLASS, mu
        elif mu == UNBOUNDED:
            report.kind = NORMAL_CROSSINGS_2
        else:
            report.diagnostics.append(f"Hessian rank 2 but Milnor number {mu}")
    elif root_type == ZERO_CUBIC:
        report.diagnostics.append(
            "the cubic vanishes on the Hessian kernel: not a simple singularity")
    elif root_type is not None:
        mu = report.milnor = milnor_number(prepared)
        if root_type == DISTINCT_ROOTS:
            report.kind, report.index = D_CLASS, 4
        elif root_type == DOUBLE_ROOT and isinstance(mu, int) and mu >= 4:
            report.kind, report.index = D_CLASS, mu
        elif root_type == DOUBLE_ROOT and mu == UNBOUNDED:
            report.kind = WHITNEY_UMBRELLA
        elif root_type == TRIPLE_ROOT and mu in (6, 7, 8):
            report.kind = {6: E6, 7: E7, 8: E8}[mu]
        else:
            report.diagnostics.append(f"cubic with a {root_type} root but Milnor number {mu}")
    else:
        report.diagnostics.append("the 2-jet vanishes: not a simple singularity")

    try:
        found: Optional[MonomialCentreResult] = max_monomial_centre(prepared)
    except ValueError:
        found = None
    if report.kind == OTHER_CLASS:
        if found is None:
            report.diagnostics.append("no admissible monomial centre")
        else:
            report.invariant, report.witness_centre = found.invariant, found.centre
        return report
    report.invariant = _class_invariant(report.kind, report.index)
    if found is not None and found.invariant.entries == report.invariant.entries:
        report.witness_centre = found.centre
    else:
        reached = "none" if found is None else f"({found.invariant})"
        report.diagnostics.append(
            f"no monomial centre of the prepared form reaches ({report.invariant}): "
            f"best {reached}")
    return report


# ---------------------------------------------------------------------------
# triple detectors
# ---------------------------------------------------------------------------

@dataclass
class TripleReport:
    point: Point
    lie_class: Optional[Lie3Class] = None
    duval: Optional[bool] = None
    duval_witness_centre: Optional[Centre] = None
    isolated_sigma_zero: Optional[bool] = None
    surface_class: Optional[SingularityClass] = None
    diagnostics: List[str] = field(default_factory=list)

    def __post_init__(self):
        if self.duval:
            assert self.isolated_sigma_zero, "Du Val points require an isolated zero"

    @property
    def non_nilpotent(self) -> Optional[bool]:
        if self.lie_class is None:
            return None
        return self.lie_class == SPLIT_NONABELIAN


def ideal_member_structured(h: Poly, coordinate_gen: Poly, plane_gen: Optional[Poly]) -> bool:
    """Membership in (u, g) where u = x + s(rest) is coordinate-like.

    Substituting x -> -s kills the first generator; membership then reduces
    to exact divisibility by g in the remaining variables.  This covers the
    normal-form ideals used by the triple drivers; general ideal membership
    is out of scope.
    """
    variables = h.variables
    name = None
    for v in variables:
        unit = tuple(1 if w == v else 0 for w in variables)
        coeff = coordinate_gen.terms.get(unit)
        if coeff is not None and coordinate_gen.degree_in(v) == 1:
            rest = coordinate_gen - Poly.var(variables, v).scale(coeff)
            if rest.degree_in(v) <= 0:
                name = v
                shift = rest.scale(Fraction(1) / coeff)
                break
    if name is None:
        raise ValueError(f"generator {coordinate_gen} is not coordinate-like")
    reduced = h.substitute({name: -shift})
    if reduced.is_zero():
        return True
    if plane_gen is None:
        return False
    plane = plane_gen.substitute({name: -shift})
    return divides(plane, reduced) is not None


def sigma_tangent_to_ideal(sigma: Polyvector, generators: Sequence[Poly]) -> bool:
    """Tangency of a bivector to V(generators), for normal-form generator pairs.

    For a principal ideal this is the divisibility test; for a pair with a
    coordinate-like generator the structured membership above is used.
    Unrecognised generator shapes raise, by the refusal policy.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        raise ValueError("empty generator list")
    if len(generators) == 1:
        return is_tangent(sigma, generators[0])
    if len(generators) == 2:
        orderings = [(generators[0], generators[1]), (generators[1], generators[0])]
        for coordinate_gen, plane_gen in orderings:
            try:
                return all(
                    ideal_member_structured(coeff, coordinate_gen, plane_gen)
                    for g in generators
                    for coeff in interior_product_df(g, sigma).terms.values())
            except ValueError:
                continue
        # no coordinate-like generator: fall back to the sufficient test that
        # every contraction coefficient is divisible by a single generator
        sufficient = all(
            any(divides(g, coeff) is not None for g in generators)
            for h in generators
            for coeff in interior_product_df(h, sigma).terms.values())
        if sufficient:
            return True
        raise ValueError(
            "cannot certify tangency: no coordinate-like generator and the "
            "divisibility fallback fails")
    raise ValueError("tangency is implemented for at most two generators")


def detect_nonnilpotent_point(sigma: Polyvector, y_generators: Sequence[Poly],
                              point: Point) -> TripleReport:
    """Linearize a Poisson structure at a singular point of a curve.

    The point is non-nilpotent exactly when the linearized conormal Lie
    algebra is split nonabelian.  A derived subalgebra of dimension two or
    more cannot occur for a curve triple and is surfaced as a diagnostic.
    """
    if not sigma_tangent_to_ideal(sigma, y_generators):
        raise ValueError("the bivector is not tangent to the subvariety")
    for g in y_generators:
        if g.evaluate(point) != 0:
            raise ValueError(f"point {point} does not lie on the subvariety")
    algebra, lie_class = linearize(sigma, point)
    report = TripleReport(point=point, lie_class=lie_class)
    if lie_class == OTHER:
        report.diagnostics.append(
            "derived subalgebra has dimension >= 2: impossible for a curve triple")
    return report


def detect_duval_point(sigma: Polyvector, f: Poly, point: Point) -> TripleReport:
    """Decide whether a surface triple has a Du Val point at ``point``.

    Three conditions: the bivector has an isolated zero; the surface germ is
    of type A, D or E; and at the quasi-homogeneity exponents of that class
    the leading term of the bivector is a constant multiple of the Jacobian
    structure of the leading term of the equation.
    """
    if not is_tangent(sigma, f):
        raise ValueError("the bivector is not tangent to the surface")
    if f.evaluate(point) != 0:
        raise ValueError(f"point {point} does not lie on the surface")
    sigma0 = sigma.translate(point)
    f0 = f.translate(point)
    report = TripleReport(point=point)
    surface = classify_surface(f0)
    report.surface_class = surface
    prepared_f = surface.prepared
    prepared_sigma = sigma0
    for step in surface.preparation:
        prepared_sigma = shear(prepared_sigma, *step)

    # isolatedness does not depend on the coordinates; in the prepared ones
    # a zero line straightened onto an axis is found.  For a nonzero multiple
    # of J(prepared_f) the coefficients are the partials of prepared_f up to
    # sign, so the Milnor verdict classify_surface computed is the answer.
    coefficients = list(prepared_sigma.terms.values())
    mu = surface.milnor
    if mu is not None and _constant_ratio(prepared_sigma,
                                          jacobian_poisson(prepared_f)) is not None:
        isolated = None if mu == INDETERMINATE else mu != UNBOUNDED
    elif coefficients:
        isolated, _ = local_dimension_is_zero(coefficients)
    else:
        isolated = False
    report.isolated_sigma_zero = bool(isolated)
    if isolated is None:
        report.diagnostics.append("isolatedness of the bivector zero is indeterminate")
        report.duval = None
        return report
    if not (isolated and surface.is_du_val()):
        report.duval = False
        return report

    exponents = class_exponents(surface.kind, surface.index)
    variables = f0.variables
    for permutation in sorted(set(itertools.permutations(exponents))):
        centre = Centre(variables, tuple(permutation))
        if centre.ord_poly(prepared_f) != 1:
            continue
        lead_f = centre.leading_term_poly(prepared_f)
        lead_sigma = centre.leading_term_polyvector(prepared_sigma)
        target = jacobian_poisson(lead_f)
        ratio = _constant_ratio(lead_sigma, target)
        if ratio is not None:
            report.duval = True
            report.duval_witness_centre = centre
            return report
    report.duval = False
    report.diagnostics.append("no class centre matches the leading term of the bivector")
    return report


def _constant_ratio(left: Polyvector, right: Polyvector) -> Optional[Fraction]:
    """The nonzero constant c with left = c * right, if one exists."""
    if right.is_zero() or left.is_zero():
        return None
    indices, coeff = next(iter(right.terms.items()))
    other = left.terms.get(indices)
    if other is None:
        return None
    exponent, value = next(iter(coeff.nums.items()))
    if exponent not in other.nums:
        return None
    ratio = Fraction(other.nums[exponent] * coeff.den, value * other.den)
    if left != right.scale(ratio):
        return None
    return ratio


# ---------------------------------------------------------------------------
# symbolic verification of the stated normal forms
# ---------------------------------------------------------------------------

SPLIT_LOG = "split_log"
HEISENBERG_PENCIL = "heisenberg_pencil"
WHITNEY_FAMILY = "whitney_family"
DUVAL_FAMILY = "duval_family"

DUVAL_EQUATIONS = {
    "A": lambda n, V: (Poly.var(V, "x") ** 2 + Poly.var(V, "y") ** 2
                       + Poly.var(V, "z") ** (n + 1)),
    "D": lambda n, V: (Poly.var(V, "x") ** 2
                       + Poly.var(V, "y") ** 2 * Poly.var(V, "z")
                       + Poly.var(V, "z") ** (n - 1)),
    "E6": lambda n, V: (Poly.var(V, "x") ** 2 + Poly.var(V, "y") ** 3
                        + Poly.var(V, "z") ** 4),
    "E7": lambda n, V: (Poly.var(V, "x") ** 2 + Poly.var(V, "y") ** 3
                        + Poly.var(V, "y") * Poly.var(V, "z") ** 3),
    "E8": lambda n, V: (Poly.var(V, "x") ** 2 + Poly.var(V, "y") ** 3
                        + Poly.var(V, "z") ** 5),
}


@dataclass
class NormalFormReport:
    kind: str
    ok: bool
    checks: Dict[str, bool]
    notes: List[str] = field(default_factory=list)
    sigma: Optional[Polyvector] = None


def _series_in(base: Poly, coefficients: Sequence[Union[int, Fraction]],
               cap: Optional[int]) -> Poly:
    """sum coefficients[i] * base^(1 + i), truncated at cap.

    Refused with ValueError, before expanding, when the highest power may
    have more than ``ring.MAX_TERMS`` terms, as the parser refuses a power.
    """
    if coefficients:
        bound = _expansion_bound(base, exponent=len(coefficients))
        if bound > MAX_TERMS:
            raise ValueError(f"expansion of up to {bound} terms exceeds the limit {MAX_TERMS}")
    total = Poly.zero(base.variables, cap)
    power = base.with_cap(cap)
    for i, c in enumerate(coefficients):
        if c:
            total = total + power.scale(Fraction(c))
        if i + 1 < len(coefficients):
            power = power * base
    return total


def verify_normal_form(kind: str, *, cap: int = 9, **params) -> NormalFormReport:
    """Construct a stated local normal form and verify its asserted properties.

    Families:

    * ``split_log`` (k, lam): (x @x + z^(k+1)/(1 + lam z^k) @z) ^ @y, the
      rational coefficient expanded as a geometric series below ``cap``.
    * ``heisenberg_pencil`` (f, a_coefficients, b_coefficients):
      (x + A(f)) @y^@z + [volume, B(f)] with A = sum a_i f^i (i >= 1), same
      for B.
    * ``whitney_family`` (a_coefficients): jacobian of W = x^2 - y^2 z plus
      W*A(W) @y^@z.
    * ``duval_family`` (family, n, unit): unit * jacobian of the standard
      type-A/D/E equation.

    Each family asserts the Poisson condition (exactly, or to ``cap`` when a
    truncation is involved), the stated leading term, and the stated
    tangency; reports, never guesses, when the cap is too small to certify.
    """
    V = ("x", "y", "z")
    checks: Dict[str, bool] = {}
    notes: List[str] = []

    if kind == SPLIT_LOG:
        k = int(params["k"])
        lam = Fraction(params.get("lam", 0))
        if k < 1:
            raise ValueError("split_log requires k >= 1")
        if cap < k + 2:
            return NormalFormReport(kind, False, {}, [
                f"cap {cap} too small to certify: needs at least k + 2 = {k + 2}"])
        z = Poly.var(V, "z").with_cap(cap)
        # z^(k+1) / (1 + lam z^k) as a geometric series below the cap
        series = z * _series_in(z ** k, [(-lam) ** m for m in range((cap - 2) // k)], cap)
        field_part = Polyvector(1, V, {(0,): Poly.var(V, "x").with_cap(cap), (2,): series})
        sigma = wedge(field_part, Polyvector.basis_vector(V, "y").map_coefficients(
            lambda c: c.with_cap(cap)))
        checks["poisson_to_cap"] = is_poisson(sigma)[0]
        unweighted = Centre.unweighted(V)
        checks["leading_term"] = (
            unweighted.leading_term_polyvector(sigma)
            == wedge(Polyvector(1, V, {(0,): Poly.var(V, "x").with_cap(cap)}),
                     Polyvector.basis_vector(V, "y").map_coefficients(
                         lambda c: c.with_cap(cap))))
        checks["tangent_to_plane"] = is_tangent(sigma, Poly.var(V, "x").with_cap(cap))
        notes.append(f"certified modulo degree {cap}")

    elif kind == HEISENBERG_PENCIL:
        f = params["f"]
        if f.variables != V:
            f = f.extend_variables(V)
        if f.degree_in("x") > 0 or f.constant_term() != 0:
            raise ValueError("the pencil parameter must be x-free and vanish at 0")
        A = _series_in(f, params.get("a_coefficients", ()), None)
        B = _series_in(f, params.get("b_coefficients", ()), None)
        sigma = (Polyvector(2, V, {(1, 2): Poly.var(V, "x") + A})
                 + jacobian_poisson(B))
        checks["poisson"] = is_poisson(sigma)[0]
        checks["A_in_square"] = A.is_zero() or A.min_total_degree() >= 2
        checks["B_in_cube"] = B.is_zero() or B.min_total_degree() >= 3
        unweighted = Centre.unweighted(V)
        checks["leading_term"] = (
            unweighted.leading_term_polyvector(sigma)
            == Polyvector(2, V, {(1, 2): Poly.var(V, "x")}))
        # integrability reduces to the vanishing of dA ^ dB
        jac = A.diff("y") * B.diff("z") - A.diff("z") * B.diff("y")
        checks["poisson_iff_pencil"] = checks["poisson"] == jac.is_zero()
        plane = None if B.is_zero() else f
        checks["coefficients_in_ideal"] = all(
            ideal_member_structured(coeff, Poly.var(V, "x") + A, plane)
            for coeff in sigma.terms.values())

    elif kind == WHITNEY_FAMILY:
        W = (Poly.var(V, "x") ** 2 - Poly.var(V, "y") ** 2 * Poly.var(V, "z"))
        A = _series_in(W, params.get("a_coefficients", ()), None)
        sigma = jacobian_poisson(W) + Polyvector(2, V, {(1, 2): W * A})
        checks["poisson"] = is_poisson(sigma)[0]
        centre = Centre.from_exponents(V, (2, 3, 3))
        checks["leading_term"] = (
            centre.leading_term_polyvector(sigma) == jacobian_poisson(W))
        checks["tangent_to_surface"] = is_tangent(sigma, W)
        isolated, _ = local_dimension_is_zero(list(sigma.terms.values()))
        checks["non_isolated_zero"] = isolated is False

    elif kind == DUVAL_FAMILY:
        family = params["family"]
        n = params.get("n")
        unit = params.get("unit")
        f = DUVAL_EQUATIONS[family](n, V)
        sigma = jacobian_poisson(f)
        if unit is not None:
            if unit.variables != V:
                unit = unit.extend_variables(V)
            if unit.constant_term() == 0:
                raise ValueError("the unit must be invertible at the origin")
            sigma = sigma.scale(unit)
        checks["poisson"] = is_poisson(sigma)[0]
        kind_tag = {"A": A_CLASS, "D": D_CLASS}.get(family, family)
        exponents = class_exponents(kind_tag, n)
        centre = Centre.from_exponents(V, exponents)
        scale = Fraction(1) if unit is None else unit.constant_term()
        checks["leading_term"] = (
            centre.leading_term_polyvector(sigma) == jacobian_poisson(f).scale(scale))
        checks["tangent_to_surface"] = is_tangent(sigma, f)
        origin = (Fraction(0),) * 3
        checks["duval_detected"] = bool(
            detect_duval_point(sigma, f, origin).duval)

    else:
        raise ValueError(f"unknown normal form kind {kind!r}")

    report = NormalFormReport(kind, all(checks.values()), checks, notes, None)
    return report
