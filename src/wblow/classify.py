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
< j.  A shift that a syzygy proves redundant is never reduced.  k runs
through 6, 12, 24, ... capped at the bound plus one; small passes certify
most germs, and one pass at the bound fills in far more.

Surface germs are classified by Arnold's determinator (Funct. Anal. Appl. 6,
1972; Arnold, Gusein-Zade and Varchenko, Singularities of Differentiable
Maps I, section 16), which needs no search over coordinates: the rank of the
Hessian over Q, the root type of the cubic part on the Hessian kernel and the
Milnor number decide between A, D, E, normal crossings, the Whitney umbrella
and ``other``.  The class fixes the invariant exactly.  One exact linear
change and one completion of the square prepare the germ and put its
coordinates in the roles of the normal form, which give the centre of its
class; the monomial centre of the prepared form witnesses the invariant.
When the leading term at the class centre is the normal form, the germ is
semi-quasi-homogeneous with the Milnor number of the normal form (Arnold,
Gusein-Zade and Varchenko, section 12): no local algebra and no degree
bound; every other germ goes through ``milnor_number``.
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
    CoordinateChange,
    Polyvector,
    interior_product_df,
    is_poisson,
    is_tangent,
    jacobian_poisson,
    linearize,
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


class RefusalError(ValueError):
    """Input outside the recognised normal forms; diagnostics in the message."""


# ---------------------------------------------------------------------------
# local algebra dimensions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _shift_table(n: int, degree: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The packed units x_i and every packed monomial of degree < ``degree``,
    sorted, in n variables: built on the first call for (n, degree)."""
    width = degree.bit_length()
    units = tuple(1 << (n * width) | 1 << ((n - 1 - i) * width) for i in range(n))
    shifts = sorted(sum(monomial) for d in range(degree)
                    for monomial in itertools.combinations_with_replacement(units, d))
    return units, tuple(shifts)


def _local_dimensions(generators: Sequence[Poly], degree: int) -> List[int]:
    """[dim O/(ideal + m^j) for j = 0..degree] from one row reduction.

    Each g enters as its integer numerators, a multiple of g spanning the
    same rows.  A monomial e is packed into the int
    |e|*B^n + sum e_i*B^(n-1-i), B = 2^w > degree: packing is additive, ints
    compare like grlex, and the packed e is below ``degree``*B^n exactly when
    |e| < ``degree``.  Sparsest generators and each one's highest shifts go
    first.

    A shift x^a*g_i is skipped when a is already the lead of a pivot (the
    syzygy criterion of Faugere's F5, ISSAC 2002).  Such a pivot is some h in
    (g_1..g_{i-1}) + m^k with lowest monomial c*x^a, so
    c*x^a*g_i = h*g_i - (h - c*x^a)*g_i.  Modulo m^k, h*g_i is a combination
    of the shifts of g_1..g_{i-1}, and (h - c*x^a)*g_i one of the shifts of
    g_i above x^a, which come earlier; by descending induction on the shifts
    the skipped rows lie in the span of the kept ones, so every dims[j] is
    unchanged.  The code tests the live ``pivots``: a pivot made from a row
    x^b*g_i leads at b or above, and every b done so far lies above a, so
    the live test is the same as one against the pivots of g_1..g_{i-1}
    (lowest shifts first would need that snapshot).  On the 90 calls of
    classify_surface on A1-A12, D4-D12, E6-E8 moved by x -> x + a*(y^2 +
    z^2 + y*z), y -> y + a*z^2, a = 1, 3, -1, the skip keeps 20,343 of
    42,417 rows (408 reduce to zero, not 22,482), and this order, the
    sparsest generator and highest shift first, was the fastest of the
    four (best of nine runs on a shared 2-vCPU machine: 0.034 s, the
    others 0.040-0.050 s, 0.074 s without the skip).
    """
    generators = sorted((g for g in generators if not g.is_zero()),
                        key=lambda g: len(g.nums))
    if not generators:
        raise ValueError("no nonzero generators")
    n, width = len(generators[0].variables), degree.bit_length()
    units, shifts = _shift_table(n, degree)
    top = degree << (n * width)
    pivots: Dict[int, Dict[int, int]] = {}
    for g in generators:
        terms = sorted((sum(map(mul, e, units)), n)
                       for e, n in g.nums.items() if sum(e) < degree)
        if not terms:
            continue
        codes = [code for code, _ in terms]
        numerators = [n for _, n in terms]
        for alpha in reversed(shifts[:bisect_left(shifts, top - codes[0])]):
            if alpha in pivots:
                continue
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
    degree k of the schedule 6, 12, 24, ... capped at ``degree_bound`` + 1,
    which it reaches at once when the doubled degree is within a quarter of
    the cap (6, 13 at the default bound, not 6, 12, 13).  dims[j] does not
    depend on k, so the certificate does not depend on the schedule.
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
        degree = last if 5 * 2 * degree >= 4 * last else min(2 * degree, last)


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

# quasi-homogeneity exponents of the standard equations, per class, in the
# roles x, y, z of ``DUVAL_EQUATIONS``
def class_exponents(kind: str, index: Optional[int] = None) -> Tuple[Fraction, ...]:
    if kind == A_CLASS:
        if index is None or index < 1:
            raise ValueError("A(n) requires n >= 1")
        return (Fraction(2), Fraction(2), Fraction(index + 1))
    if kind == D_CLASS:
        if index is None or index < 4:
            raise ValueError("D(n) requires n >= 4")
        return (Fraction(2), 2 + Fraction(2, index - 2), Fraction(index - 1))
    return {E6: (Fraction(2), Fraction(3), Fraction(4)),
            E7: (Fraction(2), Fraction(3), Fraction(9, 2)),
            E8: (Fraction(2), Fraction(3), Fraction(5))}[kind]


@dataclass
class SingularityClass:
    kind: str
    monomial: MonomialCentreResult           # max_monomial_centre of ``prepared``
    index: Optional[int] = None              # n for A(n), D(n)
    invariant: Optional[InvariantSeq] = None
    milnor: Optional[Union[int, str]] = None
    witness_centre: Optional[Centre] = None
    class_centre: Optional[Centre] = None    # for A, D, E: see ``_class_centre``
    preparation: CoordinateChange = CoordinateChange(())
    prepared: Optional[Poly] = None          # the germ after ``preparation``
    diagnostics: List[str] = field(default_factory=list)

    def __post_init__(self):
        if self.kind in (A_CLASS, D_CLASS):
            class_exponents(self.kind, self.index)   # refuses an index out of range

    def label(self) -> str:
        if self.kind in (A_CLASS, D_CLASS):
            return f"{self.kind}{self.index}"
        return self.kind

    def is_du_val(self) -> bool:
        return self.kind in (A_CLASS, D_CLASS, E6, E7, E8)


def _homogeneous_part(f: Poly, degree: int) -> Poly:
    return Poly._from_numerators(
        f.variables, {e: n for e, n in f.nums.items() if sum(e) == degree}, f.den, None)


def _complete_square(f: Poly) -> CoordinateChange:
    """One exact Morse step: kill the linear-in-u part when f is quadratic in u."""
    if f.min_total_degree() == 2:
        for name in f.variables:
            found = subleading_shift(f, name) if f.degree_in(name) == 2 else None
            if found is not None:
                return CoordinateChange.shear(name, found)
    return CoordinateChange(())


def _diagonalise(q: Poly) -> Tuple[CoordinateChange, List[str]]:
    """Shears taking the quadratic form q to a diagonal form (Lagrange).

    Each round takes the first variable u whose square occurs and removes
    the cross terms u*w by u -> u + shift.  When no square occurs, a cross
    term c*v*w is a hyperbolic pivot: with q = c*v*w + v*L + w*M + R, the
    shears v -> v - M/c and w -> w - L/c leave c*v*w + R - L*M/c, and both v
    and w become Morse coordinates.  Returns the change and the pivots,
    the Morse coordinates: their number is the rank of q over Q.  A
    diagonal q, or one that is c*v*w plus a form in the other variables,
    gives no steps.
    """
    variables = q.variables
    change = CoordinateChange(())
    morse: List[str] = []
    while not q.is_zero():
        squares = [v for v in variables
                   if tuple(2 if w == v else 0 for w in variables) in q.nums]
        if squares:
            pivots = squares[:1]
            found = subleading_shift(q, pivots[0])
            step = CoordinateChange(()) if found is None else CoordinateChange.shear(
                pivots[0], found)
        else:
            exponent = min(q.nums)
            pivots = [v for v, e in zip(variables, exponent) if e]
            c = q.terms[exponent]
            # -M/c = (c*v - dq/dw)/c; the first shear keeps dq/dv - c*w = L
            shears = (CoordinateChange.shear(v, (Poly.var(variables, v).scale(c)
                                                 - q.diff(w)).scale(1 / c))
                      for v, w in (pivots, pivots[::-1]))
            step = sum(shears, CoordinateChange(()))
        change, q = change + step, step(q)
        morse.extend(pivots)
        for pivot in pivots:
            q = q.coefficients_in(pivot)[0].extend_variables(variables)
    return change, morse


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


def _prepare(f: Poly) -> Tuple[Poly, CoordinateChange, Tuple[str, ...], int, Optional[str]]:
    """One exact linear change, a product of shears, then one square completion.

    The change diagonalises the Hessian, its pivots becoming the Morse
    coordinates.  With one Morse coordinate it also puts the multiple linear
    factor of the cubic on the Hessian kernel onto a kernel coordinate.
    Returns the prepared form, the change, the coordinates in the roles x,
    y, z of ``DUVAL_EQUATIONS`` (the Morse coordinates, then the kernel
    coordinates, the one carrying the multiple factor first), the rank of
    the Hessian and the root type of that cubic (None unless the rank is one).
    """
    change, morse = _diagonalise(_homogeneous_part(f, 2))
    kernel = tuple(v for v in f.variables if v not in morse)
    root_type = None
    if len(morse) == 1:
        on_kernel = change(_homogeneous_part(f, 3)).coefficients_in(morse[0])[0]
        root_type, factor = binary_cubic_type(on_kernel)
        if factor is not None and factor[0] == 0:
            kernel = kernel[::-1]    # the factor is l_w w
        elif factor is not None and factor[1] != 0:
            # v -> v - (l_w/l_v) w turns the factor l_v v + l_w w into l_v v
            change += CoordinateChange.shear(
                kernel[0], Poly.var(f.variables, kernel[1]).scale(-factor[1] / factor[0]))
    prepared = change(f)
    completion = _complete_square(prepared)
    return completion(prepared), change + completion, tuple(morse) + kernel, len(morse), root_type


def _class_centre(f: Poly, roles: Sequence[str], kind: str, index: Optional[int]
                  ) -> Optional[Centre]:
    """The centre giving the coordinates in ``roles`` the class exponents of
    the roles x, y, z, when f has order one there; None otherwise.  On a
    germ from ``_prepare`` no other assignment of them gives order one: a
    Morse coordinate carries its square (or the hyperbolic pair its product)
    and needs the exponent 2, and the cubic's multiple factor v (v^2 M or
    v^3) needs the exponent of y."""
    exponents = dict(zip(roles, class_exponents(kind, index)))
    centre = Centre(f.variables, tuple(exponents[v] for v in f.variables))
    return centre if centre.ord_poly(f) == 1 else None


def _determined_class(rank: int, root_type: Optional[str], mu: Union[int, str]
                      ) -> Optional[Tuple[str, Optional[int]]]:
    """Arnold's determinator: (kind, index) of the class with Hessian rank
    ``rank``, root type ``root_type`` of the cubic on the Hessian kernel and
    Milnor number ``mu``, or None for ``other``."""
    if isinstance(mu, int):
        if rank >= 2:
            return A_CLASS, mu
        if root_type in (DISTINCT_ROOTS, DOUBLE_ROOT) and mu >= 4:
            return D_CLASS, mu
        if root_type == TRIPLE_ROOT and mu in (6, 7, 8):
            return {6: E6, 7: E7, 8: E8}[mu], None
    elif mu == UNBOUNDED:
        if rank == 2:
            return NORMAL_CROSSINGS_2, None
        if root_type == DOUBLE_ROOT:
            return WHITNEY_UMBRELLA, None
    return None


def _principal_milnor(prepared: Poly, roles: Sequence[str], rank: int,
                      root_type: Optional[str]) -> Optional[int]:
    """The Milnor number of the prepared germ read off its principal part, or
    None.

    The candidate mu follow the determinator: 1 for Hessian rank three;
    m - 1 for rank two and m + 1 for a double root, m the smallest pure
    power of the coordinate in role z; 6, 7 and 8 for a triple root.  A
    candidate holds when the germ has order one at the class centre of its
    class (``_determined_class``, ``_class_centre``) and its leading term
    there has exactly the support of ``DUVAL_EQUATIONS``, the coordinates
    in ``roles`` taking the roles x, y, z.  Such a leading term has
    an isolated critical point for any nonzero coefficients, so the germ is
    semi-quasi-homogeneous and its mu is that of the normal form (Arnold,
    Gusein-Zade and Varchenko, Singularities of Differentiable Maps I,
    section 12).  A cubic with distinct roots is the same theorem at
    x:2 v:3 w:3, where the leading term is c*x^2 plus that cubic: mu is 4.
    """
    if rank == 3:
        return 1
    if root_type == DISTINCT_ROOTS:
        return 4
    order = [prepared.variables.index(v) for v in roles]
    if root_type == TRIPLE_ROOT:
        candidates = [6, 7, 8]
    else:     # rank two or a double root: m, the smallest pure power of role z
        m = min((e[order[2]] for e in prepared.nums if e[order[2]] == sum(e)), default=None)
        candidates = [] if m is None else [m + (1 if root_type == DOUBLE_ROOT else -1)]
    for mu in candidates:
        kind, index = _determined_class(rank, root_type, mu)
        centre = _class_centre(prepared, roles, kind, index)
        lead = centre.leading_term_poly(prepared).nums if centre is not None else {}
        if {tuple(e[i] for i in order) for e in lead} \
                == set(DUVAL_EQUATIONS[kind](index, ("x", "y", "z")).nums):
            return mu
    return None


def classify_surface(f: Poly) -> SingularityClass:
    """Classify a surface germ in three variables at the origin.

    Arnold's determinator (``_determined_class``), from the rank of the
    Hessian over Q, the cubic part of f on the Hessian kernel and the Milnor
    number mu:

    * rank 3: A1;
    * rank 2: A(mu), or normal crossings when mu is unbounded;
    * rank 1: D4 when the cubic has three distinct roots, D(mu) or the
      Whitney umbrella (mu unbounded) for a double root, E6, E7 or E8 for a
      triple root with mu 6, 7 or 8;
    * anything else (rank 0, a vanishing cubic, another mu) is ``other``.

    mu is read on the prepared form (see ``_prepare``), which is f in
    coordinates related by shears and one square completion, automorphisms
    that leave mu unchanged.  A germ whose leading term at a class centre
    is the normal form is semi-quasi-homogeneous, with the mu of the normal
    form at any index (``_principal_milnor``): A19 is certified, though its
    local algebra exhausts the default degree bound.  Otherwise mu comes
    from ``milnor_number`` at ``DEFAULT_DEGREE_BOUND``; a singular line the
    preparation straightens onto an axis is found there.  The monomial
    centre of the prepared form, searched once and kept as ``monomial``, is
    the witness when it reaches the exact invariant of the class; for
    ``other`` its lower bound is reported.
    """
    if len(f.variables) != 3:
        raise ValueError("classify_surface expects a three-variable chart")
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a surface")
    if f.constant_term() != 0:
        raise ValueError("the germ must vanish at the origin; translate first")
    if f.min_total_degree() == 1:
        return SingularityClass(SMOOTH, max_monomial_centre(f), prepared=f)

    prepared, change, roles, rank, root_type = _prepare(f)
    # the search refuses only a zero or unit ideal, and f is neither
    found = max_monomial_centre(prepared)
    report = SingularityClass(OTHER_CLASS, found, preparation=change, prepared=prepared)
    if root_type == ZERO_CUBIC:
        report.diagnostics.append(
            "the cubic vanishes on the Hessian kernel: not a simple singularity")
    elif not rank:
        report.diagnostics.append("the 2-jet vanishes: not a simple singularity")
    else:
        mu = _principal_milnor(prepared, roles, rank, root_type)
        if mu is None:
            mu = milnor_number(prepared)
        report.milnor = mu
        determined = _determined_class(rank, root_type, mu)
        if determined is not None:
            report.kind, report.index = determined
        elif rank == 2:
            report.diagnostics.append(f"Hessian rank 2 but Milnor number {mu}")
        else:
            report.diagnostics.append(f"cubic with a {root_type} root but Milnor number {mu}")

    if report.kind == OTHER_CLASS:
        report.invariant, report.witness_centre = found.invariant, found.centre
        return report
    report.invariant = _class_invariant(report.kind, report.index)
    if report.is_du_val():
        report.class_centre = _class_centre(prepared, roles, report.kind, report.index)
    if found.invariant.entries == report.invariant.entries:
        report.witness_centre = found.centre
    else:
        report.diagnostics.append(
            f"no monomial centre of the prepared form reaches ({report.invariant}): "
            f"best ({found.invariant})")
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
    prepared_sigma: Optional[Polyvector] = None  # in the surface's prepared coordinates
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
    Unrecognised generator shapes are refused (RefusalError).
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
        raise RefusalError(
            "cannot certify tangency: no coordinate-like generator and the "
            "divisibility fallback fails")
    raise RefusalError("tangency is implemented for at most two generators")


def detect_nonnilpotent_point(sigma: Polyvector, y_generators: Sequence[Poly],
                              point: Point) -> TripleReport:
    """Linearize a Poisson structure at a singular point of a curve.

    The point is non-nilpotent exactly when the linearized conormal Lie
    algebra is split nonabelian.  A derived subalgebra of dimension two or
    more cannot occur for a curve triple and is surfaced as a diagnostic.  A
    bivector not tangent to the curve is refused (RefusalError).
    """
    if not sigma_tangent_to_ideal(sigma, y_generators):
        raise RefusalError("the bivector is not tangent to the subvariety")
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
    """Decide whether a surface triple has a Du Val point at ``point``; a
    bivector not tangent to the surface is refused (RefusalError).

    Three conditions, read in the prepared coordinates of the surface class,
    where the sheared bivector is kept as ``prepared_sigma``: the bivector
    has an isolated zero; the surface germ is of type A, D or E; and the
    bivector is Jacobian for some volume form.  The third holds when, at the
    class centre of the surface class, the leading term of the bivector is
    a constant multiple of the Jacobian structure of the leading term of the
    equation; that centre is reported as the witness.  It also
    holds, with ``duval_witness_centre`` None, for a unit multiple u*J(f)
    with u(0) != 0: that is the Jacobian structure of f for the volume form
    u^-1*dx^dy^dz.  An isolated Du Val germ that matches neither is not
    certified either way: ``duval`` stays None, with a diagnostic.
    """
    if not is_tangent(sigma, f):
        raise RefusalError("bivector is not tangent to the surface")
    if f.evaluate(point) != 0:
        raise ValueError(f"point {point} does not lie on the surface")
    f0 = f.translate(point)
    report = TripleReport(point=point)
    surface = report.surface_class = classify_surface(f0)
    prepared_f = surface.prepared
    prepared_sigma = report.prepared_sigma = surface.preparation(sigma.translate(point))

    # isolatedness does not depend on the coordinates; in the prepared ones
    # a zero line straightened onto an axis is found.  For a unit multiple of
    # J(prepared_f) the coefficients are the partials of prepared_f up to a
    # unit, so the Milnor verdict classify_surface computed is the answer.
    # When prepared_f divides every coefficient (the zero bivector too), the
    # bivector vanishes on the surface through the point.
    mu = surface.milnor
    jacobian_multiple = mu is not None and _is_unit_multiple(
        prepared_sigma, jacobian_poisson(prepared_f))
    if jacobian_multiple:
        isolated = None if mu == INDETERMINATE else mu != UNBOUNDED
    elif all(divides(prepared_f, c) is not None for c in prepared_sigma.terms.values()):
        isolated = False
    else:
        isolated, _ = local_dimension_is_zero(list(prepared_sigma.terms.values()))
    report.isolated_sigma_zero = bool(isolated)
    if isolated is None:
        report.diagnostics.append("isolatedness of the bivector zero is indeterminate")
        return report
    if not (isolated and surface.is_du_val()):
        report.duval = False
        return report

    centre = surface.class_centre
    if centre is not None and _is_unit_multiple(
            centre.leading_term_polyvector(prepared_sigma),
            jacobian_poisson(centre.leading_term_poly(prepared_f))):
        report.duval_witness_centre = centre
    if report.duval_witness_centre is not None or jacobian_multiple:
        report.duval = True
        return report
    report.diagnostics.append("no class centre matches the leading term of the bivector, "
                              "which is no unit multiple of J(f)")
    return report


def _is_unit_multiple(left: Polyvector, right: Polyvector) -> bool:
    """Whether left = u*right with u(0) != 0: one exact division of a
    component and one comparison.  Between quasi-homogeneous leading terms
    of one weighted degree u is a nonzero constant."""
    if right.is_zero() or left.is_zero():
        return False
    indices, coeff = next(iter(right.terms.items()))
    other = left.terms.get(indices)
    unit = None if other is None else divides(coeff, other)
    return unit is not None and unit.constant_term() != 0 and left == right.scale(unit)


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


def _series_in(base: Poly, coefficients: Sequence[Union[int, Fraction]]) -> Poly:
    """sum coefficients[i] * base^(1 + i).

    Refused with ValueError, before expanding, when the highest power may
    have more than ``ring.MAX_TERMS`` terms, as the parser refuses a power.
    """
    if coefficients:
        bound = _expansion_bound(base, exponent=len(coefficients))
        if bound > MAX_TERMS:
            raise ValueError(f"expansion of up to {bound} terms exceeds the limit {MAX_TERMS}")
    total = Poly.zero(base.variables)
    power = base
    for i, c in enumerate(coefficients):
        if c:
            total = total + power.scale(Fraction(c))
        if i + 1 < len(coefficients):
            power = power * base
    return total


_NORMAL_FORM_PARAMETERS = {SPLIT_LOG: {"k", "lam"}, WHITNEY_FAMILY: {"a_coefficients"},
                           HEISENBERG_PENCIL: {"f", "a_coefficients", "b_coefficients"},
                           DUVAL_FAMILY: {"family", "n", "unit"}}


def verify_normal_form(kind: str, **params) -> NormalFormReport:
    """Construct a stated local normal form and verify its asserted properties.

    Families:

    * ``split_log`` (k, lam): s = (x @x + z^(k+1)/(1 + lam z^k) @z) ^ @y, checked
      as the polynomial u*s, u = 1 + lam z^k.  The unit keeps each property:
      [u s, u s] = u^2 [s, s], as s^#(du) ^ s = 0 for a 3-dim bivector (pointwise
      decomposable); the leading term x @x^@y; x dividing s(dx).
    * ``heisenberg_pencil`` (f, a_coefficients, b_coefficients):
      (x + A(f)) @y^@z + [volume, B(f)] with A = sum a_i f^i (i >= 1), same
      for B.
    * ``whitney_family`` (a_coefficients): jacobian of W = x^2 - y^2 z plus
      W*A(W) @y^@z.
    * ``duval_family`` (family, n, unit): unit * jacobian of the standard
      type-A/D/E equation.

    Each family asserts, exactly, the Poisson condition, the stated leading
    term and the stated tangency.  A parameter the family does not read is
    refused with ValueError.
    """
    if kind not in _NORMAL_FORM_PARAMETERS:
        raise ValueError(f"unknown normal form kind {kind!r}")
    unknown = sorted(set(params) - _NORMAL_FORM_PARAMETERS[kind])
    if unknown:
        raise ValueError(f"{kind} reads no parameter {', '.join(unknown)}")
    V = ("x", "y", "z")
    checks: Dict[str, bool] = {}

    if kind == SPLIT_LOG:
        k = int(params["k"])
        lam = Fraction(params.get("lam", 0))
        if k < 1:
            raise ValueError("split_log requires k >= 1")
        x, z = Poly.var(V, "x"), Poly.var(V, "z")
        unit = Poly.const(V, 1) + (z ** k).scale(lam)
        d_y = Polyvector.basis_vector(V, "y")
        sigma = wedge(Polyvector(1, V, {(0,): x * unit, (2,): z ** (k + 1)}), d_y)
        checks["poisson"] = is_poisson(sigma)[0]
        checks["leading_term"] = (Centre.unweighted(V).leading_term_polyvector(sigma)
                                  == wedge(Polyvector(1, V, {(0,): x}), d_y))
        checks["tangent_to_plane"] = is_tangent(sigma, x)

    elif kind == HEISENBERG_PENCIL:
        f = params["f"]
        if f.variables != V:
            f = f.extend_variables(V)
        if f.degree_in("x") > 0 or f.constant_term() != 0:
            raise ValueError("the pencil parameter must be x-free and vanish at 0")
        A = _series_in(f, params.get("a_coefficients", ()))
        B = _series_in(f, params.get("b_coefficients", ()))
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
        A = _series_in(W, params.get("a_coefficients", ()))
        sigma = jacobian_poisson(W) + Polyvector(2, V, {(1, 2): W * A})
        checks["poisson"] = is_poisson(sigma)[0]
        centre = Centre.from_exponents(V, (2, 3, 3))
        checks["leading_term"] = (
            centre.leading_term_polyvector(sigma) == jacobian_poisson(W))
        checks["tangent_to_surface"] = is_tangent(sigma, W)
        isolated, _ = local_dimension_is_zero(list(sigma.terms.values()))
        checks["non_isolated_zero"] = isolated is False

    else:  # DUVAL_FAMILY
        family = params["family"]
        n = params.get("n")
        unit = params.get("unit")
        exponents = class_exponents(family, n)
        f = DUVAL_EQUATIONS[family](n, V)
        sigma = jacobian_poisson(f)
        if unit is not None:
            if unit.variables != V:
                unit = unit.extend_variables(V)
            if unit.constant_term() == 0:
                raise ValueError("the unit must be invertible at the origin")
            sigma = sigma.scale(unit)
        checks["poisson"] = is_poisson(sigma)[0]
        centre = Centre.from_exponents(V, exponents)
        scale = Fraction(1) if unit is None else unit.constant_term()
        checks["leading_term"] = (
            centre.leading_term_polyvector(sigma) == jacobian_poisson(f).scale(scale))
        checks["tangent_to_surface"] = is_tangent(sigma, f)
        origin = (Fraction(0),) * 3
        checks["duval_detected"] = bool(
            detect_duval_point(sigma, f, origin).duval)

    return NormalFormReport(kind, all(checks.values()), checks)
