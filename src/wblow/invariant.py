"""Singularity-invariant arithmetic.

An invariant is a weakly increasing sequence of exponents (rationals or
infinity) subject to an integrality constraint: a sequence (a_1 <= a_2 <= ...)
occurs as the invariant of an ideal exactly when for every j there are
non-negative integers n_1, ..., n_j with sum n_i / a_i = 1 and n_j nonzero.
Sequences are compared lexicographically with infinity largest, so shorter
sequences dominate their extensions.

Two computable lower bounds for the invariant of an ideal are provided:

* :func:`max_monomial_centre` maximises over centres that are monomial in the
  given coordinates (exact maximum over that restricted family, a lex lower
  bound for the true coordinate-free invariant);
* :func:`plane_curve_invariant` prepares a plane-curve germ by a shear that
  exposes the pure power of the multiplicity, then a shift killing the
  subleading coefficient, keeps them as one ``CoordinateChange`` and takes
  the maximal monomial centre of the prepared germ.  Exact for multiplicity
  two; a certified lower bound beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ring import INF, ExtRational, Poly, format_ext, is_infinite, parse_ext
from .centre import Centre
from .polyvector import CoordinateChange

VALID = "valid"
INVALID = "invalid"
UNCHECKED = "unchecked"


@dataclass(frozen=True)
class InvariantSeq:
    """A weakly increasing exponent sequence with its validity status."""

    entries: Tuple[ExtRational, ...]
    status: str = UNCHECKED
    witness: Optional[int] = None     # 1-based failing prefix length when invalid

    def __post_init__(self):
        finite = self.finite_entries()
        for a in finite:
            if a <= 0:
                raise ValueError(f"entries must be positive: {self}")
        # inf is the largest entry, so only more inf may follow it
        if finite != self.entries[:len(finite)]:
            raise ValueError(f"entries must be weakly increasing: {self}")
        for a, b in zip(finite, finite[1:]):
            if a > b:
                raise ValueError(f"entries must be weakly increasing: {self}")

    def finite_entries(self) -> Tuple[Fraction, ...]:
        return tuple(a for a in self.entries if not is_infinite(a))

    def length(self) -> int:
        return len(self.finite_entries())

    def kappa(self, j: int) -> Fraction:
        """Sum of the first j reciprocals, with 1/inf = 0."""
        total = Fraction(0)
        for a in self.entries[:j]:
            if not is_infinite(a):
                total += Fraction(1) / a
        return total

    def __str__(self) -> str:
        return ",".join(format_ext(a) for a in self.entries)

    @classmethod
    def parse(cls, text: str) -> "InvariantSeq":
        entries = []
        for piece in text.split(","):
            entries.append(parse_ext(piece))
        return cls(tuple(entries))


def lex_key(seq: Union[InvariantSeq, Sequence[ExtRational]]) -> Tuple:
    """Sort key of ``lex_compare``: the entries padded with inf to length 12."""
    entries = seq.entries if isinstance(seq, InvariantSeq) else tuple(seq)
    padded = list(entries) + [INF] * max(0, 12 - len(entries))
    return tuple((1, Fraction(0)) if is_infinite(a) else (0, a) for a in padded)


def lex_compare(a: Union[InvariantSeq, Sequence[ExtRational]],
                b: Union[InvariantSeq, Sequence[ExtRational]]) -> int:
    """-1, 0, or 1 for a < b, a = b, a > b lexicographically; inf is greatest.

    Sequences are padded with inf, so (2,2) equals (2,2,inf) and exceeds
    (2,2,n) for every finite n.
    """
    ka, kb = lex_key(a), lex_key(b)
    return -1 if ka < kb else (1 if ka > kb else 0)


# ---------------------------------------------------------------------------
# the numerical constraints and the small-invariant trichotomy
# ---------------------------------------------------------------------------

# numerators one validate_invariant call may generate before it answers UNCHECKED
VALIDATION_BUDGET = 100_000


def _partial_sums_reachable(entries: Sequence[Fraction], j: int, budget: int
                            ) -> Tuple[Optional[bool], int]:
    """Whether 1 = sum n_i/a_i is solvable with n_i >= 0 integers and n_j > 0.

    The sums over the prefix a_1..a_(j-1) that do not exceed one are kept as
    a set of integer numerators over L, the lcm of the prefix's numerators:
    n/a_i = n*q_i*(L/p_i) / L for a_i = p_i/q_i.  Some n_j >= 1 completes the
    sum s/L to one exactly when s < L and L*q_j divides (L - s)*p_j.  Returns
    the verdict and the number of numerators generated; the verdict is None
    when more than ``budget`` would be generated.
    """
    prefix = entries[:j - 1]
    scale = lcm(*(a.numerator for a in prefix))
    reachable = {0}
    generated = 0
    for a in prefix:
        step = a.denominator * (scale // a.numerator)
        new = set()
        for s in reachable:
            generated += (scale - s) // step + 1
            if generated > budget:
                return None, generated
            new.update(range(s, scale + 1, step))
        reachable = new
    p, q = entries[j - 1].numerator, entries[j - 1].denominator
    return any(s < scale and (scale - s) * p % (scale * q) == 0 for s in reachable), generated


def validate_invariant(seq: InvariantSeq) -> InvariantSeq:
    """Check the occurrence constraints prefix by prefix.

    For every j up to the finite length there must exist non-negative
    integers n_1..n_j with sum n_i/a_i = 1 and n_j nonzero.  Returns a copy
    carrying the verdict, with the failing prefix length as witness; the
    status stays UNCHECKED when the search would generate more than
    ``VALIDATION_BUDGET`` numerators (the sets grow with the product of the
    entries' numerators).
    """
    finite = seq.finite_entries()
    budget = VALIDATION_BUDGET
    for j in range(1, len(finite) + 1):
        reachable, generated = _partial_sums_reachable(finite, j, budget)
        if reachable is None:
            return InvariantSeq(seq.entries, UNCHECKED)
        if not reachable:
            return InvariantSeq(seq.entries, INVALID, j)
        budget -= generated
    return InvariantSeq(seq.entries, VALID)


def canonical_numerics(seq: InvariantSeq) -> Dict[str, bool]:
    """The three equivalent smallness conditions for a valid invariant.

    For a valid invariant of length two or three with first entry above one:
    being lexicographically below (2,3,6); having kappa_3 above 1 or being
    (2,2); and membership in the Du Val / normal-crossings / Whitney list.
    All three are evaluated independently and their agreement is asserted.
    """
    finite = seq.finite_entries()
    if len(finite) not in (2, 3):
        raise ValueError("the trichotomy applies to sequences of length two or three")
    if finite[0] <= 1:
        raise ValueError("the trichotomy requires a_1 > 1")
    checked = validate_invariant(seq)
    if checked.status == UNCHECKED:
        raise ValueError("validity not checked: the search budget ran out")
    if checked.status != VALID:
        raise ValueError(f"not a valid invariant (fails at prefix {checked.witness})")

    below = lex_compare(seq, (Fraction(2), Fraction(3), Fraction(6))) < 0
    kappa = seq.kappa(3) > 1 or finite == (Fraction(2), Fraction(2))
    in_list = False
    if finite == (Fraction(2), Fraction(2)):
        in_list = True
    elif len(finite) == 3 and finite[:2] == (Fraction(2), Fraction(2)):
        in_list = finite[2].denominator == 1 and finite[2] >= 2
    elif len(finite) == 3 and finite[:2] == (Fraction(2), Fraction(3)):
        in_list = finite[2] in (Fraction(3), Fraction(4), Fraction(9, 2), Fraction(5))
    assert below == kappa == in_list, \
        f"trichotomy disagreement on {seq}: {below}, {kappa}, {in_list}"
    return {"below_236": below, "kappa3_above_1_or_22": kappa, "in_ADE_list": in_list}


# ---------------------------------------------------------------------------
# admissibility and the monomial-restricted maximal centre
# ---------------------------------------------------------------------------

def is_admissible(centre: Centre, f: Union[Poly, Sequence[Poly]]) -> bool:
    """Whether the ideal vanishes to weighted order exactly one on the centre."""
    generators = [f] if isinstance(f, Poly) else list(f)
    if not generators or all(g.is_zero() for g in generators):
        raise ValueError("admissibility of the zero ideal is undefined")
    orders = [centre.ord_poly(g) for g in generators if not g.is_zero()]
    return min(orders) == 1


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Support exponents of an ideal's generators with their minimal subset.

    Order and admissibility computations over monomial centres depend only on
    the componentwise-minimal support points.
    """

    points: Tuple[Tuple[int, ...], ...]
    minimal_points: Tuple[Tuple[int, ...], ...]

    @classmethod
    def of(cls, generators: Sequence[Poly]) -> "NewtonPolyhedron":
        support = sorted({e for g in generators for e in g.nums})
        minimal = tuple(p for p in support
                        if not any(q != p and all(qi <= pi for qi, pi in zip(q, p))
                                   for q in support))
        return cls(tuple(support), minimal)


@dataclass
class MonomialCentreResult:
    centre: Centre
    invariant: InvariantSeq
    lower_bound_only: bool = True     # monomial-restricted: a lex lower bound
    warning: Optional[str] = None


def max_monomial_centre(f: Union[Poly, Sequence[Poly]]) -> MonomialCentreResult:
    """Lexicographically maximal admissible centre monomial in these coordinates.

    Maximises the weakly increasing exponent sequence (allowing a permutation
    of the variables) subject to: every support monomial of every generator
    has weighted order at least one, some monomial has order exactly one.
    Equivalently the sorted-decreasing weight vector is lexicographically
    minimised; the optimum is found by a greedy descent on the next-largest
    weight with branching over which variable carries it.

    The result is the exact maximum over monomial centres, which is a lex
    lower bound for the coordinate-free invariant; the validity check is run
    and a warning recorded when it fails or is not checked.
    """
    generators = [f] if isinstance(f, Poly) else list(f)
    if not generators or all(g.is_zero() for g in generators):
        raise ValueError("the zero ideal has no associated centre")
    variables = generators[0].variables
    origin = (0,) * len(variables)
    for g in generators:
        if g.variables != variables:
            raise ValueError("generators must share one chart")
        if origin in g.nums:
            raise ValueError("the ideal is the unit ideal at the origin")
    polyhedron = NewtonPolyhedron.of(generators)
    points = polyhedron.minimal_points
    n = len(variables)

    # branch over the carrier of each successive maximal weight; collect the
    # per-variable weights along the winning branch as integer numerators
    # over one denominator per branch
    def search(done: Dict[int, int], den: int, remaining: Tuple[int, ...]
               ) -> Optional[Tuple[Dict[int, int], int]]:
        if not remaining:
            return dict(done), den
        # the next weight m = top/bottom: the largest (1 - finished)/load
        top, bottom = 0, 1
        for p in points:
            finished = sum(w * p[i] for i, w in done.items())
            load = sum(p[i] for i in remaining)
            if load == 0:
                if finished < den:
                    return None
                continue
            if (den - finished) * bottom > top * den * load:
                top, bottom = den - finished, den * load
        if top <= 0:
            return {**done, **{i: 0 for i in remaining}}, den
        common = gcd(top, bottom)
        top, bottom = top // common, bottom // common
        wider = lcm(den, bottom)
        done = {i: w * (wider // den) for i, w in done.items()}
        weight = top * (wider // bottom)
        best: Optional[Tuple[Dict[int, int], int]] = None
        best_key: List[int] = []
        # ties between carriers break towards the lexicographically smallest
        # variable name, for determinism independent of chart declaration order
        for i in sorted(remaining, key=lambda k: variables[k]):
            result = search({**done, i: weight}, wider,
                            tuple(r for r in remaining if r != i))
            if result is None:
                continue
            # the sorted weights, compared over the product of both denominators
            key = sorted(result[0].values(), reverse=True)
            if best is None or [w * best[1] for w in key] < [w * result[1] for w in best_key]:
                best, best_key = result, key
        return best

    found = search({}, 1, tuple(range(n)))
    if found is None:
        raise ValueError("no admissible monomial centre exists")
    assignment, den = found
    weights = [assignment[i] for i in range(n)]
    orders = [sum(w * e for w, e in zip(weights, p)) for p in points]
    assert all(o >= den for o in orders) and min(orders) == den, \
        "maximal monomial centre is not admissible"

    exponents = tuple(INF if w == 0 else Fraction(den, w) for w in weights)
    centre = Centre(variables, exponents)
    sequence = InvariantSeq(tuple(sorted((a for a in exponents if not is_infinite(a)))))
    checked = validate_invariant(sequence)
    warning = None
    if checked.status == INVALID:
        warning = (f"monomial-restricted sequence fails the invariant constraints "
                   f"at prefix {checked.witness}; it is only a lower bound")
    elif checked.status == UNCHECKED:
        warning = ("monomial-restricted sequence not checked against the invariant "
                   "constraints (search budget exhausted); it is only a lower bound")
    return MonomialCentreResult(centre, checked, True, warning)


# ---------------------------------------------------------------------------
# plane-curve invariants
# ---------------------------------------------------------------------------

@dataclass
class PlaneCurveInvariant:
    invariant: InvariantSeq
    centre: Centre                # the maximal monomial centre of the prepared germ
    prepared: Poly                # the germ after ``preparation``
    preparation: CoordinateChange
    exact: bool                   # certified for c*u^2 + b(v), else a lower bound


def subleading_shift(f: Poly, name: str) -> Optional[Poly]:
    """The shift removing the coefficient of name^(d-1), d the degree of f in name.

    When the coefficient ``lead`` of name^d is a constant and the coefficient
    ``sub`` of name^(d-1) is nonzero, name -> name + shift with
    shift = -sub/(d*lead) removes it exactly (for d = 2, completing the
    square).  Returns the shift on f's chart, or None.
    """
    coefficients = f.coefficients_in(name)
    d = len(coefficients) - 1
    if d < 1:
        return None
    lead, sub = coefficients[d], coefficients[d - 1]
    if lead.total_degree() != 0 or sub.is_zero():
        return None
    return sub.extend_variables(f.variables).scale(-1 / (d * lead.constant_term()))


def plane_curve_invariant(f: Poly) -> PlaneCurveInvariant:
    """Invariant (a_1, a_2) of a plane-curve germ at the origin, with its centre.

    a_1 is the multiplicity d.  The germ is prepared in two steps: a shear
    v -> v + c*u exposes u^d when neither pure power of degree d occurs, and
    when the germ is monic of degree d in u the shift
    u -> u - (coefficient of u^(d-1))/d removes the subleading coefficient
    exactly.  Both steps make up ``preparation``.  The invariant and the
    centre are then those of
    :func:`max_monomial_centre` of the prepared germ: with u^d present,
    a_2 = min j*d/(d-i) over the monomials u^i v^j with i < d.  Exact for
    d = 2 when the prepared germ is c*u^2 + b(v) (completing the square);
    flagged as a lower bound otherwise, and always for d >= 3.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no invariant")
    if len(f.variables) != 2:
        raise ValueError("plane_curve_invariant expects a two-variable chart")
    if f.constant_term() != 0:
        raise ValueError("the germ must vanish at the origin")

    d = f.min_total_degree()
    u, v = f.variables
    change = CoordinateChange(())
    powers = [name for name in f.variables
              if tuple(d if w == name else 0 for w in f.variables) in f.nums]
    # prefer a variable of degree d, in which the subleading shift can apply
    main = next((name for name in powers if f.degree_in(name) == d),
                powers[0] if powers else None)
    if main is None:
        # v -> v + c*u gives u^d the coefficient h(1, c), h the tangent cone:
        # a nonzero polynomial in c of degree at most d with the root c = 0,
        # so one of the first d nonzero integers 1, -1, 2, -2, ... works
        cone = [(e[1], n) for e, n in f.nums.items() if sum(e) == d]
        c = next(c for k in range(1, d + 1) for c in (k, -k)
                 if sum(a * c ** j for j, a in cone) != 0)
        change = CoordinateChange.shear(v, Poly.var(f.variables, u).scale(c))
        main = u
    work = change(f)

    shift = subleading_shift(work, main) if work.degree_in(main) == d else None
    if shift is not None:
        step = CoordinateChange.shear(main, shift)
        change, work = change + step, step(work)

    result = max_monomial_centre(work)
    # completing the square certifies (2, a_2) only on c*u^2 + b(v)
    prepared = work.coefficients_in(main)
    weierstrass = (len(prepared) == d + 1 and prepared[d].total_degree() == 0
                   and prepared[d - 1].is_zero())
    exact = d == 2 and weierstrass and result.invariant.length() == 2
    return PlaneCurveInvariant(result.invariant, result.centre, work, change, exact)
