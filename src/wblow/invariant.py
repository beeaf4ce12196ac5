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
* :func:`plane_curve_invariant` prepares a plane-curve germ (a shear that
  exposes the pure power of the multiplicity, then a shift killing the
  subleading coefficient) and takes the maximal monomial centre of the
  prepared germ.  Exact for multiplicity two; a certified lower bound beyond
  that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ring import INF, ExtRational, Poly, format_ext, is_infinite, parse_ext
from .centre import Centre
from .polyvector import shear

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
        for a, b in zip(finite, finite[1:]):
            if a > b:
                raise ValueError(f"entries must be weakly increasing: {self.entries}")
        for a in finite:
            if a <= 0:
                raise ValueError(f"entries must be positive: {self.entries}")

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
            piece = piece.strip()
            if "." in piece:  # decimal like 4.5 for convenience
                entries.append(Fraction(piece))
            else:
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

def _partial_sums_reachable(entries: Sequence[Fraction], j: int) -> bool:
    """Whether 1 = sum n_i/a_i is solvable with n_i >= 0 integers and n_j > 0."""
    a_j = entries[j - 1]
    bound_j = int(a_j)  # n_j / a_j <= 1
    prefix = entries[:j - 1]

    reachable = {Fraction(0)}
    for a in prefix:
        new = set()
        for s in reachable:
            n = 0
            while True:
                value = s + Fraction(n) / a
                if value > 1:
                    break
                new.add(value)
                n += 1
        reachable = new
    for n in range(1, bound_j + 1):
        if Fraction(1) - Fraction(n) / a_j in reachable:
            return True
    return False


def validate_invariant(seq: InvariantSeq) -> InvariantSeq:
    """Check the occurrence constraints prefix by prefix.

    For every j up to the finite length there must exist non-negative
    integers n_1..n_j with sum n_i/a_i = 1 and n_j nonzero; the search is
    complete with the bound n_i <= floor(a_i).  Returns a copy carrying the
    verdict, with the failing prefix length as witness.
    """
    finite = seq.finite_entries()
    for j in range(1, len(finite) + 1):
        if not _partial_sums_reachable(finite, j):
            return InvariantSeq(seq.entries, INVALID, j)
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
    and a warning recorded when it fails.
    """
    generators = [f] if isinstance(f, Poly) else list(f)
    if not generators or all(g.is_zero() for g in generators):
        raise ValueError("the zero ideal has no associated centre")
    variables = generators[0].variables
    for g in generators:
        if g.variables != variables:
            raise ValueError("generators must share one chart")
        if g.constant_term() != 0:
            raise ValueError("the ideal is the unit ideal at the origin")
    polyhedron = NewtonPolyhedron.of(generators)
    points = polyhedron.minimal_points
    n = len(variables)

    # branch over the carrier of each successive maximal weight; collect the
    # per-variable weights along the winning branch
    def search(done: Dict[int, Fraction], remaining: Tuple[int, ...]
               ) -> Optional[Dict[int, Fraction]]:
        if not remaining:
            return dict(done)
        m = Fraction(0)
        for p in points:
            finished = sum((done[i] * p[i] for i in done), Fraction(0))
            load = sum(p[i] for i in remaining)
            if load == 0:
                if finished < 1:
                    return None
                continue
            m = max(m, (1 - finished) / load)
        if m <= 0:
            return {**done, **{i: Fraction(0) for i in remaining}}
        best_weights: Optional[Tuple[Fraction, ...]] = None
        best_result: Optional[Dict[int, Fraction]] = None
        # ties between carriers break towards the lexicographically smallest
        # variable name, for determinism independent of chart declaration order
        for i in sorted(remaining, key=lambda k: variables[k]):
            result = search({**done, i: m}, tuple(r for r in remaining if r != i))
            if result is None:
                continue
            key = tuple(sorted(result.values(), reverse=True))
            if best_weights is None or key < best_weights:
                best_weights, best_result = key, result
        return best_result

    assignment = search({}, tuple(range(n)))
    if assignment is None:
        raise ValueError("no admissible monomial centre exists")
    weights = [assignment[i] for i in range(n)]
    orders = [sum((w * e for w, e in zip(weights, p)), Fraction(0)) for p in points]
    assert all(o >= 1 for o in orders) and min(orders) == 1, \
        "maximal monomial centre is not admissible"

    exponents = tuple(INF if w == 0 else Fraction(1) / w for w in weights)
    centre = Centre(variables, exponents)
    sequence = InvariantSeq(tuple(sorted((a for a in exponents if not is_infinite(a)))))
    checked = validate_invariant(sequence)
    warning = None
    if checked.status != VALID:
        warning = (f"monomial-restricted sequence fails the invariant constraints "
                   f"at prefix {checked.witness}; it is only a lower bound")
    return MonomialCentreResult(centre, checked, True, warning)


# ---------------------------------------------------------------------------
# plane-curve invariants
# ---------------------------------------------------------------------------

@dataclass
class PlaneCurveInvariant:
    invariant: InvariantSeq
    centre: Centre                # the maximal monomial centre of the prepared germ
    prepared: Poly                # the germ after preparation
    preparation_log: List[str]
    exact: bool                   # certified for c*u^2 + b(v), else a lower bound


def subleading_shift(f: Poly, name: str) -> Optional[Tuple[Poly, Poly, Fraction]]:
    """The shift removing the coefficient of name^(d-1), d the degree of f in name.

    When the coefficient ``lead`` of name^d is a constant and the coefficient
    ``sub`` of name^(d-1) is nonzero, name -> name + shift with
    shift = -sub/(d*lead) removes it exactly (for d = 2, completing the
    square).  Returns (shift on f's chart, sub, d*lead), or None.
    """
    coefficients = f.coefficients_in(name)
    d = len(coefficients) - 1
    if d < 1:
        return None
    lead, sub = coefficients[d], coefficients[d - 1]
    if lead.total_degree() != 0 or sub.is_zero():
        return None
    divisor = d * lead.constant_term()
    return sub.extend_variables(f.variables).scale(-1 / divisor), sub, divisor


def plane_curve_invariant(f: Poly) -> PlaneCurveInvariant:
    """Invariant (a_1, a_2) of a plane-curve germ at the origin, with its centre.

    a_1 is the multiplicity d.  The germ is prepared in two steps: a shear
    v -> v + c*u exposes u^d when neither pure power of degree d occurs, and
    when the germ is monic of degree d in u the shift
    u -> u - (coefficient of u^(d-1))/d removes the subleading coefficient
    exactly.  The invariant and the centre are then those of
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

    log: List[str] = []
    d = f.min_total_degree()
    u, v = f.variables
    work = f
    powers = [name for name in f.variables
              if tuple(d if w == name else 0 for w in f.variables) in f.nums]
    # prefer a variable of degree d, in which the subleading shift can apply
    main = next((name for name in powers if f.degree_in(name) == d),
                powers[0] if powers else None)
    if main is None:
        # v -> v + c*u gives u^d the coefficient h(1, c), h the tangent cone:
        # a nonzero polynomial in c of degree at most d with the root c = 0,
        # so one of the first d nonzero integers 1, -1, 2, -2, ... works
        cone = [(e[1], a) for e, a in f.terms.items() if sum(e) == d]
        c = next(c for k in range(1, d + 1) for c in (k, -k)
                 if sum(a * c ** j for j, a in cone) != 0)
        work = shear(f, v, Poly.var(f.variables, u).scale(c))
        main = u
        log.append(f"shear {v} -> {v} + {c}*{u}")

    found = subleading_shift(work, main) if work.degree_in(main) == d else None
    if found is not None:
        shift, sub, divisor = found
        work = shear(work, main, shift)
        log.append(f"shift {main} -> {main} - ({sub})/{divisor}")

    result = max_monomial_centre(work)
    if result.invariant.length() == 1:
        log.append("no monomial off the pure power; length-one invariant")
    # completing the square certifies (2, a_2) only on c*u^2 + b(v)
    prepared = work.coefficients_in(main)
    weierstrass = (len(prepared) == d + 1 and prepared[d].total_degree() == 0
                   and prepared[d - 1].is_zero())
    exact = d == 2 and weierstrass and result.invariant.length() == 2
    return PlaneCurveInvariant(result.invariant, result.centre, work, log, exact)
