"""Resolution drivers.

:func:`resolve_plane_curve` carries out embedded resolution of a plane curve
germ by weighted blowups: locate rational singular points, take the invariant
and the centre of the prepared germ, blow up that weighted centre,
pass to the slice charts, and recurse on the strict transforms.  The
invariant strictly decreases along every edge of the resulting chart tree (a
chart where it does not is refused) and every leaf is certified smooth (or
the step budget is exhausted).

:func:`select_centre_31` and :func:`select_centre_32` carry out the centre
selection for Poisson triples at the origin of normal-form coordinates: curves in
threefolds split by the linearized Lie algebra class (abelian points take the
unweighted point centre; Heisenberg points take the associated centre or a
b-completion of the bivector's vanishing surface, depending on the dimension
of that vanishing locus), and surfaces in threefolds take the associated
centre away from invariant (2,3,3), the surface classes D and the Whitney
umbrella, which are selected in the prepared coordinates of the class: an
isolated type-D point at its witness centre, a singular curve by the
unweighted centre on it.  Every selected centre is
certified conilpotent; unrecognised inputs are refused with diagnostics, not
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .ring import Point, Poly, is_infinite, resultant
from .polyvector import (
    ABELIAN,
    HEISENBERG,
    SPLIT_NONABELIAN,
    Polyvector,
    is_poisson,
    is_tangent,
    jacobian_poisson,
    _sort_indices,
    shear,
)
from .centre import Centre
from .blowup import (
    CentreReport,
    _restrict_to_slice,
    check_centre,
    exceptional_name,
    pullback_function,
    pullback_polyvector,
    rational_singular_points,
    slice_chart,
)
from .invariant import (
    InvariantSeq,
    lex_compare,
    lex_key,
    max_monomial_centre,
    plane_curve_invariant,
)
from .classify import (
    D_CLASS,
    WHITNEY_UMBRELLA,
    detect_duval_point,
    detect_nonnilpotent_point,
    line_in_zero_locus,
    sigma_tangent_to_ideal,
)

SMOOTH_LEAF = "smooth"
SINGULAR = "singular"
INDETERMINATE_STATUS = "indeterminate"
TERMINAL_NON_NILPOTENT = "terminal_non_nilpotent"
TERMINAL_DUVAL = "terminal_duval"


@dataclass
class ResolutionNode:
    """One chart of the resolution tree."""

    chart_id: str
    parent_id: Optional[str]
    equation: Poly
    status: str
    invariant: Optional[InvariantSeq] = None
    centre: Optional[Centre] = None
    slice_variable: Optional[str] = None
    residual_group_order: int = 1
    singular_points: List[Point] = field(default_factory=list)
    children: List["ResolutionNode"] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def leaves(self) -> List["ResolutionNode"]:
        if not self.children:
            return [self]
        out = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        pieces = [f"{pad}[{self.chart_id}] {self.status}: {self.equation}"]
        if self.invariant is not None:
            pieces[0] += f"  invariant=({self.invariant})"
        if self.centre is not None:
            pieces[0] += f"  centre[{self.centre}]"
        for note in self.notes:
            pieces.append(f"{pad}  - {note}")
        for child in self.children:
            pieces.append(child.render(indent + 1))
        return "\n".join(pieces)

    def to_dict(self) -> dict:
        return {
            "chart_id": self.chart_id,
            "parent_id": self.parent_id,
            "equation": str(self.equation),
            "status": self.status,
            "invariant": None if self.invariant is None else str(self.invariant),
            "centre": None if self.centre is None else str(self.centre),
            "slice_variable": self.slice_variable,
            "residual_group_order": self.residual_group_order,
            "singular_points": [[str(c) for c in p] for p in self.singular_points],
            "notes": self.notes,
            "children": [c.to_dict() for c in self.children],
        }


def _is_squarefree(f: Poly) -> bool:
    """Squarefree test through resultants with the derivative, per variable.

    Only the zero test of each resultant is used, never its value; a repeated
    factor ends the subresultant sequence at its first zero pseudo-remainder.
    On a chart where only ``name`` occurs the resultant has degree zero and
    is zero exactly when f has a repeated factor.
    """
    for name in f.variables:
        derivative = f.diff(name)
        if derivative.is_zero():
            continue
        if resultant(f, derivative, name).is_zero():
            return False
    return True


def resolve_plane_curve(f: Poly, max_steps: int = 6) -> ResolutionNode:
    """Embedded resolution tree of a squarefree plane curve germ.

    Each node holds a chart equation; at singular charts every rational
    singular point is translated to the origin, its invariant computed, the
    weighted centre blown up, and one child created per slice chart.  The
    chart invariant (the largest invariant over its singular points) strictly
    decreases from parent to child; a chart where it does not is refused
    (RefusalError).  Leaves are certified smooth, or marked indeterminate
    when a singular locus is not rational.
    """
    if len(f.variables) != 2:
        raise ValueError("resolve_plane_curve expects a two-variable chart")
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    if not _is_squarefree(f):
        raise ValueError("the curve equation must be squarefree")

    root = _resolve_chart(f, "r", None, None, max_steps)
    return root


def _resolve_chart(equation: Poly, chart_id: str, parent_id: Optional[str],
                   parent_invariant: Optional[InvariantSeq],
                   budget: int, exceptional: Optional[str] = None) -> ResolutionNode:
    all_points, certain = rational_singular_points(equation)
    points = list(all_points)
    copies = []
    if exceptional is not None:
        # singular points off the exceptional divisor are isomorphic copies of
        # other germs of the original curve; they are resolved in the sibling
        # branches rooted at those germs
        index = equation.variables.index(exceptional)
        points = [p for p in all_points if p[index] == 0]
        copies = [p for p in all_points if p[index] != 0]
    node = ResolutionNode(chart_id, parent_id, equation,
                          SMOOTH_LEAF if not points else SINGULAR,
                          singular_points=list(points))
    for copy in copies:
        node.notes.append(
            f"singular point {tuple(str(c) for c in copy)} is a copy of a germ "
            "resolved in a sibling branch")
    if not certain:
        node.status = INDETERMINATE_STATUS
        node.notes.append("singular locus not certified rational")
        return node
    if not points:
        return node
    if budget <= 0:
        node.notes.append("step budget exhausted")
        return node

    for index, point in enumerate(sorted(points)):
        local = equation.translate(point)
        plane = plane_curve_invariant(local)
        if (parent_invariant is not None
                and lex_compare(plane.invariant, parent_invariant) >= 0):
            raise RefusalError(
                f"chart {chart_id}: the invariant ({plane.invariant}) at the singular "
                f"point {tuple(str(c) for c in point)} does not drop below the "
                f"parent's ({parent_invariant})")
        centre = plane.centre
        point_node = ResolutionNode(
            chart_id=f"{chart_id}/{index}",
            parent_id=chart_id,
            equation=local,
            status=SINGULAR,
            invariant=plane.invariant,
            centre=centre,
            singular_points=[tuple(Fraction(0) for _ in local.variables)],
            notes=[f"singular point {tuple(str(c) for c in point)}"]
                  + plane.preparation_log,
        )
        node.children.append(point_node)
        proper = pullback_function(plane.prepared, centre).proper_part
        for name in centre.support():
            chart = slice_chart(centre, name)
            child = _resolve_chart(_restrict_to_slice(proper, chart),
                                   f"{point_node.chart_id}:{name}",
                                   point_node.chart_id, plane.invariant, budget - 1,
                                   exceptional=exceptional_name(centre.variables))
            child.slice_variable = name
            child.residual_group_order = chart.residual_group_order
            point_node.children.append(child)
    invariants = [child.invariant for child in node.children if child.invariant]
    if invariants:
        node.invariant = max(invariants, key=lex_key)
    return node


def resolution_is_complete(root: ResolutionNode) -> bool:
    return all(leaf.status == SMOOTH_LEAF for leaf in root.leaves())


def count_blowups(root: ResolutionNode) -> int:
    total = 1 if root.centre is not None else 0
    for child in root.children:
        total += count_blowups(child)
    return total


# ---------------------------------------------------------------------------
# centre selection for Poisson triples
# ---------------------------------------------------------------------------

A1_GT_1 = "a1_gt_1"
AB_POINT = "ab_point"
HEIS_CURVE_VANISHING = "heis_curve_vanishing"
HEIS_SURFACE_VANISHING = "heis_surface_vanishing"
INV_233_SURFACE = "inv_233_surface"
GENERIC_ASSOC = "generic_assoc"


@dataclass
class CentreSelection:
    """A selected blowup centre with its case tag and certificate.

    A terminal point has no codegenerate centre: its selection carries no
    centre, no report and no certificate.  Otherwise ``report`` is the
    certificate's centre report.
    """

    case: str
    centre: Optional[Centre]
    report: Optional[CentreReport]
    rationale: str
    # the shears (name, shift), name -> name + shift, applied before the centre
    coordinate_change: List[Tuple[str, Poly]] = field(default_factory=list)
    sigma: Optional[Polyvector] = None                    # in the working coordinates
    certificate: Optional["StepCertificate"] = None       # full blowup-step run


class RefusalError(ValueError):
    """Input outside the recognised normal forms; diagnostics in the message."""


def _recognise_heisenberg_form(sigma: Polyvector
                               ) -> Tuple[str, Poly, Poly, Tuple[str, str]]:
    """Match sigma against (x + A(y,z)) @y^@z + [volume, B(y,z)].

    Returns (x-like variable, A, B, (y-like, z-like)).  Raises RefusalError
    when the bivector is not in this shape.
    """
    variables = sigma.variables
    n = len(variables)
    linear_slots = []
    for (i, j), coeff in sigma.terms.items():
        linear = {e for e in coeff.nums if sum(e) == 1}
        if linear:
            linear_slots.append(((i, j), linear))
    candidates = []
    for (i, j), linear in linear_slots:
        for e in linear:
            k = e.index(1)
            if k not in (i, j):
                candidates.append(((i, j), k))
    if len(candidates) != 1:
        raise RefusalError(
            "bivector linear part is not a single Heisenberg slot; "
            f"found {len(candidates)} candidates")
    (i, j), k = candidates[0]
    x_name = variables[k]
    y_name, z_name = variables[i], variables[j]
    main = sigma.bracket_of_coordinates(i, j)
    unit_exp = tuple(1 if m == k else 0 for m in range(n))
    scale = main.terms.get(unit_exp)
    if scale != 1:
        raise RefusalError(f"Heisenberg slot has coefficient {scale}, expected 1 "
                           "(rescale the coordinates first)")
    A = main - Poly.var(variables, x_name)
    if A.degree_in(x_name) > 0:
        raise RefusalError("the pencil part A depends on the Heisenberg variable")
    if not A.is_zero() and A.min_total_degree() < 2:
        raise RefusalError("the pencil part A does not vanish to order two")
    # the remaining components must be an exact Jacobian pair in (y, z):
    # sigma - (x+A) dy^dz should equal the Jacobian bivector of some B(y,z)
    residual = sigma - Polyvector(2, variables, {(i, j): main})
    B = _integrate_jacobian(residual, x_name, y_name, z_name)
    return x_name, A, B, (y_name, z_name)


def _integrate_jacobian(residual: Polyvector, x_name: str, y_name: str,
                        z_name: str) -> Poly:
    """Find B(y,z) with residual = [volume, B], or refuse."""
    variables = residual.variables
    if residual.is_zero():
        return Poly.zero(variables)
    # the residual is sigma minus its (y,z) slot, so only the (x,y) and
    # (x,z) slots remain
    ix, iy, iz = (variables.index(x_name), variables.index(y_name),
                  variables.index(z_name))
    b_y = residual.coefficient((iz, ix))   # [mu, B] has B_y @z^@x
    b_z = residual.coefficient((ix, iy))   # and B_z @x^@y
    if b_y.degree_in(x_name) > 0 or b_z.degree_in(x_name) > 0:
        raise RefusalError("the divergence part depends on the Heisenberg variable")
    # exactness: d/dz b_y == d/dy b_z
    if b_y.diff(z_name) != b_z.diff(y_name):
        raise RefusalError("residual is not an exact Jacobian bivector")
    B = _antiderivative(b_y, y_name)
    correction = b_z - B.diff(z_name)
    if correction.degree_in(y_name) > 0:
        raise RefusalError("integration failed; input not in normal form")
    B = B + _antiderivative(correction, z_name)
    # [volume, B] in the frame (x, y, z) is the chart's Jacobian bivector
    # times the sign of the frame's permutation
    _, sign = _sort_indices((ix, iy, iz))
    if jacobian_poisson(B).scale(sign) != residual:
        raise RefusalError("integrated potential does not reproduce the bivector")
    if not B.is_zero() and B.min_total_degree() < 3:
        raise RefusalError("the potential B does not vanish to order three")
    return B


def _antiderivative(f: Poly, name: str) -> Poly:
    index = f.variables.index(name)
    terms = {}
    for exponent, coeff in f.terms.items():
        lifted = exponent[:index] + (exponent[index] + 1,) + exponent[index + 1:]
        terms[lifted] = coeff / (exponent[index] + 1)
    return Poly(f.variables, terms, f.cap)


def _certified_selection(case: str, sigma: Polyvector, equations: Sequence[Poly],
                         centre: Centre, rationale: str,
                         coordinate_change: Sequence[Tuple[str, Poly]] = ()
                         ) -> CentreSelection:
    """Certify one blowup step at ``centre`` and select it.

    StepAbort when the centre is not conilpotent or the lifted bivector is
    not regular, Poisson and tangent to the strict transforms.  A chart
    invariant that does not drop is recorded in the certificate's
    ``invariant_decreased`` and ``notes`` and does not abort: both sides
    are monomial lower bounds.
    """
    certificate = certify_blowup_step(sigma, equations, centre)
    return CentreSelection(case, centre, certificate.centre_report, rationale,
                           coordinate_change=list(coordinate_change), sigma=sigma,
                           certificate=certificate)


def select_centre_31(sigma: Polyvector, y_generators: Sequence[Poly]
                     ) -> List[CentreSelection]:
    """Centre selection for a curve in a threefold at the origin; translate first.

    The coordinates are normal-form coordinates.  A non-nilpotent point is
    terminal (it admits no codegenerate centre); when the curve invariant
    starts above one the associated monomial centre is selected; otherwise
    the linearization decides between the unweighted point centre (abelian)
    and the Heisenberg cases, where the vanishing locus of the bivector
    being a curve selects the associated centre and a smooth surface selects
    the b-completion of its unweighted centre with b the second invariant
    entry.  Every selected centre passes the blowup-step certificate.
    Returns the one selection at the origin, as a list.
    """
    variables = sigma.variables
    if len(variables) != 3:
        raise RefusalError("curve triples live in a three-variable chart")
    if not sigma_tangent_to_ideal(sigma, y_generators):
        raise RefusalError("bivector is not tangent to the curve")

    result = max_monomial_centre(y_generators)
    if result.invariant.entries[0] > 1:
        return [_certified_selection(
            A1_GT_1, sigma, y_generators, result.centre,
            "curve not contained in a smooth surface: associated centre "
            "of the pair is conilpotent because kappa_2 <= 1")]

    triple = detect_nonnilpotent_point(sigma, y_generators,
                                       tuple(Fraction(0) for _ in variables))
    if triple.lie_class == SPLIT_NONABELIAN:
        return [CentreSelection(
            TERMINAL_NON_NILPOTENT, None, None,
            "non-nilpotent point: no codegenerate centre exists; "
            "the point is a terminal singularity of the triple")]
    if triple.lie_class == ABELIAN:
        return [_certified_selection(
            AB_POINT, sigma, y_generators, Centre.unweighted(variables),
            "abelian linearization: the unweighted point centre is "
            "conilpotent (conormal bracket is abelian)")]
    if triple.lie_class != HEISENBERG:
        raise RefusalError(f"unexpected linearization class {triple.lie_class}")

    x_name, A, B, (y_name, z_name) = _recognise_heisenberg_form(sigma)
    if not B.is_zero():
        if result.centre.exponent_of(x_name) != 1:
            raise RefusalError(
                "expected the Heisenberg variable to carry exponent one in "
                f"the associated centre, got {result.centre}")
        return [_certified_selection(
            HEIS_CURVE_VANISHING, sigma, y_generators, result.centre,
            "Heisenberg point with one-dimensional bivector vanishing "
            "locus: associated centre (x carries exponent one; every term "
            "has order at least 1 - 1/b - 1/c >= 0)")]

    # vanishing locus is the smooth surface x + A = 0: x -> x - A
    # makes it x = 0
    step = (x_name, -A)
    sheared = shear(sigma, *step)
    sheared_generators = [shear(g, *step) for g in y_generators]
    plane_candidates = [g for g in sheared_generators
                        if g.degree_in(x_name) == 0 and not g.is_zero()]
    if not plane_candidates:
        raise RefusalError(
            "cannot express the curve inside the vanishing surface; "
            "generators not in normal form")
    plane_curve = plane_candidates[0]
    b = Fraction(plane_curve.min_total_degree())
    if b < 1:
        raise RefusalError("curve multiplicity below one after shearing")
    centre = Centre.unweighted(variables, [x_name]).b_completion(b)
    return [_certified_selection(
        HEIS_SURFACE_VANISHING, sheared, sheared_generators, centre,
        f"Heisenberg point with smooth surface vanishing locus: "
        f"b-completion of the unweighted surface centre at b = {b}",
        coordinate_change=[] if A.is_zero() else [step])]


def select_centre_32(sigma: Polyvector, f: Poly) -> List[CentreSelection]:
    """Centre selection for a surface in a threefold at the origin; translate first.

    The coordinates are normal-form coordinates.  Du Val points of the
    triple are terminal.  Away from them, the associated monomial centre is
    selected unless the surface class is D or the Whitney umbrella, those of
    invariant (2,3,3).  These are selected in the prepared coordinates of
    the class, its preparation recorded as the selection's coordinate
    change: an isolated type-D point at the class's witness centre (refused
    when there is none), a one-dimensional singular locus by the unweighted
    centre on the curve, certified through the logarithmic tangency
    argument.  Every selected centre passes the blowup-step certificate.
    Returns the one selection at the origin, as a list.
    """
    variables = sigma.variables
    if len(variables) != 3 or f.variables != variables:
        raise RefusalError("surface triples live in a shared three-variable chart")
    if not is_tangent(sigma, f):
        raise RefusalError("bivector is not tangent to the surface")

    duval = detect_duval_point(sigma, f, tuple(Fraction(0) for _ in variables))
    if duval.duval:
        return [CentreSelection(
            TERMINAL_DUVAL, None, None,
            "Du Val point of the triple: no codegenerate centre exists "
            "(weight sums exceed one)")]

    surface = duval.surface_class
    if surface.kind not in (D_CLASS, WHITNEY_UMBRELLA):
        centre = max_monomial_centre(f).centre
        reduced = centre.reduced()
        if all(a == 1 for a in reduced.exponents if not is_infinite(a)):
            centre = reduced  # unweighted up to rescaling: report the reduction
        return [_certified_selection(
            GENERIC_ASSOC, sigma, [f], centre,
            "invariant differs from (2,3,3): the associated centre is "
            "conilpotent away from Du Val and Whitney points")]

    change = surface.preparation
    for step in change:
        sigma = shear(sigma, *step)
    f = surface.prepared
    line = line_in_zero_locus([f] + [f.diff(v) for v in variables])
    if line is None:
        if surface.witness_centre is None:
            raise RefusalError(f"no witness centre for the {surface.label()} point: "
                               + "; ".join(surface.diagnostics))
        return [_certified_selection(
            INV_233_SURFACE, sigma, [f], surface.witness_centre,
            "invariant (2,3,3) at an isolated type-D point that is not a Du "
            "Val point of the triple: associated centre", coordinate_change=change)]
    assert sum(1 for d in line if d) == 1, \
        f"the preparation {change} leaves the singular line {line} off the axes"
    # one-dimensional singular locus: unweighted centre on the curve
    support = [v for v, d in zip(variables, line) if d == 0]
    return [_certified_selection(
        INV_233_SURFACE, sigma, [f], Centre.unweighted(variables, support),
        "invariant (2,3,3) with a one-dimensional singular locus: "
        "unweighted centre on the curve (logarithmic tangency keeps "
        "every bracket at non-negative order)", coordinate_change=change)]


# ---------------------------------------------------------------------------
# one certified blowup step
# ---------------------------------------------------------------------------

@dataclass
class StepCertificate:
    centre: Centre
    centre_report: Optional[CentreReport]   # None without a bivector
    lift_regular: bool
    exceptional_tangent: Optional[bool]
    sigma_proper_poisson: Optional[bool]
    sigma_tangent_to_transforms: Optional[bool]
    invariant_before: Optional[InvariantSeq]
    invariants_after: List[Tuple[str, Optional[InvariantSeq]]]
    invariant_decreased: Optional[bool]
    notes: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        checks = [self.lift_regular]
        if self.centre_report is not None:
            checks.append(self.centre_report.conilpotent)
        if self.sigma_proper_poisson is not None:
            checks.append(self.sigma_proper_poisson)
        if self.sigma_tangent_to_transforms is not None:
            checks.append(self.sigma_tangent_to_transforms)
        if self.invariant_decreased is not None:
            checks.append(self.invariant_decreased)
        return all(bool(c) for c in checks)


class StepAbort(AssertionError):
    """A certificate failed; the witness is in the message."""


def certify_blowup_step(sigma: Optional[Polyvector], equations: Sequence[Poly],
                        centre: Centre) -> StepCertificate:
    """Run every certificate for one blowup step.

    With a bivector: the centre must be conilpotent, the bivector must lift
    (regularly, tangent to the exceptional divisor), the lifted proper part
    must stay Poisson and tangent to the strict transforms; each failure
    raises StepAbort.  With or without a bivector: the invariant of the
    ideal generated by the strict transforms is compared lexicographically,
    in every slice chart, with the invariant of the ideal at the blown-up
    point (a chart where a strict transform becomes a unit is resolved and
    drops out).  Both sides are monomial lower bounds, so a chart where it
    does not drop sets ``invariant_decreased`` to False and adds a note; it
    does not raise.
    """
    notes: List[str] = []
    equations = list(equations)
    before = max_monomial_centre(equations).invariant

    centre_report = None
    lift_regular = True
    tangent = None
    proper_poisson = None
    tangent_to_transforms = None
    proper_parts = [pullback_function(equation, centre).proper_part
                    for equation in equations]

    if sigma is not None:
        centre_report = check_centre(sigma, centre)
        if not centre_report.conilpotent:
            witness = [w for w in centre_report.witnesses if w.tag in ("CN", "CD1", "CD2")]
            raise StepAbort(f"centre {centre} is not conilpotent; witnesses: "
                            + "; ".join(str(w.to_dict()) for w in witness))
        pull = pullback_polyvector(sigma, centre)
        lift_regular = pull.regular
        tangent = pull.exceptional_tangent
        if not lift_regular:
            raise StepAbort(f"bivector does not lift along {centre}: minimal "
                            f"t-exponent {pull.min_t_exponent}")
        proper = pull.proper_part
        assert isinstance(proper, Polyvector)
        proper_poisson = is_poisson(proper)[0]
        if not proper_poisson:
            raise StepAbort("lifted bivector is no longer Poisson")
        # tangency to the ideal generated by the strict transforms, not to
        # each hypersurface separately (the subvariety may be a complete
        # intersection)
        tangent_to_transforms = sigma_tangent_to_ideal(proper, proper_parts)
        if not tangent_to_transforms:
            raise StepAbort("lifted bivector not tangent to the strict transform")

    after: List[Tuple[str, Optional[InvariantSeq]]] = []
    decreased: Optional[bool] = True
    for name in centre.support():
        chart = slice_chart(centre, name)
        transforms = [_restrict_to_slice(p, chart) for p in proper_parts]
        if any(t.constant_term() != 0 for t in transforms):
            after.append((name, None))  # unit ideal: the chart is resolved
            continue
        chart_invariant = max_monomial_centre(transforms).invariant
        if lex_compare(chart_invariant, before) >= 0:
            decreased = False
            notes.append(
                f"invariant lower bound did not decrease in chart {name}: "
                f"{chart_invariant} vs {before}")
        after.append((name, chart_invariant))

    certificate = StepCertificate(
        centre=centre,
        centre_report=centre_report,
        lift_regular=lift_regular,
        exceptional_tangent=tangent,
        sigma_proper_poisson=proper_poisson,
        sigma_tangent_to_transforms=tangent_to_transforms,
        invariant_before=before,
        invariants_after=after,
        invariant_decreased=decreased,
        notes=notes,
    )
    return certificate
