"""Functoriality: a germ and its image under a change of coordinates get the
same verdicts, and changes transport functions and bivectors consistently.

The changes come from ``random_change`` in two kinds: ``linear``, the
elimination steps (shears and scalings) of an invertible matrix with entries
up to +-20, and ``triangular``, the shears x -> x + p(y, z), then
y -> y + q(z), with every monomial of degrees 2 and 3 and coefficients up to
+-3.  A case that fails today is a strict xfail naming the ROADMAP item that
mends it; the mend turns it into a pass.
"""

import random

import pytest

from wblow.ring import Poly, parse_poly
from wblow.polyvector import (
    CoordinateChange,
    Polyvector,
    jacobian_poisson,
    parse_polyvector,
)
from wblow.classify import classify_surface
from wblow.invariant import plane_curve_invariant
from wblow.resolve import resolve_plane_curve, select_centre_31, select_centre_32

from conftest import V2, V3, det, random_change, random_poly, undo

KINDS = {"linear": (range(-20, 21), 1), "triangular": (range(-3, 4), 3)}
MOVES = [("linear", 0), ("linear", 1), ("triangular", 0), ("triangular", 1)]

ITEM_2 = "ROADMAP item 2: the preparation misses a nonlinear change"
ITEM_2_CURVES = "ROADMAP item 2: curves are read before their Tschirnhausen shift"
ITEM_5 = "ROADMAP item 5: Heisenberg triples only in normal-form coordinates"


def _change(kind, seed, variables=V3):
    entries, degree = KINDS[kind]
    return random_change(random.Random(seed), entries, degree, variables)


def _cases(germs, moves, xfails):
    """(germ, kind, seed) parameters; the ids in ``xfails`` are strict xfails."""
    params = []
    for label, germ in germs:
        for kind, seed in moves:
            case = f"{label}-{kind}{seed}"
            marks = [pytest.mark.xfail(strict=True, reason=xfails[case])] if case in xfails else []
            params.append(pytest.param(germ, kind, seed, id=case, marks=marks))
    return params


# --- the type ----------------------------------------------------------------------------

@pytest.mark.parametrize("kind, seed", [(k, s) for k in KINDS for s in range(3)])
def test_round_trips(kind, seed):
    # each step followed by its negated shift or reciprocal scaling is the
    # identity, on functions and on bivectors
    rng = random.Random(f"round trip {kind}{seed}")
    change = _change(kind, seed)
    f = random_poly(rng, V3, max_degree=4, max_terms=5)
    sigma = Polyvector(2, V3, {(i, j): random_poly(rng, V3) for i, j in ((0, 1), (0, 2), (1, 2))})
    for step in change.steps:
        single = CoordinateChange((step,))
        assert undo(single)(single(f)) == f
        assert undo(single)(single(sigma)) == sigma
    assert undo(change)(change(f)) == f and undo(change)(change(sigma)) == sigma


@pytest.mark.parametrize("kind, seed", [(k, s) for k in KINDS for s in range(3)])
def test_transport_commutes_with_jacobian(kind, seed):
    # the change of J(f) is J of the changed f over the Jacobian determinant
    # of the change, read off the images of the coordinates by the chain rule
    rng = random.Random(f"jacobian {kind}{seed}")
    change = _change(kind, seed)
    images = [change(Poly.var(V3, v)) for v in V3]
    jacobian = det([[image.diff(v).constant_term() for v in V3] for image in images])
    for _ in range(3):
        f = random_poly(rng, V3, max_degree=4, max_terms=5)
        assert change(jacobian_poisson(f)) == jacobian_poisson(change(f)).scale(1 / jacobian)


def test_changes_compose_and_print_their_steps():
    x, y, z = (Poly.var(V3, v) for v in V3)
    change = CoordinateChange.shear("y", z.scale(-7)) + CoordinateChange.scaling(V3, "x", 2)
    assert change.lines() == ["y -> y - 7*z", "x -> 2*x"]
    assert str(change) == "y -> y - 7*z, x -> 2*x"
    assert change(x * y) == (x * (y - z.scale(7))).scale(2)
    assert CoordinateChange(())(x) == x
    with pytest.raises(ValueError):
        CoordinateChange.scaling(V3, "x", 0)
    with pytest.raises(ValueError):
        change(parse_poly("x", V2))


# --- surface classes ---------------------------------------------------------------------

SURFACES = [("A1", "x^2 + y^2 + z^2"), ("A3", "x^2 + y^2 + z^4"), ("A6", "x^2 + y^2 + z^7"),
            ("A8", "x^2 + y^2 + z^9"), ("D4", "x^2 + y^2*z + z^3"), ("D6", "x^2 + y^2*z + z^5"),
            ("E6", "x^2 + y^3 + z^4"), ("E7", "x^2 + y^3 + y*z^3"), ("E8", "x^2 + y^3 + z^5"),
            ("E12", "x^2 + y^3 + z^7"), ("whitney", "x^2 - y^2*z"), ("crossings", "x*y")]

CLASSIFY_XFAILS = {
    "E12-triangular1": ITEM_2, "whitney-triangular1": ITEM_2,
    "crossings-triangular0": ITEM_2, "crossings-triangular1": ITEM_2,
}


def _class(f):
    result = classify_surface(f)
    return result.label(), result.milnor, str(result.invariant)


@pytest.mark.parametrize("text, kind, seed", _cases(SURFACES, MOVES, CLASSIFY_XFAILS))
def test_classify_is_functorial(text, kind, seed):
    f = parse_poly(text, V3)
    assert _class(_change(kind, seed)(f)) == _class(f)


# --- plane curves ------------------------------------------------------------------------

CURVES = [("node", "y^2 - x^2"), ("cusp", "y^2 - x^3"), ("tacnode", "y^2 - x^4"),
          ("A4", "y^2 - x^5"), ("E6", "y^3 - x^4"), ("E8", "y^3 - x^5"),
          ("lines", "x*y*(x - y)")]

CURVE_XFAILS = {f"{label}-linear{seed}": ITEM_2_CURVES
                for label in ("cusp", "tacnode", "A4", "E6", "E8") for seed in (0, 1)}


def _curve(f):
    """The invariant of the germ, and the invariants of every blown-up point
    of its resolution tree, as a multiset."""
    def blown_up(node):
        own = [] if node.centre is None else [str(node.invariant)]
        return own + [i for child in node.children for i in blown_up(child)]
    return str(plane_curve_invariant(f).invariant), sorted(blown_up(resolve_plane_curve(f)))


@pytest.mark.parametrize("text, kind, seed", _cases(CURVES, MOVES, CURVE_XFAILS))
def test_plane_curves_are_functorial(text, kind, seed):
    f = parse_poly(text, V2)
    assert _curve(_change(kind, seed, V2)(f)) == _curve(f)


# --- triples -----------------------------------------------------------------------------

TRIPLE_MOVES = [("linear", 0), ("triangular", 1)]
TRIPLE_SURFACES = [(label, text) for label, text in SURFACES
                   if label not in ("A8", "D6", "E6", "E7")]

SELECT_32_XFAILS = {
    "A6-f-triangular1": ITEM_2, "E12-f-triangular1": ITEM_2, "E12-1 + x-triangular1": ITEM_2,
    "whitney-f-triangular1": ITEM_2, "whitney-1 + x-triangular1": ITEM_2,
    "crossings-f-triangular1": ITEM_2, "crossings-1 + x-triangular1": ITEM_2,
}


def _surface_selection(sigma, f):
    choice = select_centre_32(sigma, f)
    return choice.case, None if choice.certificate is None else str(
        choice.certificate.invariant_before)


# f*J(f) only under the cheaper triangular moves
@pytest.mark.parametrize("germ, kind, seed", _cases(
    [(f"{label}-f", (text, "f")) for label, text in TRIPLE_SURFACES], TRIPLE_MOVES[1:],
    SELECT_32_XFAILS) + _cases(
    [(f"{label}-1 + x", (text, "1 + x")) for label, text in TRIPLE_SURFACES], TRIPLE_MOVES,
    SELECT_32_XFAILS))
def test_surface_selection_is_functorial(germ, kind, seed):
    # the case, and the invariant at the selected centre; sigma = g*J(f)
    text, multiplier = germ
    f = parse_poly(text, V3)
    sigma = jacobian_poisson(f).scale(f if multiplier == "f" else parse_poly(multiplier, V3))
    change = _change(kind, seed)
    assert _surface_selection(change(sigma), change(f)) == _surface_selection(sigma, f)


HEISENBERG = parse_poly("x + y^2 + z^2", V3)
CURVE_TRIPLES = [
    ("heisenberg_curve", (Polyvector(2, V3, {(1, 2): HEISENBERG})
                          + jacobian_poisson(parse_poly("(y^2 + z^2)^2", V3)),
                          ["x + y^2 + z^2", "y^2 + z^2"])),
    ("heisenberg_surface", (Polyvector(2, V3, {(1, 2): HEISENBERG}),
                            ["x + y^2 + z^2", "y^2 - z^3"])),
    ("abelian", (parse_polyvector("x^2*@x^@y", V3), ["x", "y^2 - z^3"])),
]
SELECT_31_XFAILS = {f"heisenberg_{locus}-{kind}{seed}": ITEM_5
                    for locus in ("curve", "surface") for kind, seed in TRIPLE_MOVES}


@pytest.mark.parametrize("triple, kind, seed", _cases(CURVE_TRIPLES, TRIPLE_MOVES,
                                                      SELECT_31_XFAILS))
def test_curve_selection_is_functorial(triple, kind, seed):
    # the case only: the certificate's invariant of a generator pair is a
    # monomial lower bound, read in the given coordinates
    sigma, generators = triple
    generators = [parse_poly(g, V3) for g in generators]
    change = _change(kind, seed)
    moved = select_centre_31(change(sigma), [change(g) for g in generators])
    choice = select_centre_31(sigma, generators)
    assert moved.case == choice.case
