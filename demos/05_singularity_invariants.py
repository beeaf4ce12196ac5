"""Singularity invariants: admissible centres and their arithmetic.

An invariant is the exponent sequence of the maximal admissible centre.  Not
every sequence occurs: each prefix must solve an integrality constraint, and
small invariants are exactly the Du Val / normal-crossings / Whitney list.
"""

from wblow import (
    CoordinateChange,
    InvariantSeq,
    canonical_numerics,
    is_admissible,
    lex_compare,
    max_monomial_centre,
    parse_centre,
    parse_poly,
    plane_curve_invariant,
    validate_invariant,
)

V = ("x", "y", "z")

print("== which sequences occur ==")
for text in ("2,3,9/2", "2,3,11/2", "3/2,2", "2,2,7"):
    verdict = validate_invariant(InvariantSeq.parse(text))
    suffix = "" if verdict.witness is None else f" (fails at prefix {verdict.witness})"
    print(f"({text}) -> {verdict.status}{suffix}")

print()
print("== the small-invariant trichotomy ==")
for text in ("2,2,7", "2,3,5", "2,3,6", "2,4,4"):
    result = canonical_numerics(validate_invariant(InvariantSeq.parse(text)))
    print(f"({text}): below (2,3,6)? {result['below_236']}; "
          f"kappa_3 > 1 or (2,2)? {result['kappa3_above_1_or_22']}; "
          f"in the list? {result['in_ADE_list']}")

print()
print("== maximal monomial centres reproduce the classical table ==")
for text in ("x*y", "x^2 - y^2*z", "x^2 + y^2 + z^5", "x^2 + y^2*z + z^4",
             "x^2 + y^3 + z^4", "x^2 + y^3 + y*z^3", "x^2 + y^3 + z^5"):
    result = max_monomial_centre(parse_poly(text, V))
    print(f"{text:22s} invariant ({result.invariant})  "
          f"kappa_3 = {result.invariant.kappa(3)}")

print()
print("== admissibility is order exactly one ==")
W = parse_poly("x^2 - y^2*z", V)
print("(2,3,3) admissible for the umbrella:",
      is_admissible(parse_centre("x:2 y:3 z:3"), W))
print("(1,1,1) admissible?", is_admissible(parse_centre("x:1 y:1 z:1"), W))

print()
print("== plane curves and preparation ==")
# the preparation is a CoordinateChange: applied to the curve it gives the
# prepared germ, whose maximal monomial centre carries the invariant
for text in ("y^2 - x^3", "y^2 - x^5", "(y + x^2)^2 - x^5", "x*y"):
    curve = parse_poly(text, ("x", "y"))
    result = plane_curve_invariant(curve)
    note = "" if result.exact else "  [lower bound]"
    steps = f"  prepared by {result.preparation}" if result.preparation.steps else ""
    replays = result.preparation(curve) == result.prepared
    print(f"{text:20s} -> ({result.invariant}){note}{steps}  replays: {replays}")

print()
print("== powers rescale the invariant ==")
cusp = parse_poly("y^2 - x^3", ("x", "y"))
for k in (1, 2, 3):
    print(f"cusp^{k}: ({max_monomial_centre(cusp ** k).invariant})")

print()
print("== the result is a lower bound in lex order ==")
sheared = parse_poly("(x + y)^2", ("x", "y"))
move = CoordinateChange.shear("x", parse_poly("-y", ("x", "y")))
result, moved = max_monomial_centre(sheared), max_monomial_centre(move(sheared))
print(f"(x+y)^2 in these coordinates: ({result.invariant}); after {move} it is "
      f"{move(sheared)} with invariant ({moved.invariant}), which is larger:",
      lex_compare(moved.invariant, result.invariant) > 0)
