"""Surface classification, triple detectors, and normal-form verification.

Milnor numbers come from exact linear algebra on truncated local algebras;
the classifier is Arnold's determinator (the Hessian rank, the cubic on the
Hessian kernel and the Milnor number), which reads mu off the normal form
when the germ's leading term at its class centre is that normal form; and
the stated local normal forms for Poisson structures are verified
symbolically (to a stated order where a truncation is involved).
"""

from fractions import Fraction

from wblow import (
    CoordinateChange,
    classify_surface,
    detect_duval_point,
    detect_nonnilpotent_point,
    is_isolated_singularity,
    jacobian_poisson,
    milnor_number,
    parse_poly,
    parse_polyvector,
    verify_normal_form,
)

V = ("x", "y", "z")
ORIGIN = (Fraction(0),) * 3

print("== Milnor numbers ==")
for text in ("x^2 + y^2 + z^4", "x^2 + y^2*z + z^4", "x^2 + y^3 + z^5",
             "x^2 - y^2*z"):
    print(f"mu({text}) = {milnor_number(parse_poly(text, V))}")

print()
print("== classification ==")
for text in ("x^2 + y^2 + z^5", "x^2 + y^2*z + z^4", "x^2 + y^3 + y*z^3",
             "x^2 - y^2*z", "x*y", "x^3 + y^3 + z^3"):
    result = classify_surface(parse_poly(text, V))
    line = f"{text:20s} -> {result.label()}"
    if result.invariant is not None:
        line += f"  invariant ({result.invariant})"
    print(line)

print()
print("== beyond the degree bound of the local algebra ==")
# the local algebra of A19 does not stabilise below the default degree
# bound 12, but its leading term at x:2 y:2 z:20 is the normal form, a
# semi-quasi-homogeneous germ, whose mu is that of the normal form
A19 = parse_poly("x^2 + y^2 + z^20 + x*y*z", V)
result = classify_surface(A19)
print("milnor_number:", milnor_number(A19))
print(f"classify_surface: {result.label()}, mu = {result.milnor}")

print()
print("== a hidden coordinate change ==")
move = CoordinateChange.shear("y", parse_poly("7*z", V))
sheared = move(parse_poly("x^2 + y^3 + z^5", V))
print(f"E8 equation after {move}:", sheared)
result = classify_surface(sheared)
print("still classified as:", result.label(), "after the preparation", result.preparation)

print()
print("== triple detectors ==")
curve = [parse_poly("x", V), parse_poly("y^2 - z^3", V)]
for text in ("x*@x^@y", "x*@y^@z", "x^2*@x^@y"):
    report = detect_nonnilpotent_point(parse_polyvector(text, V), curve, ORIGIN)
    print(f"sigma = {text:12s} linearizes to {report.lie_class:17s} "
          f"non-nilpotent: {report.non_nilpotent}")

E8 = parse_poly("x^2 + y^3 + z^5", V)
report = detect_duval_point(jacobian_poisson(E8), E8, ORIGIN)
print("E8 with its Jacobian bivector is a Du Val point:", report.duval,
      " witness centre:", report.duval_witness_centre)
W = parse_poly("x^2 - y^2*z", V)
report = detect_duval_point(jacobian_poisson(W), W, ORIGIN)
print("the Whitney umbrella is not (non-isolated zero):", report.duval)

print()
print("== normal-form verification ==")
examples = [
    ("split_log", dict(k=1, lam=0)),
    ("split_log", dict(k=3, lam=1)),
    ("heisenberg_pencil", dict(f=parse_poly("y^2 + z^2", V),
                               a_coefficients=[1], b_coefficients=[0, 1])),
    ("whitney_family", dict(a_coefficients=[1])),
    ("duval_family", dict(family="E8", n=None, unit=parse_poly("1 + x", V))),
]
for kind, params in examples:
    report = verify_normal_form(kind, cap=9, **params)
    print(f"{kind:18s} ok={report.ok}  checks={report.checks}")
