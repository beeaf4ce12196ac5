"""Centre selection for Poisson triples, with certificates.

For curves in threefolds the linearized Lie algebra class steers the choice;
for surfaces the invariant does.  Every selected centre is certified
conilpotent, the bivector is lifted through the blowdown substitution, and
the lifted structure is checked Poisson and tangent to the strict transforms.
"""

from wblow import jacobian_poisson, parse_poly, parse_polyvector
from wblow.polyvector import Polyvector
from wblow.resolve import select_centre_31, select_centre_32

V = ("x", "y", "z")


def describe(selection):
    # terminal points admit no codegenerate centre
    if selection.centre is None:
        return f"case {selection.case}, no centre"
    return f"case {selection.case}, centre [{selection.centre}]"


print("== curves in threefolds ==")
f = parse_poly("y^2 + z^2", V)
curve_cases = [
    ("Heisenberg point, curve vanishing locus",
     Polyvector(2, V, {(1, 2): parse_poly("x", V) + f}) + jacobian_poisson(f * f),
     [parse_poly("x", V) + f, f]),
    ("Heisenberg point, surface vanishing locus",
     Polyvector(2, V, {(1, 2): parse_poly("x", V) + f}),
     [parse_poly("x", V) + f, parse_poly("y^2 - z^3", V)]),
    ("abelian point",
     parse_polyvector("x^2*@x^@y", V),
     [parse_poly("x", V), parse_poly("y^2 - z^3", V)]),
    ("non-nilpotent point (terminal)",
     parse_polyvector("x*@x^@y", V),
     [parse_poly("x", V), parse_poly("y^2 - z^3", V)]),
    ("multiplicity two: the associated centre applies",
     jacobian_poisson(parse_poly("x^2 - y*z", V) ** 2),
     [parse_poly("x^2 - y*z", V), parse_poly("y^2 - x*z", V)]),
]
for name, sigma, generators in curve_cases:
    selection = select_centre_31(sigma, generators)
    print(f"{name}:")
    print(f"   {describe(selection)}")
    print(f"   {selection.rationale}")

print()
print("== surfaces in threefolds ==")
W = parse_poly("x^2 - y^2*z", V)
surface_cases = [
    ("Whitney umbrella", jacobian_poisson(W), W),
    ("normal crossings", parse_polyvector("x*y*@x^@z", V), parse_poly("x*y", V)),
    ("deep zero at an A2 point",
     jacobian_poisson(parse_poly("x^2 + y^2 + z^3", V)).scale(
         parse_poly("x^2 + y^2 + z^3", V) ** 2),
     parse_poly("x^2 + y^2 + z^3", V)),
    ("E8 Du Val point (terminal)",
     jacobian_poisson(parse_poly("x^2 + y^3 + z^5", V)),
     parse_poly("x^2 + y^3 + z^5", V)),
]
for name, sigma, equation in surface_cases:
    selection = select_centre_32(sigma, equation)
    print(f"{name}: {describe(selection)}")

print()
print("== one fully certified blowup step ==")
# the selection certifies its own step; the invariant before it is the one
# the selection searched.  A failed check raises StepAbort, so a certificate
# records only the conilpotent centre report and the invariants
certificate = select_centre_32(jacobian_poisson(W), W).certificate
print("conilpotent:", certificate.centre_report.conilpotent)
print("tangent to the exceptional divisor:", certificate.exceptional_tangent)
print("invariant before:", str(certificate.invariant_before))
print("invariants after, per chart:",
      [(chart, None if s is None else str(s))
       for chart, s in certificate.invariants_after])
print("invariant decreased:", certificate.invariant_decreased)
