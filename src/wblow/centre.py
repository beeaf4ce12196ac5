"""Weighted centres as valuations on a coordinate chart.

A centre assigns to each chart variable an exponent a_i in Q_{>0} or
infinity; the derived weight is w_i = 1/a_i with 1/inf = 0.  The monomial
x^J then has weighted order sum_i w_i j_i, and the order of a polynomial is
the minimum over its support.  Orders extend to polyvectors by giving d/dx_i
order -w_i.

Exponents are stored per variable (unsorted) so that variable names stay
stable; the sorted weight/exponent/weight-sum view lives in
:class:`WeightData`.  Base points other than the origin are handled by eager
translation inside the order and leading-term computations; only rational
base points are supported.

A centre is immutable, so its weights, weight data and reduced integer
weights are computed once per instance and memoised; equality and hashing
see only the three fields.  Weighted orders are integer dot products with the
reduced weights, scaled by their gcd at the end.

Text syntax: ``x:2 y:3 z:inf``, rationals allowed (``y:9/2``), with an
optional base point suffix ``@ (p1,p2,p3)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ring import (
    INF,
    ExtRational,
    Point,
    Poly,
    _exact,
    _grlex_key,
    ext_reciprocal,
    format_ext,
    fraction_gcd,
    is_infinite,
    parse_ext,
)
from .polyvector import Polyvector


@dataclass(frozen=True)
class WeightData:
    """Sorted numerical views of a centre's weights.

    weight_seq lists the nonzero weights in decreasing order; exponent_seq is
    its termwise reciprocal (increasing).  kappa has one entry per j from 0 to
    the chart dimension: the sum of the j largest weights (zero-padded).  The
    reduced weight sequence rescales by the gcd so that the nonzero entries
    become coprime integers; it keeps the zero entries, e.g. (3, 2, 0).
    """

    weight_seq: Tuple[Fraction, ...]
    exponent_seq: Tuple[Fraction, ...]
    kappa: Tuple[Fraction, ...]
    gcd: Fraction
    reduced_weight_seq: Tuple[int, ...]

    def kappa_at(self, j: int) -> Fraction:
        if j < len(self.kappa):
            return self.kappa[j]
        return self.kappa[-1]


@dataclass(frozen=True)
class Centre:
    """A weighted centre on a chart: one exponent per variable plus a base point."""

    variables: Tuple[str, ...]
    exponents: Tuple[ExtRational, ...]
    base_point: Optional[Point] = None

    def __post_init__(self):
        if len(self.exponents) != len(self.variables):
            raise ValueError("one exponent per chart variable is required")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names in {self.variables}")
        for a in self.exponents:
            if not is_infinite(a) and _exact(a) <= 0:
                raise ValueError(f"exponents must be positive or inf, got {a}")
        if self.base_point is not None:
            if len(self.base_point) != len(self.variables):
                raise ValueError("base point length does not match chart")
            for p in self.base_point:
                _exact(p)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_exponents(cls, variables: Sequence[str],
                       exponents: Sequence[Union[int, Fraction, ExtRational]],
                       base_point: Optional[Sequence[Union[int, Fraction]]] = None
                       ) -> "Centre":
        exps = tuple(a if is_infinite(a) else _exact(a) for a in exponents)
        point = None if base_point is None else tuple(_exact(p) for p in base_point)
        return cls(tuple(variables), exps, point)

    @classmethod
    def unweighted(cls, variables: Sequence[str],
                   support: Optional[Sequence[str]] = None) -> "Centre":
        """Exponent 1 on ``support`` (default all variables), inf elsewhere."""
        variables = tuple(variables)
        chosen = set(variables if support is None else support)
        return cls(variables, tuple(Fraction(1) if v in chosen else INF
                                    for v in variables))

    # -- derived data ---------------------------------------------------------

    def exponent_of(self, name: str) -> ExtRational:
        return self.exponents[self.variables.index(name)]

    def weights_by_variable(self) -> Tuple[Fraction, ...]:
        return self._weights

    @cached_property
    def _weights(self) -> Tuple[Fraction, ...]:
        return tuple(ext_reciprocal(a) for a in self.exponents)  # type: ignore[misc]

    def is_trivial(self) -> bool:
        return all(is_infinite(a) for a in self.exponents)

    def codimension(self) -> int:
        return sum(1 for a in self.exponents if not is_infinite(a))

    def support(self) -> Tuple[str, ...]:
        """The variables with finite exponent (their common zero locus)."""
        return tuple(v for v, a in zip(self.variables, self.exponents)
                     if not is_infinite(a))

    def weight_data(self) -> WeightData:
        return self._weight_data

    @cached_property
    def _weight_data(self) -> WeightData:
        if self.is_trivial():
            raise ValueError("the trivial centre (all exponents infinite) has no weight data")
        weights = sorted((w for w in self.weights_by_variable() if w != 0), reverse=True)
        gcd = fraction_gcd(weights)
        reduced_nonzero = [int(w / gcd) for w in weights]
        n = len(self.variables)
        padded = weights + [Fraction(0)] * (n - len(weights))
        kappa = [Fraction(0)]
        for w in padded:
            kappa.append(kappa[-1] + w)
        return WeightData(
            weight_seq=tuple(weights),
            exponent_seq=tuple(Fraction(1) / w for w in weights),
            kappa=tuple(kappa),
            gcd=gcd,
            reduced_weight_seq=tuple(reduced_nonzero + [0] * (n - len(weights))),
        )

    def reduced_weights_by_variable(self) -> Tuple[int, ...]:
        """Integer weights w_i / gcd(w), aligned with the chart variables."""
        self.weight_data()  # the trivial centre has none
        return self._integer_weights[0]

    @cached_property
    def _integer_weights(self) -> Tuple[Tuple[int, ...], Fraction]:
        """The reduced weights and their gcd g, so that an order is g times
        an integer; zeros and g = 1 on the trivial centre, where every order
        is zero."""
        if self.is_trivial():
            return (0,) * len(self.variables), Fraction(1)
        gcd = self.weight_data().gcd
        return tuple(int(w / gcd) for w in self.weights_by_variable()), gcd

    def reduced(self) -> "Centre":
        """The underlying reduced centre: nonzero weights rescaled to coprime integers.

        The blowup depends only on this rescaling; an exponent sequence like
        (2, 2) reduces to the unweighted centre (1, 1) on the same support.
        """
        gcd = self.weight_data().gcd
        exponents = tuple(a if is_infinite(a) else a * gcd for a in self.exponents)
        return Centre(self.variables, exponents, self.base_point)

    def b_completion(self, b: Union[int, Fraction]) -> "Centre":
        """Replace every infinite exponent by b, cutting the support to a point.

        Requires b at least the largest finite exponent, so the completed
        exponent assignment is still weakly compatible with the original.
        """
        b = Fraction(b)
        finite = [a for a in self.exponents if not is_infinite(a)]
        if not finite:
            raise ValueError("cannot b-complete the trivial centre")
        if b < max(finite):
            raise ValueError(f"completion exponent {b} is below the largest finite "
                             f"exponent {max(finite)}")
        return Centre(self.variables,
                      tuple(b if is_infinite(a) else a for a in self.exponents),
                      self.base_point)

    def translated_to_origin(self) -> "Centre":
        if self.base_point is None:
            return self
        return Centre(self.variables, self.exponents, None)

    # -- the valuation ---------------------------------------------------------

    def _recentre_poly(self, f: Poly) -> Poly:
        if self.base_point is None or all(p == 0 for p in self.base_point):
            return f
        return f.translate(self.base_point)

    def ord_poly(self, f: Poly) -> ExtRational:
        return self.ord_poly_with_witness(f)[0]

    def _integer_order(self, f: Poly) -> Tuple[int, Tuple[int, ...]]:
        """min of sum r_i e_i over the terms of a nonzero f at the origin, r the
        reduced weights, with the graded-lex smallest exponent reaching it."""
        weights = self._integer_weights[0]
        best = witness = None
        for exponent in f.nums:
            value = sum(map(mul, weights, exponent))
            if best is None or value < best or (value == best
                                                and _grlex_key(exponent) < _grlex_key(witness)):
                best, witness = value, exponent
        return best, witness

    def ord_poly_with_witness(self, f: Poly) -> Tuple[ExtRational, Optional[Tuple[int, ...]]]:
        """Minimum weighted order over the support, with a minimising monomial.

        The witness is the graded-lex smallest monomial achieving the minimum
        (deterministic tie-break).  Returns (inf, None) for the zero
        polynomial.
        """
        if f.variables != self.variables:
            raise ValueError(f"chart mismatch: {f.variables} vs {self.variables}")
        f = self._recentre_poly(f)
        if f.is_zero():
            return INF, None
        best, witness = self._integer_order(f)
        return self._integer_weights[1] * best, witness

    def ord_polyvector(self, xi: Polyvector) -> ExtRational:
        """min over terms of ord(coefficient) - sum of the weights in the index tuple.

        Always at least -kappa_j for a degree-j polyvector; this bound is
        asserted.
        """
        if xi.variables != self.variables:
            raise ValueError(f"chart mismatch: {xi.variables} vs {self.variables}")
        if xi.is_zero():
            return INF
        weights, gcd = self._integer_weights
        best: Optional[int] = None
        for indices, coeff in xi.terms.items():
            coeff = self._recentre_poly(coeff)
            if coeff.is_zero():
                continue
            value = self._integer_order(coeff)[0] - sum(weights[i] for i in indices)
            if best is None or value < best:
                best = value
        if best is None:
            return INF
        order = gcd * best
        if not self.is_trivial():
            bound = self.weight_data().kappa_at(xi.degree)
            assert order >= -bound, f"order {order} below the degree bound {-bound}"
        return order

    def ord(self, value: Union[Poly, Polyvector]) -> ExtRational:
        if isinstance(value, Poly):
            return self.ord_poly(value)
        return self.ord_polyvector(value)

    # -- leading terms -----------------------------------------------------------

    def leading_term_poly(self, f: Poly) -> Poly:
        """The sub-sum of monomials of minimal weighted order.

        The result is read on the weighted normal bundle chart, which shares
        the variable names of the source chart (dotted coordinates are a
        display convention only).
        """
        f = self._recentre_poly(f)
        if f.is_zero():
            raise ValueError("the zero polynomial has no leading term")
        weights = self._integer_weights[0]
        minimum = self._integer_order(f)[0]
        return Poly._from_numerators(
            self.variables,
            {e: n for e, n in f.nums.items() if sum(map(mul, weights, e)) == minimum},
            f.den, f.cap)

    def leading_term_polyvector(self, xi: Polyvector) -> Polyvector:
        if xi.is_zero():
            raise ValueError("the zero polyvector has no leading term")
        xi = xi if self.base_point is None else xi.translate(self.base_point)
        weights, gcd = self._integer_weights
        minimum = self.translated_to_origin().ord_polyvector(xi) / gcd
        out: Dict[Tuple[int, ...], Poly] = {}
        for indices, coeff in xi.terms.items():
            target = minimum + sum(weights[i] for i in indices)
            kept = {e: n for e, n in coeff.nums.items()
                    if sum(map(mul, weights, e)) == target}
            if kept:
                out[indices] = Poly._from_numerators(self.variables, kept, coeff.den,
                                                     coeff.cap)
        return Polyvector._from_canonical(xi.degree, self.variables, out)

    def leading_term(self, value: Union[Poly, Polyvector]) -> Union[Poly, Polyvector]:
        if isinstance(value, Poly):
            return self.leading_term_poly(value)
        return self.leading_term_polyvector(value)

    def euler_field(self) -> Polyvector:
        """The weighted Euler vector field sum_i w_i x_i d/dx_i (order zero)."""
        terms: Dict[Tuple[int, ...], Poly] = {}
        weights = self.weights_by_variable()
        for i, (v, w) in enumerate(zip(self.variables, weights)):
            if w == 0:
                continue
            terms[(i,)] = Poly.var(self.variables, v).scale(w)
        return Polyvector._from_canonical(1, self.variables, terms)

    # -- text form ------------------------------------------------------------

    def __str__(self) -> str:
        body = " ".join(f"{v}:{format_ext(a)}" for v, a in zip(self.variables, self.exponents))
        if self.base_point is not None and any(p != 0 for p in self.base_point):
            body += " @ (" + ",".join(str(p) for p in self.base_point) + ")"
        return body

    def __repr__(self) -> str:
        return f"Centre({self})"


def parse_centre(text: str) -> Centre:
    """Parse the ``x:2 y:3 z:inf [@ (p1,p2,p3)]`` centre syntax."""
    text = text.strip()
    point: Optional[Point] = None
    if "@" in text:
        body, _, suffix = text.partition("@")
        suffix = suffix.strip()
        if not (suffix.startswith("(") and suffix.endswith(")")):
            raise ValueError(f"malformed base point {suffix!r}; expected (p1,p2,...)")
        point = tuple(Fraction(p.strip()) for p in suffix[1:-1].split(","))
        text = body.strip()
    variables: List[str] = []
    exponents: List[ExtRational] = []
    for item in text.split():
        name, sep, value = item.partition(":")
        if not sep or not name or not value:
            raise ValueError(f"malformed centre entry {item!r}; expected name:exponent")
        variables.append(name)
        exponents.append(parse_ext(value))
    if not variables:
        raise ValueError("empty centre specification")
    if point is not None and len(point) != len(variables):
        raise ValueError("base point length does not match the variable count")
    return Centre(tuple(variables), tuple(exponents), point)
