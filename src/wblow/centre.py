"""Weighted centres as valuations on a coordinate chart.

A centre assigns to each chart variable an exponent a_i in Q_{>0} or
infinity; the derived weight is w_i = 1/a_i with 1/inf = 0.  The monomial
x^J then has weighted order sum_i w_i j_i, and the order of a polynomial is
the minimum over its support.  Orders extend to polyvectors by giving d/dx_i
order -w_i.

Exponents are stored per variable (unsorted) so that variable names stay
stable; the sorted weight/exponent/weight-sum views live in
:class:`WeightData`, which stores only the gcd of the weights and the
reduced weight sequence and derives the others from them.  Base points
other than the origin are handled by eager translation inside the order and
leading-term computations; only rational base points are supported.

A centre is immutable, so its weights, weight data and reduced integer
weights are computed once per instance and memoised; equality and hashing
see only the three fields.  The reduced weights and their gcd are read off
the exponents with integer gcd and lcm, and the weights are gcd times the
reduced weights.  Weighted orders are integer dot products with the reduced
weights, scaled by their gcd at the end.  Orders and leading terms here,
and the lifting criteria and pullbacks of ``blowup``, take exact input only.

Text syntax: ``x:2 y:3 z:inf``, rationals allowed (``y:9/2``), with an
optional base point suffix ``@ (p1,p2,p3)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd as _int_gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ring import (
    INF,
    ExtRational,
    Point,
    Poly,
    _exact,
    _grlex_key,
    format_ext,
    is_infinite,
    parse_ext,
    parse_rational,
)
from .polyvector import Polyvector


def require_exact(value: Union[Poly, Polyvector]) -> None:
    """Refuse a truncated input: a term of high total degree can carry the
    lowest weight (y^4 + x has order 4 at x:1/5 y:1, its cut at 3 order 5)."""
    for f in (value,) if isinstance(value, Poly) else value.terms.values():
        if f.cap is not None:
            raise ValueError(f"a weighted order is not determined modulo total degree {f.cap}")


@dataclass(frozen=True)
class WeightData:
    """Sorted numerical views of a centre's weights.

    Two fields are stored: the gcd g of the nonzero weights, and the reduced
    weight sequence, the weights divided by g in decreasing order, coprime
    integers with the zero entries kept, e.g. (3, 2, 0).  The other views
    are derived from them on each read: weight_seq lists the nonzero weights
    g*r_i in decreasing order; exponent_seq is its termwise reciprocal
    (increasing).  kappa has one entry per j from 0 to the chart dimension:
    the sum of the j largest weights (zero-padded).
    """

    gcd: Fraction
    reduced_weight_seq: Tuple[int, ...]

    @property
    def weight_seq(self) -> Tuple[Fraction, ...]:
        return tuple(self.gcd * r for r in self.reduced_weight_seq if r)

    @property
    def exponent_seq(self) -> Tuple[Fraction, ...]:
        return tuple(1 / w for w in self.weight_seq)

    @property
    def kappa(self) -> Tuple[Fraction, ...]:
        return tuple(self.kappa_at(j) for j in range(len(self.reduced_weight_seq) + 1))

    def kappa_at(self, j: int) -> Fraction:
        return self.gcd * sum(self.reduced_weight_seq[:j])


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
        reduced, gcd = self._integer_weights
        return tuple(gcd * r for r in reduced)

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
        reduced, gcd = self._integer_weights
        return WeightData(gcd=gcd, reduced_weight_seq=tuple(sorted(reduced, reverse=True)))

    def reduced_weights_by_variable(self) -> Tuple[int, ...]:
        """Integer weights w_i / gcd(w), aligned with the chart variables."""
        self.weight_data()  # the trivial centre has none
        return self._integer_weights[0]

    @cached_property
    def _integer_weights(self) -> Tuple[Tuple[int, ...], Fraction]:
        """The reduced weights r_i and their gcd g, so that w_i = g*r_i and an
        order is g times an integer; zeros and g = 1 on the trivial centre,
        where every order is zero.

        For finite exponents p_i/q_i in lowest terms the weights are q_i/p_i,
        so g = gcd(q)/lcm(p) and r_i = q_i*(lcm(p)/p_i)/gcd(q); an infinite
        exponent has weight zero.
        """
        finite = [a for a in self.exponents if not is_infinite(a)]
        if not finite:
            return (0,) * len(self.variables), Fraction(1)
        lcm_p = lcm(*(a.numerator for a in finite))
        gcd_q = _int_gcd(*(a.denominator for a in finite))
        reduced = tuple(0 if is_infinite(a) else a.denominator // gcd_q * (lcm_p // a.numerator)
                        for a in self.exponents)
        return reduced, Fraction(gcd_q, lcm_p)

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
        """Minimum weighted order over the support; inf for the zero polynomial."""
        require_exact(f)
        if f.variables != self.variables:
            raise ValueError(f"chart mismatch: {f.variables} vs {self.variables}")
        f = self._recentre_poly(f)
        return INF if f.is_zero() else self._integer_weights[1] * self._integer_order(f)

    def _integer_order(self, f: Poly) -> int:
        """min of sum r_i e_i over the terms of a nonzero f, r the reduced weights."""
        weights = self._integer_weights[0]
        best = None
        for exponent in f.nums:
            value = sum(map(mul, weights, exponent))
            if best is None or value < best:
                best = value
        return best

    def ord_poly_with_witness(self, f: Poly) -> Tuple[ExtRational, Optional[Tuple[int, ...]]]:
        """Minimum weighted order over the support, with a minimising monomial.

        The witness is the graded-lex smallest monomial achieving the minimum
        (deterministic tie-break).  Returns (inf, None) for the zero
        polynomial.
        """
        order = self.ord_poly(f)
        if is_infinite(order):
            return order, None
        weights, gcd = self._integer_weights
        witness = min((e for e in self._recentre_poly(f).nums
                       if gcd * sum(map(mul, weights, e)) == order), key=_grlex_key)
        return order, witness

    def ord_polyvector(self, xi: Polyvector) -> ExtRational:
        """min over terms of ord(coefficient) - sum of the weights in the index tuple.

        Always at least -kappa_j for a degree-j polyvector; this bound is
        asserted.
        """
        require_exact(xi)
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
            value = self._integer_order(coeff) - sum(weights[i] for i in indices)
            if best is None or value < best:
                best = value
        if best is None:
            return INF
        bound = sum(sorted(weights, reverse=True)[:xi.degree])
        assert best >= -bound, f"order {best} below the degree bound {-bound}, times {gcd}"
        return gcd * best

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
        require_exact(f)
        f = self._recentre_poly(f)
        if f.is_zero():
            raise ValueError("the zero polynomial has no leading term")
        weights = self._integer_weights[0]
        minimum = self._integer_order(f)
        return Poly._from_numerators(
            self.variables,
            {e: n for e, n in f.nums.items() if sum(map(mul, weights, e)) == minimum},
            f.den, None)

    def leading_term_polyvector(self, xi: Polyvector) -> Polyvector:
        require_exact(xi)
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
                out[indices] = Poly._from_numerators(self.variables, kept, coeff.den, None)
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
        point = tuple(parse_rational(p) for p in suffix[1:-1].split(","))
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
