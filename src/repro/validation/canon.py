"""Canonicalization of scalar DSL terms over the theory of real
arithmetic.

The paper validates translations with Rosette/SMT "in the theory of
real arithmetic, rather than with precise floating point semantics"
(Section 3.4).  We discharge the same obligations with a decision
procedure specialized to this fragment: every scalar expression built
from +, -, *, /, neg over *atoms* is a **multivariate rational
function**; two such expressions are equal over the reals iff the
cross-multiplied polynomials agree.

Atoms are the irreducible leaves: ``Get`` accesses, scalar symbols, and
applications of the interpreted-but-non-rational operators ``sqrt`` /
``sgn`` and uninterpreted ``Call`` functions, each keyed by the
canonical form of its argument(s) -- so ``sqrt(a+b)`` and ``sqrt(b+a)``
are the same atom, while nothing is assumed about sqrt beyond
congruence (exactly the paper's treatment of user-defined functions as
uninterpreted).

Polynomials carry exact coefficients (integers, and
:class:`fractions.Fraction` only where a value is not integral), so
there is no numeric error in the procedure itself.  Expression swell is
real (the paper's QR 4x4 spec is hundreds of MB); :data:`CanonLimits`
bounds the work and :class:`CanonOverflow` signals the validator to
fall back to randomized differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from ..dsl.ast import Term

__all__ = [
    "Atom",
    "Poly",
    "Rational",
    "CanonOverflow",
    "CanonLimits",
    "canonicalize",
    "equivalent",
]


class CanonOverflow(RuntimeError):
    """The polynomial form exceeded the configured size limit."""


@dataclass(frozen=True)
class CanonLimits:
    """Resource bounds for canonicalization."""

    #: Maximum number of monomials a single polynomial may hold.
    max_terms: int = 20_000
    #: Total monomial-operation budget for one canonicalization or
    #: equivalence query; deep rational nests (QR-style kernels)
    #: explode multiplicatively and must bail out to randomized
    #: validation *before* burning minutes, not after.
    max_work: int = 400_000
    #: Maximum size (monomial count, numerator + denominator) of a
    #: rational form used as a sqrt/sgn/call atom key.  Beyond this the
    #: keys themselves dominate runtime.
    max_atom_key: int = 120


class _Work:
    """Mutable work counter shared across one canonicalization."""

    __slots__ = ("remaining",)

    def __init__(self, limits: "CanonLimits") -> None:
        self.remaining = limits.max_work

    def charge(self, amount: int) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise CanonOverflow(
                "canonicalization work budget exhausted; "
                "fall back to randomized validation"
            )


#: An atom is a hashable key: ("get", array, index), ("sym", name),
#: ("sqrt", arg_key), ("sgn", arg_key) or ("call", name, arg_keys).
Atom = Tuple

#: A monomial maps each atom to its (positive integer) power; stored as
#: a sorted tuple of (atom, power) pairs so it hashes.
Monomial = Tuple[Tuple[Atom, int], ...]

#: An exact coefficient: an ``int`` whenever the value is integral, a
#: ``Fraction`` otherwise (only non-integral float literals and the
#: normalization in :meth:`Rational.key` introduce one).  Equal values
#: compare and hash equal across the two types, so keys built from
#: either agree.
Coeff = Union[int, Fraction]

_EMPTY_MONOMIAL: Monomial = ()


def _exact(value: Union[int, float, Fraction]) -> Coeff:
    """``value`` as an ``int`` when it is integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Poly:
    """A multivariate polynomial with exact coefficients (see
    :data:`Coeff`; zero coefficients are never stored).

    A ``Poly`` is never mutated after construction: multiplying by one
    returns the operand itself, and one shared constant-one ``Poly`` is
    the denominator of every polynomial term.
    """

    __slots__ = ("terms", "width")

    def __init__(self, terms: Dict[Monomial, Coeff] = None) -> None:
        self.terms: Dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[mono] = _exact(coeff)
        #: Total number of atoms over all monomials, which the work
        #: accounting of :meth:`mul` charges per product row.
        self.width = sum(map(len, self.terms))

    # Constructors -----------------------------------------------------

    @staticmethod
    def constant(value: Union[int, float, Fraction]) -> "Poly":
        coeff = _exact(value)
        return _poly({_EMPTY_MONOMIAL: coeff}, 0) if coeff != 0 else Poly()

    @staticmethod
    def atom(a: Atom) -> "Poly":
        return _poly({((a, 1),): 1}, 1)

    # Queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_constant(self) -> Union[Coeff, None]:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and _EMPTY_MONOMIAL in self.terms:
            return self.terms[_EMPTY_MONOMIAL]
        return None

    def key(self) -> Tuple:
        """A canonical hashable form (sorted term list)."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Poly({len(self.terms)} terms)"

    # Arithmetic -------------------------------------------------------

    def add(self, other: "Poly", limits: CanonLimits, work: "_Work" = None) -> "Poly":
        if work is not None:
            work.charge(len(other.terms))
        terms = dict(self.terms)
        width = self.width
        get = terms.get
        for mono, coeff in other.terms.items():
            old = get(mono)
            if old is None:
                terms[mono] = coeff
                width += len(mono)
                continue
            new = old + coeff
            if new:
                terms[mono] = new if type(new) is int else _exact(new)
            else:
                del terms[mono]
                width -= len(mono)
        _check(terms, limits)
        return _poly(terms, width)

    def neg(self) -> "Poly":
        return _poly({m: -c for m, c in self.terms.items()}, self.width)

    def mul(self, other: "Poly", limits: CanonLimits, work: "_Work" = None) -> "Poly":
        # Every product of monomials m1*m2 is charged 1 + len(m1) +
        # len(m2): giant nested atom keys make each product expensive.
        # The charge decides which lanes fall back to randomized
        # validation, so the constant fast path below charges exactly
        # what the pairwise loop would: len(P) + sum of len(m) over P.
        a, b = self.terms, other.terms
        if len(b) == 1 and _EMPTY_MONOMIAL in b:
            poly, factor = self, b[_EMPTY_MONOMIAL]
        elif len(a) == 1 and _EMPTY_MONOMIAL in a:
            poly, factor = other, a[_EMPTY_MONOMIAL]
        else:
            return self._mul_pairwise(other, limits, work)
        if work is not None:
            work.charge(len(poly.terms) + poly.width)
        _check(poly.terms, limits)
        return poly if factor == 1 else poly.scale(factor)

    def _mul_pairwise(
        self, other: "Poly", limits: CanonLimits, work: "_Work"
    ) -> "Poly":
        a, b = self.terms, other.terms
        if work is not None:
            work.charge(
                len(a) * len(b) + len(b) * self.width + len(a) * other.width
            )
        terms: Dict[Monomial, Coeff] = {}
        width = 0
        get = terms.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mul_monomials(m1, m2)
                coeff = c1 * c2
                if type(coeff) is not int:
                    coeff = _exact(coeff)
                old = get(mono)
                if old is None:
                    terms[mono] = coeff
                    width += len(mono)
                    continue
                new = old + coeff
                if new:
                    terms[mono] = new if type(new) is int else _exact(new)
                else:
                    del terms[mono]
                    width -= len(mono)
            _check(terms, limits)
        return _poly(terms, width)

    def scale(self, factor: Coeff) -> "Poly":
        if factor == 0:
            return Poly()
        terms: Dict[Monomial, Coeff] = {}
        for mono, coeff in self.terms.items():
            new = coeff * factor
            terms[mono] = new if type(new) is int else _exact(new)
        return _poly(terms, self.width)


def _poly(terms: Dict[Monomial, Coeff], width: int) -> Poly:
    """Wrap an already-normalized term dict and its width without
    copying them."""
    out = Poly.__new__(Poly)
    out.terms = terms
    out.width = width
    return out


#: The shared constant one: every denominator of a polynomial term.
_ONE = _poly({_EMPTY_MONOMIAL: 1}, 0)


def _check(terms: Dict[Monomial, Coeff], limits: CanonLimits) -> None:
    if len(terms) > limits.max_terms:
        raise CanonOverflow(
            f"polynomial exceeded {limits.max_terms} monomials; "
            "fall back to randomized validation"
        )


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: a merge of the two sorted tuples,
    adding the powers of shared atoms."""
    if not a:
        return b
    if not b:
        return a
    merged = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x[0] == y[0]:
            merged.append((x[0], x[1] + y[1]))
            i += 1
            j += 1
        elif x[0] < y[0]:
            merged.append(x)
            i += 1
        else:
            merged.append(y)
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged)


@dataclass
class Rational:
    """A rational function num/den with a non-zero denominator."""

    num: Poly
    den: Poly

    def key(self) -> Tuple:
        """A *normalized* hashable form: both polynomials scaled so the
        denominator's first (sorted) coefficient is 1.  Not fully
        reduced (no polynomial GCD), but stable enough to key atoms."""
        den_key = self.den.key()
        if not den_key:
            raise ZeroDivisionError("rational function with zero denominator")
        lead = den_key[0][1]
        if lead == 1:
            return (self.num.key(), den_key)
        inverse = 1 / Fraction(lead)
        return (self.num.scale(inverse).key(), self.den.scale(inverse).key())


def canonicalize(term: Term, limits: CanonLimits = None) -> Rational:
    """Canonical rational form of a scalar term.

    Raises :class:`CanonOverflow` when the polynomial form explodes and
    ``ZeroDivisionError`` on division by a polynomial that is
    *identically* zero (division by a possibly-zero denominator is the
    spec author's obligation, as in the paper).
    """
    limits = limits or CanonLimits()
    return _canonicalize_with(term, limits, _Work(limits))


def _canonicalize_with(term: Term, limits: CanonLimits, work: "_Work") -> Rational:
    cache: Dict[Term, Rational] = {}

    def go(t: Term) -> Rational:
        hit = cache.get(t)
        if hit is not None:
            return hit
        result = _canon_node(t, go, limits, work)
        cache[t] = result
        return result

    return go(term)


def _canon_node(t: Term, go, limits: CanonLimits, work: "_Work") -> Rational:
    op = t.op
    if op == "Num":
        return Rational(Poly.constant(t.value), _ONE)  # type: ignore[arg-type]
    if op == "Symbol":
        return Rational(Poly.atom(("sym", str(t.value))), _ONE)
    if op == "Get":
        array, index = t.args
        if array.op != "Symbol" or index.op != "Num":
            raise ValueError(f"non-canonical Get: {t}")
        return Rational(
            Poly.atom(("get", str(array.value), int(index.value))), _ONE  # type: ignore[arg-type]
        )
    if op in ("sqrt", "sgn"):
        arg = go(t.args[0])
        return Rational(Poly.atom((op, _atom_key(arg, limits))), _ONE)
    if op == "Call":
        args = tuple(_atom_key(go(a), limits) for a in t.args)
        return Rational(Poly.atom(("call", str(t.value), args)), _ONE)
    if op == "neg":
        a = go(t.args[0])
        return Rational(a.num.neg(), a.den)
    if op == "+":
        a, b = go(t.args[0]), go(t.args[1])
        num = a.num.mul(b.den, limits, work).add(
            b.num.mul(a.den, limits, work), limits, work
        )
        return Rational(num, a.den.mul(b.den, limits, work))
    if op == "-":
        a, b = go(t.args[0]), go(t.args[1])
        num = a.num.mul(b.den, limits, work).add(
            b.num.mul(a.den, limits, work).neg(), limits, work
        )
        return Rational(num, a.den.mul(b.den, limits, work))
    if op == "*":
        a, b = go(t.args[0]), go(t.args[1])
        return Rational(a.num.mul(b.num, limits, work), a.den.mul(b.den, limits, work))
    if op == "/":
        a, b = go(t.args[0]), go(t.args[1])
        if b.num.is_zero():
            raise ZeroDivisionError(f"division by identically-zero term in {t}")
        return Rational(a.num.mul(b.den, limits, work), a.den.mul(b.num, limits, work))
    raise ValueError(f"operator {op!r} is not a scalar expression")


def _atom_key(rational: Rational, limits: CanonLimits) -> Tuple:
    """Key a non-rational operator's argument; refuses oversized keys
    (their hashing/sorting would dominate the whole procedure)."""
    size = len(rational.num.terms) + len(rational.den.terms)
    if size > limits.max_atom_key:
        raise CanonOverflow(
            f"atom key would have {size} monomials "
            f"(limit {limits.max_atom_key}); fall back to randomized validation"
        )
    return rational.key()


def equivalent(t1: Term, t2: Term, limits: CanonLimits = None) -> bool:
    """Decide equality of two scalar terms over the reals.

    Cross-multiplies the rational forms, so no polynomial division is
    needed: a/b == c/d  iff  a*d == c*b.
    """
    limits = limits or CanonLimits()
    work = _Work(limits)
    r1 = _canonicalize_with(t1, limits, work)
    r2 = _canonicalize_with(t2, limits, work)
    left = r1.num.mul(r2.den, limits, work)
    right = r2.num.mul(r1.den, limits, work)
    return left == right
