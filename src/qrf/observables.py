"""Polynomial observables in per-axis position and momentum operators.

An :class:`Observable` is a polynomial in commuting symbols q_label / p_label,
quantized with symmetric (Weyl) operator ordering.  Position factors act by
pointwise multiplication in position representation and momentum factors in
momentum representation; mixed powers on one axis are symmetrized with the
McCoy expansion

    W(q^m p^n) = 2^-m sum_r binom(m, r) Q^r P^n Q^(m-r),

which is Hermitian for real coefficients.  Because Weyl ordering is covariant
under linear canonical substitutions, a frame switch conjugates these
observables by substituting the symbols; that substitution is a test-side
check of the switch and lives in ``tests/oracles.py``.  In the package only
the invariant suite's canonical commutator uses the algebra, through
``commutator_expectation``.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .errors import NonHermitianObservable
from .grids import (
    MOMENTUM,
    POSITION,
    WaveFunction,
    _along_axis,
    change_representation,
    inner_product,
    to_matching,
)

# A monomial is a sorted tuple of ((label, kind), power) with kind in "qp".


def _clean(terms: dict) -> dict:
    return {mono: coeff for mono, coeff in terms.items() if coeff != 0}


def _merge_factors(factors) -> tuple:
    merged: dict = {}
    for key, power in factors:
        merged[key] = merged.get(key, 0) + power
    return tuple(sorted((key, power) for key, power in merged.items() if power > 0))


class Observable:
    """Weyl-quantized polynomial in subsystem position/momentum operators."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)  # the constructors turn power 0 into the constant
            if not all(isinstance(power, Integral) and power > 0 for _, power in mono):
                raise ValueError(f"factor powers must be positive integers, got {mono}")
            if isinstance(coeff, Real):
                coeff = float(coeff)
            else:
                coeff = complex(coeff)
                if coeff.imag == 0:
                    coeff = coeff.real
            if coeff != 0:
                clean[mono] = clean.get(mono, 0) + coeff
        self._terms = _clean(clean)

    # -- constructors -------------------------------------------------------

    @classmethod
    def position(cls, label: str, power: int = 1) -> "Observable":
        return cls({(((str(label), "q"), power),): 1.0}) if power else cls.constant(1.0)

    @classmethod
    def momentum(cls, label: str, power: int = 1) -> "Observable":
        return cls({(((str(label), "p"), power),): 1.0}) if power else cls.constant(1.0)

    @classmethod
    def constant(cls, value) -> "Observable":
        return cls({(): value})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_hermitian(self) -> bool:
        return all(abs(complex(c).imag) <= 1e-12 for c in self._terms.values())

    def __eq__(self, other):
        if not isinstance(other, Observable):
            return NotImplemented
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0) - other._terms.get(k, 0)) <= 1e-12 for k in keys
        )

    def __hash__(self):
        raise TypeError("Observable is not hashable")

    def __repr__(self):
        if not self._terms:
            return "Observable(0)"
        parts = []
        for mono, coeff in sorted(self._terms.items()):
            factors = "*".join(
                f"{kind}_{label}" + (f"^{power}" if power > 1 else "")
                for (label, kind), power in mono
            )
            parts.append(f"{coeff:+g}" + (f"*{factors}" if factors else ""))
        return f"Observable({' '.join(parts)})"

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = _as_observable(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Observable(terms)

    __radd__ = __add__

    def __neg__(self):
        return Observable({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other):
        return self + (-_as_observable(other))

    def __rsub__(self, other):
        return _as_observable(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (Real, complex)):
            return Observable({mono: coeff * other for mono, coeff in self._terms.items()})
        other = _as_observable(other)
        terms: dict = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                mono = _merge_factors(list(mono_a) + list(mono_b))
                terms[mono] = terms.get(mono, 0) + coeff_a * coeff_b
        return Observable(terms)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers are not defined")
        result = Observable.constant(1.0)
        for _ in range(power):
            result = result * self
        return result

    # -- action on states ---------------------------------------------------

    def apply(self, psi: WaveFunction) -> WaveFunction:
        """Return O |psi> with each term applied in Weyl ordering."""
        result = None
        for mono, coeff in self._terms.items():
            term = _apply_monomial(psi, mono)
            arr = coeff * to_matching(term, psi).amplitudes
            result = arr if result is None else result + arr
        if result is None:
            result = np.zeros_like(psi.amplitudes)
        return psi._with(result)

    def expectation(self, psi: WaveFunction) -> float:
        """<psi|O|psi> for a Hermitian observable (imaginary part asserted small)."""
        if not self.is_hermitian():
            raise NonHermitianObservable(f"complex coefficients in {self!r}")
        value = inner_product(psi, self.apply(psi))
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise AssertionError(
                f"expectation value has imaginary part {value.imag:.3e}"
            )
        return value.real


def _as_observable(value) -> Observable:
    if isinstance(value, Observable):
        return value
    if isinstance(value, (Real, complex)):
        return Observable.constant(value)
    raise TypeError(f"cannot interpret {value!r} as an observable")


def _apply_power(psi: WaveFunction, label: str, kind: str, power: int) -> WaveFunction:
    if power == 0:
        return psi
    target = POSITION if kind == "q" else MOMENTUM
    work = change_representation(psi, label, target)
    axis = work.axis(label)
    values = work.subsystems[axis][1].samples(target) ** power
    return work._with(work.amplitudes * _along_axis(values, work.ndim, axis))


def _apply_monomial(psi: WaveFunction, mono) -> WaveFunction:
    """Apply one monomial, Weyl-symmetrizing mixed q/p powers per axis."""
    powers: dict[str, dict[str, int]] = {}
    for (label, kind), power in mono:
        powers.setdefault(label, {})[kind] = power
    result = psi
    for label in sorted(powers):
        m = powers[label].get("q", 0)
        n = powers[label].get("p", 0)
        if m == 0 or n == 0:
            kind = "q" if n == 0 else "p"
            result = _apply_power(result, label, kind, max(m, n))
            continue
        # McCoy symmetrization: 2^-m sum_r C(m, r) Q^r P^n Q^(m-r)
        accumulated = None
        for r in range(m + 1):
            branch = _apply_power(result, label, "q", m - r)
            branch = _apply_power(branch, label, "p", n)
            branch = _apply_power(branch, label, "q", r)
            branch = to_matching(branch, result)
            weight = math.comb(m, r) / 2.0**m
            arr = weight * branch.amplitudes
            accumulated = arr if accumulated is None else accumulated + arr
        result = result._with(accumulated)
    return result


def commutator_expectation(psi: WaveFunction, a: Observable, b: Observable) -> complex:
    """<psi|[A, B]|psi> computed by operator application (not symbol algebra)."""
    ab = a.apply(b.apply(psi))
    ba = b.apply(a.apply(psi))
    return inner_product(psi, psi._with(ab.amplitudes - ba.amplitudes))
