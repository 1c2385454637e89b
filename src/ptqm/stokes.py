"""Stokes parameters of a two-component field (Ex, Ey).

Four quadratic forms in two complex numbers, evaluated in Python floats
so that a command line asking for them loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class StokesVector:
    S0: float
    S1: float
    S2: float
    S3: float


def stokes_vector(ex: complex, ey: complex) -> StokesVector:
    """The four quadratic field parameters.

    S3 = i (Ex conj(Ey) - Ey conj(Ex)), so that (1, i)/sqrt(2) gives
    S3 = +1. Scalar inputs always satisfy S0^2 = S1^2 + S2^2 + S3^2.
    Fields whose squares leave the float range raise NumericalError.
    """
    ex, ey = complex(ex), complex(ey)
    if not all(map(math.isfinite, (ex.real, ex.imag, ey.real, ey.imag))):
        raise ValidationError("field components must be finite")
    try:
        # |E|^2 of a finite field bounds every product below, so a product
        # that overflows leaves S0 infinite too
        s0 = abs(ex) ** 2 + abs(ey) ** 2
        s1 = abs(ex) ** 2 - abs(ey) ** 2
        s2 = (ex * ey.conjugate() + ey * ex.conjugate()).real
        s3 = (1j * (ex * ey.conjugate() - ey * ex.conjugate())).real
    except OverflowError as exc:
        # abs and ** raise where a square or modulus leaves the float range
        raise NumericalError("Stokes parameters out of the floating-point range") from exc
    if not all(map(math.isfinite, (s0, s1, s2, s3))):
        # a sum or product of Python floats overflows to inf silently
        raise NumericalError("Stokes parameters out of the floating-point range")
    return StokesVector(S0=s0, S1=s1, S2=s2, S3=s3)
