"""Qudit dimensions, protocol families and their basis sets.

Two families are supported: the two-basis protocol measuring in the
eigenbases of U_01 and U_10, and the (d+1)-basis protocol additionally
measuring the whole U_1k family. The latter relies on the complete set of
mutually unbiased bases and is therefore restricted to prime d. The key is
always drawn from the U_01 (computational) basis.

This module imports no numpy: the CLI parses its arguments and builds a
`ProtocolSpec` before any array code is loaded.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import NonPrimeDimension, OutOfRange

if TYPE_CHECKING:
    import numpy as np

ENTRY_SLACK = 1e-12  # rounding noise a probability or a Q may carry past its range


def is_prime(n: int) -> bool:
    """Trial-division primality test; dimensions here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def checked_q(q: float, d: int, top: float) -> float:
    """Error rate Q as a Python float in [0, top], the domain at dimension
    d; a Q outside it by at most ENTRY_SLACK is clamped, one farther out
    raises OutOfRange."""
    if not (-ENTRY_SLACK <= q <= top + ENTRY_SLACK):
        raise OutOfRange(f"Q={q!r} outside [0, {top}] for d={d}")
    return min(max(float(q), 0.0), top)


def plain_int(value: object) -> int | None:
    """`value` as a plain int (a numpy integer too), or None if its type is bool or has no `__index__`."""
    return None if isinstance(value, bool) or not hasattr(value, "__index__") else operator.index(value)


@dataclass(frozen=True)
class Dim:
    """Qudit dimension with cached primality, read by `plain_int`."""

    d: int
    prime: bool = field(init=False)

    def __post_init__(self) -> None:
        if (d := plain_int(self.d)) is None or d < 2:
            raise ValueError(f"qudit dimension must be an integer >= 2, got {self.d!r}")
        self.__dict__.update(d=d, prime=is_prime(d))  # frozen: past the dataclass __setattr__


class WeylIndex(NamedTuple):
    """Displacement index (j, k) of a Weyl operator: j shifts, k phases."""

    j: int | np.ndarray
    k: int | np.ndarray


class Family(str, Enum):
    TWO_BASIS = "two-basis"
    DPLUS1 = "dplus1"


class FluxMode(str, Enum):
    """Where the finite-key worst case puts the fluctuation budget xi."""

    EQUAL = "equal"
    SINGLE = "single"
    BRUTE = "brute"


KEY_BASIS = WeylIndex(0, 1)


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol family instantiated at a fixed qudit dimension."""

    family: Family
    dim: Dim

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if not isinstance(self.dim, Dim):
            object.__setattr__(self, "dim", Dim(self.dim))
        if self.family is Family.DPLUS1 and not self.dim.prime:
            raise NonPrimeDimension(
                f"the (d+1)-basis protocol needs a complete MUB set; "
                f"d={self.dim.d} is composite"
            )

    @cached_property  # the finite-key rate reads n_bases on every evaluation
    def basis_indices(self) -> tuple[WeylIndex, ...]:
        if self.family is Family.TWO_BASIS:
            return (KEY_BASIS, WeylIndex(1, 0))
        return (KEY_BASIS,) + tuple(WeylIndex(1, k) for k in range(self.dim.d))

    @property
    def n_bases(self) -> int:
        return len(self.basis_indices)


def protocol_bases(spec: ProtocolSpec) -> list[np.ndarray]:
    """Sender-side measurement bases as `basis_for` arrays, key basis first."""
    from .qudit_algebra import basis_for

    return [basis_for(spec.dim, idx) for idx in spec.basis_indices]
