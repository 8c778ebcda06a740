"""Protocol families and their basis sets.

Two families are supported: the two-basis protocol measuring in the
eigenbases of U_01 and U_10, and the (d+1)-basis protocol additionally
measuring the whole U_1k family. The latter relies on the complete set of
mutually unbiased bases and is therefore restricted to prime d. The key is
always drawn from the U_01 (computational) basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import NonPrimeDimension
from .qudit_algebra import Dim, WeylIndex, basis_for


class Family(str, Enum):
    TWO_BASIS = "two-basis"
    DPLUS1 = "dplus1"


KEY_BASIS = WeylIndex(0, 1)


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol family instantiated at a fixed qudit dimension."""

    family: Family
    dim: Dim

    def __post_init__(self) -> None:
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
    return [basis_for(spec.dim, idx) for idx in spec.basis_indices]
