"""The displacement-map oracle's settable defaults, kept apart from the
oracle so that reading them needs no numpy: the command line imports them at
start-up and the oracle itself only when it sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_GRID = 400  # grid points per fiber component


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1.0e-10
    atol: float = 1.0e-12

    def __post_init__(self):
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError(
                f"tolerances must be positive and finite, got rtol={self.rtol!r}, "
                f"atol={self.atol!r}"
            )
