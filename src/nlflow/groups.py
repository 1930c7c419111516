"""Finite abelian groups as products of cyclic factors.  The counters
read only a group's factors, its order and its spec; an element of the
group is a residue tuple, one residue per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod


@dataclass(frozen=True)
class AbelianGroup:
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))
        if any(f < 2 for f in self.factors):
            raise ValueError("cyclic factor orders must be >= 2")

    @property
    def order(self) -> int:
        return prod(self.factors)

    def spec(self) -> str:
        if not self.factors:
            return "z1"
        return "x".join(f"z{f}" for f in self.factors)


def cyclic(k: int) -> AbelianGroup:
    return AbelianGroup(() if k == 1 else (k,))


def parse_group_spec(spec: str) -> AbelianGroup:
    """Grammar: `z4`, `z2xz2`, `z3xz9`; `z1` is the trivial group."""
    parts = spec.strip().lower().split("x")
    factors = []
    for p in parts:
        if not p.startswith("z"):
            raise ValueError(f"bad group spec {spec!r}: expected terms like z4")
        try:
            f = int(p[1:])
        except ValueError as exc:
            raise ValueError(f"bad group spec {spec!r}") from exc
        if f < 1:
            raise ValueError(f"bad group spec {spec!r}: orders must be >= 1")
        if f > 1:
            factors.append(f)
    return AbelianGroup(tuple(factors))
