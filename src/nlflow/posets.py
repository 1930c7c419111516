"""Finite posets and the Moebius function, computed from the defining
recursion with memoized rows.
"""

from __future__ import annotations


class FinitePoset:
    """An explicit finite poset: an indexed element list plus an order
    predicate leq(x, y) meaning x <= y.

    Elements must be hashable and distinct.  Moebius values are memoized
    per instance, so repeated queries over the same poset are cheap;
    total cost for a full row is O(|P|^2) comparisons.
    """

    def __init__(self, elements, leq):
        self.elements = list(elements)
        self.leq = leq
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("poset elements must be distinct")
        self._mobius_rows: dict[int, dict[int, int]] = {}

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def _row(self, xi: int) -> dict[int, int]:
        """Moebius values mu(x, z) for all z >= x, keyed by element index."""
        row = self._mobius_rows.get(xi)
        if row is not None:
            return row
        x = self.elements[xi]
        up = [i for i, z in enumerate(self.elements) if self.leq(x, z)]
        # Interval size |[x, z]| is strictly monotone along the order, so
        # sorting by it yields a linear extension of the up-set.
        isize = {}
        for zi in up:
            z = self.elements[zi]
            isize[zi] = sum(
                1 for wi in up if self.leq(self.elements[wi], z)
            )
        up.sort(key=lambda zi: (isize[zi], zi))
        row = {}
        for zi in up:
            z = self.elements[zi]
            if zi == xi:
                row[zi] = 1
                continue
            row[zi] = -sum(
                row[wi]
                for wi in up
                if wi in row and wi != zi and self.leq(self.elements[wi], z)
            )
        self._mobius_rows[xi] = row
        return row

    def mobius(self, x, y) -> int:
        """mu(x, y): 0 if x is not below y, 1 on the diagonal, else
        -sum of mu(x, z) over x <= z < y.
        """
        xi = self._index[x]
        yi = self._index[y]
        return self._row(xi).get(yi, 0)

