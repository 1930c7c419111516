#!/usr/bin/env python3
"""Fit integer NL-k-flow counting polynomials for every catalog digraph
and report how often the interpolant has non-integer (but still
integer-valued, Ehrhart-style) coefficients.

Usage:
    python3 scripts/fit_flow_polynomials.py [--max-n N] [--max-m M]
"""

import argparse
import time

from nlflow import IntPolynomial, fit_integer_flow_polynomial
from nlflow.catalog import digraph_catalog
from nlflow.digraphs import incidence_matrix
from nlflow.oracles import kernel_nullity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-m", type=int, default=6)
    args = parser.parse_args()

    cat = digraph_catalog(args.max_n, args.max_m)
    start = time.monotonic()
    rational = 0
    for i, d in enumerate(cat):
        bound = kernel_nullity(incidence_matrix(d), d.m)
        poly = fit_integer_flow_polynomial(d, list(range(2, bound + 5)))
        if not isinstance(poly, IntPolynomial):
            rational += 1
        if (i + 1) % 500 == 0:
            print(f"{i + 1}/{len(cat)} fitted ({time.monotonic() - start:.0f} s)")
    print(
        f"fitted {len(cat)} digraphs in {time.monotonic() - start:.1f} s; "
        f"{rational} interpolants have non-integer coefficients"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
