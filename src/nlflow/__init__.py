"""Exact Neumann-Lara flow theory for digraphs: NL-flow and NL-coflow
polynomials as crosscut Moebius sums over the unions of dicuts and of
directed cycles, closed forms for complete digraphs, the regular-matroid
generalization, and exhaustive brute-force oracles validating all of it.
"""

from .digraphs import (
    Digraph,
    contract,
    incidence_matrix,
    is_acyclic,
    is_totally_cyclic,
    rank,
    read_digraph,
    weak_components,
    write_digraph,
)
from .cuts import (
    enumerate_dicuts,
    enumerate_directed_cycles,
    is_dijoin,
)
from .errors import (
    BudgetExceededError,
    LatticeSizeError,
    NLFlowError,
    NonIntegerPolynomialError,
    WitnessMismatchError,
)
from .groups import AbelianGroup, cyclic, parse_group_spec
from .nl import nl_coflow_polynomial, nl_flow_polynomial
from .oracles import (
    count_acyclic_colorings,
    count_nl_group_flows,
    count_nl_integer_kflows,
    fit_integer_flow_polynomial,
)
from .polynomials import (
    IntPolynomial,
    RationalPolynomial,
    interpolate_rational,
)
from .tournaments import (
    complete_acyclic_digraph,
    complete_acyclic_nl_poly,
    complete_digraph_nl_poly,
    complete_digraph_witness,
    strong_tournament,
)
from .matroids import (
    TUMatrix,
    count_nl_group_flows_matroid,
    count_nl_integer_kflows_matroid,
    farkas_certificate,
    is_totally_cyclic_matroid,
    is_totally_unimodular,
    read_matrix,
    write_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
