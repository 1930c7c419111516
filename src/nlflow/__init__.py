"""Exact Neumann-Lara flow theory for digraphs: NL-flow and NL-coflow
polynomials as crosscut Moebius sums over the unions of dicuts and of
directed cycles, closed forms for complete digraphs, the regular-matroid
generalization, and exhaustive brute-force oracles validating all of it.

FinitePoset (nlflow.posets) is exported for reference use; the polynomial
formulas do not go through it.
"""

from .digraphs import (
    ArcSet,
    Digraph,
    contract,
    delete,
    incidence_matrix,
    is_acyclic,
    is_totally_cyclic,
    rank,
    read_digraph,
    strongly_connected_components,
    topological_order,
    weak_components,
    write_digraph,
)
from .cuts import (
    enumerate_dicuts,
    enumerate_directed_cycles,
    is_dijoin,
    is_feedback_arc_set,
)
from .errors import (
    BudgetExceededError,
    LatticeSizeError,
    NLFlowError,
    NonIntegerPolynomialError,
    WitnessMismatchError,
)
from .groups import AbelianGroup, abelian_groups_of_order, cyclic, parse_group_spec
from .nl import nl_coflow_polynomial, nl_flow_polynomial
from .oracles import (
    check_equivalence_theorem,
    count_acyclic_colorings,
    count_nl_group_flows,
    count_nl_integer_kflows,
    fit_integer_flow_polynomial,
    is_group_flow,
)
from .polynomials import (
    IntPolynomial,
    RationalPolynomial,
    interpolate_exact,
    interpolate_rational,
)
from .posets import FinitePoset, mobius_inversion_check
from .tournaments import (
    complete_acyclic_digraph,
    complete_acyclic_nl_poly,
    complete_digraph_nl_poly,
    complete_digraph_witness,
    compositions,
    constant_term,
    leading_terms,
    linear_term,
    strong_tournament,
)
from .matroids import (
    TUMatrix,
    contract_matroid,
    count_nl_group_flows_matroid,
    count_nl_integer_kflows_matroid,
    farkas_certificate,
    is_totally_cyclic_matroid,
    is_totally_unimodular,
    read_matrix,
    write_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
