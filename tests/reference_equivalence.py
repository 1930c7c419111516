"""The paper's equivalence theorem as a check: NL-flow existence agrees
across Z_k, every abelian group of order k, and integer flows bounded by
k - 1, read off the counters of nlflow.oracles.  The acceptance suite
(criterion 5) runs it over the full catalog.  Test-side only.
"""

from nlflow.digraphs import Digraph
from nlflow.errors import DEFAULT_BUDGET
from nlflow.groups import abelian_groups_of_order, cyclic
from nlflow.oracles import count_nl_group_flows, count_nl_integer_kflows


def check_equivalence_theorem(d: Digraph, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Existence must agree across Z_k, every abelian group of order k,
    and integer flows with entries bounded by k-1.  Z_k is one of those
    groups whenever k is a prime power, and is counted once.
    """
    groups = dict.fromkeys([cyclic(k), *abelian_groups_of_order(k)])
    flags = [count_nl_group_flows(d, g, budget) > 0 for g in groups]
    flags.append(count_nl_integer_kflows(d, k, budget) > 0)
    return len(set(flags)) == 1
