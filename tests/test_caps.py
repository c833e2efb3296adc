"""Every fixed cap raises ``CapError`` with its message.

Each case lowers one cap constant on the module that holds it and runs a
call that passes it; the same call answers at the default value.  The
pool and column caps are each checked in two places, and one monkeypatch
of the ``lp_core`` constant reaches both; ``compute_m`` reaches the pool
check of the T* candidates.  The r_c case reads a value the first call
cached, so it also shows that the cap is checked before the cache.
"""

import re
from fractions import Fraction

import pytest

from conftest import cycle_graph
from santagap import CapError, allocation_graph, lp_core, subsets, two_values
from santagap.graphs import Graph
from santagap.instance import parse_instance
from santagap.topology import drivers, homology

# Two players, each coveting four halves: six minimal configurations each
# at T = 1, 30 edges in H at alpha*T = 1, and subset sums 0, 1/2, ..., 2.
HALVES = parse_instance(
    "players p1 p2\n"
    + "".join(f"resource {r} 1/2\n" for r in "abcd")
    + "covets p1 a b c d\ncovets p2 a b c d\n"
)

# The two-value driver's hypotheses hold here: eps = 1/4, T = 1, c = 4.
SHARED_FAT = parse_instance(
    "players p1 p2\nresource f 1\n"
    + "".join(f"resource t{i} 1/4\n" for i in range(1, 5))
    + "covets p1 f t1 t2 t3 t4\ncovets p2 f t1 t2 t3 t4\n"
)

# Keyed by the cap's name: DEFAULT_<name>_CAP, then the check when a cap
# is checked in more than one place.
CASES = {
    "NODE": (
        subsets, "DEFAULT_NODE_CAP", 1,
        lambda: subsets.first_disjoint_choice(
            [[lp_core.Configuration("p1", ("a",))], [lp_core.Configuration("p2", ("b",))]],
            {"a": 1, "b": 2},
        ),
        "more than 1 search nodes",
    ),
    "POOL-subsets": (
        lp_core, "DEFAULT_POOL_CAP", 3,
        lambda: lp_core.minimal_configurations(HALVES, "p1", Fraction(1)),
        "4 items exceeds cap 3",
    ),
    "POOL-candidates": (
        lp_core, "DEFAULT_POOL_CAP", 3,
        lambda: lp_core.subset_sum_candidates(HALVES),
        "covet list of 'p1' exceeds cap 3",
    ),
    "POOL-m": (
        lp_core, "DEFAULT_POOL_CAP", 3,
        lambda: allocation_graph.compute_m(HALVES, Fraction(1), Fraction(1)),
        "covet list of 'p1' exceeds cap 3",
    ),
    "COLUMN-subsets": (
        lp_core, "DEFAULT_COLUMN_CAP", 5,
        lambda: lp_core.minimal_configurations(HALVES, "p1", Fraction(1)),
        "more than 5 minimal subsets",
    ),
    "COLUMN-model": (
        lp_core, "DEFAULT_COLUMN_CAP", 6,
        lambda: lp_core.build_clp_model(HALVES, Fraction(1)),
        "12 columns exceeds cap 6",
    ),
    "CANDIDATE": (
        lp_core, "DEFAULT_CANDIDATE_CAP", 3,
        lambda: lp_core.subset_sum_candidates(HALVES),
        "more than 3 subset sums",
    ),
    "EDGE": (
        allocation_graph, "DEFAULT_EDGE_CAP", 29,
        lambda: allocation_graph.build_H(HALVES, Fraction(1), Fraction(1)),
        "more than 29 edges",
    ),
    "VERTEX-eta": (
        homology, "DEFAULT_VERTEX_CAP", 4,
        lambda: homology.eta(cycle_graph(5)),
        "5 vertices exceeds cap 4",
    ),
    "VERTEX-eta-at-least": (
        homology, "DEFAULT_VERTEX_CAP", 4,
        lambda: homology.eta_at_least(cycle_graph(5), 2),
        "5 vertices exceeds cap 4",
    ),
    "VERTEX-deletion-walk": (  # the first call leaves the walk memoized
        homology, "DEFAULT_VERTEX_CAP", 4,
        lambda: homology.deletion_walk(cycle_graph(5)),
        "5 vertices exceeds cap 4",
    ),
    "VERTEX-profile": (
        homology, "DEFAULT_VERTEX_CAP", 4,
        lambda: homology.homology_profile(cycle_graph(5)),
        "5 vertices exceeds cap 4",
    ),
    "SIMPLEX": (
        homology, "DEFAULT_SIMPLEX_CAP", 4,
        lambda: homology.homology_profile(cycle_graph(5)),
        "more than 4 simplices in one dimension",
    ),
    "HALL_PART": (
        drivers, "DEFAULT_HALL_PART_CAP", 1,
        lambda: drivers.hall_eta_check(Graph("ab", []), {"P1": ("a",), "P2": ("b",)}),
        "2 parts exceeds cap 1",
    ),
    "RC": (
        two_values, "DEFAULT_RC_CAP", 3,
        lambda: two_values.r_c(4),
        "c = 4 exceeds cap 3",
    ),
    "DRIVER_PLAYER": (
        two_values, "DEFAULT_DRIVER_PLAYER_CAP", 1,
        lambda: two_values.two_value_driver(SHARED_FAT, Fraction(1)),
        "more than 1 players",
    ),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_cap_raises_cap_error(monkeypatch, case):
    module, name, low, call, message = case
    call()
    monkeypatch.setattr(module, name, low)
    with pytest.raises(CapError, match=f"^{re.escape(message)}$"):
        call()

