"""Alpha-hyperedges and the partite allocation graph H / its thin part J.

An alpha-hyperedge is a ``Configuration`` at threshold alpha*T, and each
one is a vertex of H as it is, the pair (owner, sorted resources) from
``minimal_configurations``: the same set coveted by two players yields
two distinct vertices.  Edges join intersecting hyperedges of distinct
owners.  A fat vertex is a single resource worth alpha*T; each fat
resource induces a clique component, and J is H with those components
removed.  J, its restrictions J|U (``topology.player_sets``) and the
transversals keep H's vertex objects.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .instance import Allocation, Instance
from .lp_core import Configuration, int_subset_sums, minimal_configurations
from .subsets import CapError, first_disjoint_choice

# Edges of one H, checked as build_H adds them.
DEFAULT_EDGE_CAP = 100_000


class AllocationGraphError(ValueError):
    pass


@dataclass(frozen=True)
class MAlpha:
    """m(alpha): the largest coveted subset value strictly below alpha*T."""

    m: Fraction


@dataclass
class AllocationGraph:
    alpha: Fraction
    target: Fraction
    parts: dict[str, tuple[Configuration, ...]]
    graph: Graph

    def vertex_count(self) -> int:
        return len(self.graph.vertices)


def alpha_threshold(alpha: Fraction, target: Fraction) -> Fraction:
    """alpha*T, which must be positive."""
    threshold = Fraction(alpha) * Fraction(target)
    if threshold <= 0:
        raise AllocationGraphError("alpha*T must be positive")
    return threshold


def compute_fat(inst: Instance, target: Fraction, alpha: Fraction) -> frozenset[str]:
    """F(alpha): the resources worth alpha*T on their own.  F_U is
    ``lp_core.fat_for_players(inst, U, fat)``."""
    threshold = alpha_threshold(alpha, target)
    return frozenset(r for r, v in inst.resources.items() if v >= threshold)


def compute_m(inst: Instance, target: Fraction, alpha: Fraction) -> MAlpha:
    """m = the largest T* candidate below alpha*T, or 0 if none is.

    The candidates (``lp_core.subset_sum_candidates``) are every player's
    covet-list subset sums, so this is the best coveted subset value below
    alpha*T, under the same pool and candidate caps.  An integer sum falls
    short of alpha*T exactly when it is below ``Instance.int_threshold``.
    """
    threshold = alpha_threshold(alpha, target)
    sums = int_subset_sums(inst)
    below = bisect.bisect_left(sums, inst.int_threshold(threshold))
    return MAlpha(Fraction(sums[below - 1], inst.scale) if below else Fraction(0))


def build_H(inst: Instance, target: Fraction, alpha: Fraction) -> AllocationGraph:
    """The |P|-partite allocation graph on all alpha-hyperedge vertices."""
    threshold = alpha_threshold(alpha, target)
    parts = {p: tuple(minimal_configurations(inst, p, threshold)) for p in inst.players}
    vertices = tuple(sorted(v for vs in parts.values() for v in vs))
    graph = Graph._derived(vertices, tuple(_holder_masks(vertices)))
    return AllocationGraph(Fraction(alpha), Fraction(target), parts, graph)


def build_J(h: AllocationGraph) -> AllocationGraph:
    """The thin part: H minus every fat clique component, that is, the
    vertices of two or more resources.

    Filtering H's sorted vertices keeps their order, and J's masks are
    made as ``build_H`` makes them, so they are those of the subgraph H
    induces.
    """

    def thin(v: Configuration) -> bool:
        return len(v.resources) > 1

    parts = {p: tuple(filter(thin, vs)) for p, vs in h.parts.items()}
    vertices = tuple(filter(thin, h.graph.vertices))
    graph = Graph._derived(vertices, tuple(_holder_masks(vertices)))
    return AllocationGraph(h.alpha, h.target, parts, graph)


def _holder_masks(vertices: tuple[Configuration, ...]) -> list[int]:
    """The adjacency masks of the allocation graph on sorted ``vertices``:
    two vertices of distinct owners are adjacent exactly when their
    resources meet.

    A vertex's mask is the OR of the masks of the vertices that hold each
    of its resources, less its own part.  The degrees are summed as the
    masks are made, so more than ``DEFAULT_EDGE_CAP`` edges raise
    ``CapError`` before any edge list is built.
    """
    # holders[r]: the vertices that hold r; own[p]: the vertices of p's part
    holders: dict[str, int] = {}
    own: dict[str, int] = {}
    for i, (owner, resources) in enumerate(vertices):
        bit = 1 << i
        own[owner] = own.get(owner, 0) | bit
        for rid in resources:
            holders[rid] = holders.get(rid, 0) | bit
    masks = []
    degrees = 0
    for owner, resources in vertices:
        mask = 0
        for rid in resources:
            mask |= holders[rid]
        mask &= ~own[owner]
        masks.append(mask)
        degrees += mask.bit_count()
        if degrees > 2 * DEFAULT_EDGE_CAP:  # twice the edges, once all are in
            raise CapError(f"more than {DEFAULT_EDGE_CAP} edges")
    return masks


def find_independent_transversal(g: AllocationGraph) -> dict[str, Configuration] | None:
    """One independent vertex per part, or None when provably impossible.

    Two vertices of distinct parts are adjacent exactly when their
    resources meet, so this is ``subsets.first_disjoint_choice`` over the
    parts in increasing size order (ties by player), and the transversal
    is the vertices it chooses; exhausting the search is a proof of
    non-existence.  The graph keeps no instance, so each resource gets
    its bit in the order the parts first show it.  A search past
    ``subsets.DEFAULT_NODE_CAP`` nodes raises ``subsets.CapError``.
    """
    order = sorted(g.parts, key=lambda p: (len(g.parts[p]), p))
    parts = [g.parts[p] for p in order]
    bits: dict[str, int] = {}
    for part in parts:
        for cfg in part:
            for rid in cfg.resources:
                bits.setdefault(rid, 1 << len(bits))
    choice, _ = first_disjoint_choice(parts, bits)
    if choice is None:
        return None
    return dict(zip(order, choice))


def transversal_to_allocation(
    inst: Instance, transversal: dict[str, Configuration]
) -> Allocation:
    """Turn a transversal into a validated Allocation covering its players."""
    assignment = {p: () for p in inst.players}
    for p, he in transversal.items():
        assignment[p] = he.resources
    alloc = Allocation(assignment)
    alloc.validate(inst)
    return alloc
