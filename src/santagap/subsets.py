"""The disjoint configuration search, its node cap, and ``CapError``.

``first_disjoint_choice`` picks one configuration per part, pairwise
disjoint, and returns the configurations it chose: it finds OPT
(``instance.brute_force_opt``) and independent transversals of H
(``allocation_graph.find_independent_transversal``), and tries an
integral solution before the simplex (``lp_core.clp_feasible``).  It
encodes each configuration as a resource mask from a table of one bit
per resource that its caller passes: ``Instance.resource_bits``, built
once with the instance, or for H's parts a table built from the parts
themselves.  No cap on the shape of its input bounds it;
``DEFAULT_NODE_CAP`` bounds the nodes it visits, counted on from those
its caller has already spent.  A caller that only hopes for a quick
answer passes a ``budget`` of nodes, and a search that spends it raises
``BudgetSpent``: that proves nothing, while
a None choice proves that no choice exists.

``CapError`` is the one error of every fixed cap in the package.  Each
cap is a module constant of the module that enforces it, read at each
call, so a test reaches another value by monkeypatching the constant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from .lp_core import Configuration

# Search nodes of first_disjoint_choice, summed over the searches that
# answer one question.
DEFAULT_NODE_CAP = 1_000_000


class CapError(RuntimeError):
    """Raised when a computation would pass one of the fixed caps."""


class BudgetSpent(Exception):
    """A budgeted ``first_disjoint_choice`` gave up: it neither found a
    choice nor proved that none exists."""


def first_disjoint_choice(
    parts: Sequence[Sequence[Configuration]],
    bits: Mapping[str, int],
    nodes: int = 0,
    budget: int | None = None,
) -> tuple[list[Configuration] | None, int]:
    """The first pairwise-disjoint choice of one configuration per part,
    and the running node count: ``nodes``, those the caller has already
    spent, plus this search's.

    The choice lists the chosen configurations themselves, one from each
    part, and is the first that backtracking finds when it branches over
    the parts in order and over each part's configurations in order; None
    when no choice exists.  ``bits`` maps every resource of the parts to
    its own bit (``Instance.resource_bits``), and every configuration's
    mask, the sum of its resources' bits, is built before the first node;
    the search only asks whether masks meet, so which bit a resource has
    never changes the choice or the node count.  A node fails as soon as
    some part still to choose has no configuration disjoint from those
    chosen.  Such a node roots no solution, so this changes the node
    count and never the choice.  Raises ``CapError`` once the running
    count passes ``DEFAULT_NODE_CAP``, and ``BudgetSpent`` once this
    search passes ``budget`` nodes of its own, when one is given.
    """
    bit = bits.__getitem__
    masks = [[sum(map(bit, cfg.resources)) for cfg in part] for part in parts]
    n = len(masks)
    chosen = [0] * n
    give_up = DEFAULT_NODE_CAP
    if budget is not None:
        give_up = min(give_up, nodes + budget)

    def dfs(k: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > give_up:
            if nodes > DEFAULT_NODE_CAP:
                raise CapError(f"more than {DEFAULT_NODE_CAP} search nodes")
            raise BudgetSpent(f"no choice within {budget} search nodes")
        if any(all(mask & used for mask in part) for part in masks[k:]):
            return False
        if k == n:
            return True
        for i, mask in enumerate(masks[k]):
            if not mask & used:
                chosen[k] = i
                if dfs(k + 1, used | mask):
                    return True
        return False

    if not dfs(0, 0):
        return None, nodes
    return [part[i] for part, i in zip(parts, chosen)], nodes
