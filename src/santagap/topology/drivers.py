"""Hall-type eta checking and the four-phase DE-sequence driver.

The driver dismantles the thin allocation graph restricted to a player
set, phase by phase: cheap sequences (and plain deletions) first, then
7/3- and 5/2-sequences, then arbitrary legal steps, keeping the running
cover ledger that the dual certificates consume.  Budget exhaustion is
a first-class outcome: the search never claims nonexistence it cannot
prove.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterator

from ..allocation_graph import AllocationGraph, MAlpha
from ..graphs import Graph
from ..instance import Instance
from ..subsets import CapError
from .desequence import (
    DELETE,
    EXPLODE,
    DeSequence,
    DeStep,
    SearchOutcome,
    classify_edge,
    search_de_sequence,
    vertex_resources,
)
from .homology import deletion_walk, eta_at_least

# hall_eta_check tries every nonempty set of parts, 2^parts - 1 of them.
DEFAULT_HALL_PART_CAP = 10


@dataclass(slots=True)
class HallResult:
    holds: bool
    violating_U: tuple | None


def player_sets(graph: Graph, parts: dict, names) -> Iterator[tuple[tuple, Graph]]:
    """(U, J|U) for every nonempty U of ``names``, by size and then in
    ``itertools.combinations`` order.

    Each part is read once, as the mask of the positions in ``graph`` of
    its vertices (labels the graph lacks are skipped), and J|U is the
    subgraph on the union of the masks of U's parts.
    """
    held = {p: graph._positions(parts[p]) for p in names}
    for size in range(1, len(held) + 1):
        for U in itertools.combinations(held, size):
            kept = 0
            for p in U:
                kept |= held[p]
            yield U, graph._restrict(kept)


def hall_eta_check(graph: Graph, parts: dict) -> HallResult:
    """Check eta(J|U) >= |U| for every nonempty part set U, the sets taken
    from ``player_sets`` over the sorted part names."""
    names = sorted(parts)
    if len(names) > DEFAULT_HALL_PART_CAP:
        raise CapError(f"{len(names)} parts exceeds cap {DEFAULT_HALL_PART_CAP}")
    for U, sub in player_sets(graph, parts, names):
        if not eta_at_least(sub, len(U)):
            return HallResult(False, U)
    return HallResult(True, None)


def is_cheap(inst: Instance, cover, ell: int, m: Fraction) -> bool:
    """Cover value at most 2 m ell (deletion-only sequences pass with ell 0)."""
    return inst.value(cover) <= 2 * Fraction(m) * ell


def is_gamma(cover, ell: int, gamma: Fraction) -> bool:
    """Cover cardinality at most gamma * ell."""
    return Fraction(len(cover)) <= Fraction(gamma) * ell


def all_deletions(g: Graph) -> tuple[Graph, list[DeStep]]:
    """Perform deletable-edge deletions until none remains.

    This decides deletability only: the first edge e in edge order with
    eta(G-e) <= eta(G) (``classify_edge(...).deletable``) is deleted and
    the scan restarts on G-e.  ``homology.deletion_walk`` runs that loop
    on the eta cache key of G, memoizes it per start key and returns the
    positions in ``g.edges`` of the edges it deleted, so each step names
    ``g``'s own edge pair.  The end graph is the one Graph built, from
    the walk's masks, and G*e is never built, because nothing here reads
    whether an edge is explodable.
    """
    deleted, masks = deletion_walk(g)
    if not deleted:
        return g, []
    end = Graph._derived(g.vertices, masks, g._index)
    return end, [DeStep(DELETE, g.edges[k]) for k in deleted]


@dataclass(slots=True)
class CoverLedger:
    """Per phase: the explosions counted there and the union of their covers."""

    entries: dict[int, tuple[int, frozenset[str]]] = field(default_factory=dict)

    def add(self, phase: int, ell: int, cover: frozenset[str]) -> None:
        count, covered = self.entries.get(phase, (0, frozenset()))
        self.entries[phase] = (count + ell, covered | cover)

    @property
    def ell(self) -> int:
        return sum(count for count, _ in self.entries.values())

    @property
    def cover(self) -> frozenset[str]:
        return frozenset().union(*(covered for _, covered in self.entries.values()))


class PhaseLedger(CoverLedger):
    """The cover ledger of the four-phase driver, keyed by phase 1..4."""

    __slots__ = ()

    def checks(self, inst: Instance, m: Fraction) -> dict[str, bool]:
        """The four cover inequalities the convex combination relies on."""
        m = Fraction(m)
        empty = (0, frozenset())
        (n1, w1), (n2, w2), (n3, w3), (n4, w4) = (
            self.entries.get(phase, empty) for phase in (1, 2, 3, 4)
        )
        return {
            "value_w1": is_cheap(inst, w1, n1, m),
            "card_w2": is_gamma(w2, n2, Fraction(7, 3)),
            "card_w3": is_gamma(w3, n3, Fraction(5, 2)),
            "value_w2": inst.value(w2) <= Fraction(7, 3) * m * n2,
            "value_w3": inst.value(w3) <= Fraction(5, 2) * m * n3,
            "value_w4": inst.value(w4) <= 3 * m * n4,
        }


@dataclass(slots=True)
class FourPhaseResult:
    outcome: str  # "KO" | "edgeless" | "inconclusive"
    ledger: PhaseLedger
    sequence: DeSequence
    final: Graph
    phase_reached: int = 4
    notes: list[str] = field(default_factory=list)


def four_phase_driver(
    inst: Instance,
    thin: AllocationGraph,
    m: MAlpha,
    *,
    search_budget: int = 2000,
    step_budget: int = 2000,
) -> FourPhaseResult:
    """Run the four dismantling phases on a thin allocation graph.

    ``thin`` is J (or J restricted to a player set) and ``m`` is
    ``compute_m`` at the same alpha*T.  Returns the executed sequence,
    the phase ledger, and the outcome: KO as soon as a KO-sequence fires
    (or a vertex survives), edgeless when the graph is fully dismantled,
    inconclusive on budget exhaustion.

    Phase 1 accepts cheap sequences (``is_cheap`` at m, at most 3
    explosions), phases 2 and 3 7/3- and 5/2-sequences (``is_gamma``, at
    most 3 and 2 explosions).  ``search_budget`` bounds the nodes of each
    DE search; ``step_budget`` counts the rounds of the phase-1 drain and
    the steps of phase 4, not the steps of the DE sequence.
    """
    g = start = thin.graph
    ledger = PhaseLedger()
    steps: list[DeStep] = []
    notes: list[str] = []
    remaining = step_budget

    def finish(outcome: str, phase: int) -> FourPhaseResult:
        return FourPhaseResult(
            outcome, ledger, DeSequence(start, tuple(steps)), g, phase, notes
        )

    def perform(found: SearchOutcome, phase: int | None) -> None:
        """Take a found sequence, its end graph and its shrunk cover; a
        KO-sequence (phase None) certifies eta = infinity and is not charged."""
        nonlocal g
        steps.extend(found.sequence.steps)
        g = found.end
        if phase is not None:
            ledger.add(phase, found.sequence.ell, found.cover)

    def drain_cheap() -> str | None:
        """Deletions, KO-sequences and cheap sequences until none remains;
        the outcome that ends the driver, if any."""
        nonlocal g, remaining
        while True:
            remaining -= 1
            if remaining < 0:
                return "inconclusive"
            if g.has_isolated_vertex():
                return "KO"
            g2, dsteps = all_deletions(g)
            if dsteps:
                steps.extend(dsteps)
                g = g2
                continue
            if not g.edges:
                return None
            ko = search_de_sequence(g, "ko", budget=search_budget)
            if ko.found:
                perform(ko, None)
                return "KO"
            cheap = search_de_sequence(
                g,
                "cover",
                budget=search_budget,
                max_explosions=3,
                accept=partial(is_cheap, inst, m=m.m),
            )
            if cheap.found:
                perform(cheap, 1)
                continue
            return None

    # Phase 1
    status = drain_cheap()
    if status is not None:
        return finish(status, 1)

    # Phases 2 and 3
    for phase, gamma, maxexp in ((2, Fraction(7, 3), 3), (3, Fraction(5, 2), 2)):
        while g.edges:
            found = search_de_sequence(
                g,
                "cover",
                budget=search_budget,
                max_explosions=maxexp,
                accept=partial(is_gamma, gamma=gamma),
            )
            if not found.found:
                break
            perform(found, phase)
            status = drain_cheap()
            if status is not None:
                return finish(status, phase)

    # Phase 4: arbitrary legal steps until no edge remains
    while g.edges:
        remaining -= 1
        if remaining < 0:
            return finish("inconclusive", 4)
        edge = g.edges[0]
        cls = classify_edge(g, edge)
        op = DELETE if cls.deletable else EXPLODE
        after = cls.after(op)
        if after is None:
            notes.append(f"edge {edge!r} neither deletable nor explodable")
            return finish("inconclusive", 4)
        if op == EXPLODE:
            # Phase 4 charges the unshrunk cover e u f of each explosion.
            u, v = edge
            ledger.add(4, 1, vertex_resources(u) | vertex_resources(v))
        steps.append(DeStep(op, edge))
        g = after

    return finish("KO" if g.vertices else "edgeless", 4)
