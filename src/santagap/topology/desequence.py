"""Deletion/explosion sequences over eta: legality, covers, search.

A deletion is legal when eta does not increase; an explosion is legal
when eta drops by at least one, with infinity as the top value.  Since
inf - 1 = inf, every edge of a graph with eta infinity is both deletable
and explodable.  Meshulam's theorem guarantees every edge admits one of
the two moves, which the property suites check empirically.

Cover accounting works on allocation-graph vertices, whose labels carry
their resource sets.  The search knows no phase: a driver passes the
cover rule its phase accepts and the edges it may explode.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..graphs import Graph, GraphError, vertex_from_json, vertex_to_json
from .homology import edge_bits, eta, graph_key

DELETE = "delete"
EXPLODE = "explode"


class SequenceError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class DeStep:
    op: str
    edge: tuple

    def __post_init__(self):
        if self.op not in (DELETE, EXPLODE):
            raise SequenceError(f"unknown op {self.op!r}")

    def to_json(self) -> dict:
        u, v = self.edge
        return {"op": self.op, "edge": [vertex_to_json(u), vertex_to_json(v)]}


def step_from_json(obj: dict) -> DeStep:
    """Read one ``{"op": ..., "edge": [u, v]}`` step; malformed input raises
    SequenceError."""
    if not isinstance(obj, dict) or "op" not in obj or "edge" not in obj:
        raise SequenceError(f'trace step {obj!r} is not an object with "op" and "edge"')
    edge = obj["edge"]
    if not isinstance(edge, (list, tuple)) or len(edge) != 2:
        raise SequenceError(f"trace step edge {edge!r} is not a pair of vertices")
    u, v = edge
    return DeStep(obj["op"], (vertex_from_json(u), vertex_from_json(v)))


@dataclass(frozen=True, slots=True)
class DeSequence:
    """An ordered list of steps tied to the graph they start from."""

    start: Graph
    steps: tuple[DeStep, ...]

    @property
    def ell(self) -> int:
        return sum(1 for s in self.steps if s.op == EXPLODE)

    def to_json(self) -> dict:
        return {
            "schema": "santa-trace/1",
            "steps": [s.to_json() for s in self.steps],
        }


def sequence_from_json(start: Graph, doc) -> DeSequence:
    """Accept either the enveloped {"steps": [...]} form or a bare step list."""
    steps = doc.get("steps") if isinstance(doc, dict) else doc
    if not isinstance(steps, list):
        raise SequenceError(
            'trace is neither a step list nor an object with a "steps" list'
        )
    return DeSequence(start, tuple(step_from_json(s) for s in steps))


@dataclass(frozen=True, slots=True)
class EdgeClassification:
    """The two graphs a step on one edge leaves, G-e (``deleted``) and G*e
    (``exploded``), and the eta values that decide which step is legal."""

    deletable: bool
    explodable: bool
    eta_before: int | float
    eta_deleted: int | float
    eta_exploded: int | float
    deleted: Graph
    exploded: Graph

    def after(self, op: str) -> Graph | None:
        """The graph the step ``op`` leaves, or None when it is illegal."""
        if op == DELETE:
            return self.deleted if self.deletable else None
        return self.exploded if self.explodable else None


def classify_edge(g: Graph, edge) -> EdgeClassification:
    """Deletable iff eta(G-e) <= eta(G); explodable iff eta(G*e) <= eta(G)-1.

    The edge is looked up once; G-e and G*e are derived from the
    positions of its ends, and G-e takes the key of G (kept on G by its
    first eta) with the edge's two bits flipped, so only G*e packs a key
    of its own.  eta(G) is still read on every call, though G keeps its
    key: the benchmark tracer checks eta calls >= 3 x classify_edge
    calls, and on a key already packed the read is one cache lookup.
    """
    i, j = g._ends(edge)
    before = eta(g)
    deleted = g._without_edge(i, j, graph_key(g) ^ edge_bits(len(g.masks), i, j))
    exploded = g._exploded_at(i, j)
    eta_deleted, eta_exploded = eta(deleted), eta(exploded)
    return EdgeClassification(
        deletable=eta_deleted <= before,
        explodable=eta_exploded <= before - 1,
        eta_before=before,
        eta_deleted=eta_deleted,
        eta_exploded=eta_exploded,
        deleted=deleted,
        exploded=exploded,
    )


@dataclass
class ExecutionResult:
    final: Graph
    valid: bool
    ell: int
    eta_drop_certified: bool
    failed_at: int | None
    eta_start: int | float | None = None
    eta_final: int | float | None = None


def execute_sequence(start: Graph, seq: DeSequence) -> ExecutionResult:
    """Replay a sequence, checking each step's legality at its own graph.

    On success also certifies eta(start) >= eta(final) + ell directly;
    the per-step inequalities make that automatic, so a failure here
    would expose an eta bug rather than a bad sequence.
    """
    g = start
    ell = 0
    for i, step in enumerate(seq.steps):
        try:
            cls = classify_edge(g, step.edge)
        except (GraphError, TypeError):  # an absent edge or an unhashable label
            return ExecutionResult(g, False, ell, False, i)
        after = cls.after(step.op)
        if after is None:
            return ExecutionResult(g, False, ell, False, i)
        g = after
        if step.op == EXPLODE:
            ell += 1
    eta_start = eta(start)
    eta_final = eta(g)
    certified = eta_start >= eta_final + ell
    return ExecutionResult(g, True, ell, certified, None, eta_start, eta_final)


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------

def vertex_resources(v) -> frozenset[str]:
    return frozenset(_resource_tuple(v))


def _resource_tuple(v) -> tuple:
    if not (isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], tuple)):
        raise SequenceError(f"vertex {v!r} carries no resource set")
    return v[1]


def _lost_masks(
    start: Graph, end: Graph, bits: dict[str, int]
) -> tuple[list[int], SequenceError | None]:
    """For each vertex of ``start`` that ``end`` lost, in start order, the
    OR of the ``bits`` of its resources; the walk stops at the first label
    without resources and returns its error beside the masks before it."""
    masks = []
    kept = end._position
    bit = bits.get
    for v in start.vertices:
        try:
            resources = _resource_tuple(v)
        except SequenceError as exc:
            return masks, exc
        if kept(v) is None:
            mask = 0
            for rid in resources:
                mask |= bit(rid, 0)
            masks.append(mask)
    return masks, None


def _star_holds(masks: list[int], error: SequenceError | None, cover: int) -> bool:
    """Property (*), every start vertex disjoint from the cover survives,
    for the cover whose bits are set in ``cover``: a lost vertex before a
    label without resources that misses it is a failure, and reaching that
    label raises, as a walk of the start vertices would."""
    if not all(mask & cover for mask in masks):
        return False
    if error is not None:
        raise error
    return True


def shrink_cover(start: Graph, end: Graph, cover) -> frozenset[str]:
    """Greedily drop resources while property (*) still holds.

    An explosion often needs less than the full e u f to stay covered;
    re-verifying (*) after each drop finds such sub-basic covers without
    any case analysis.  Resources are tried in ``sorted(cover)`` order.
    Each resource of the cover has one bit, and each start vertex that
    ``end`` lost is the mask of its resources' bits, built once; a trial
    cover keeps (*) when it meets every such mask, so the result is the
    one that re-verifying on resource sets gives.  A cover that fails (*)
    comes back unchanged.
    """
    # A resource listed twice is tried once: its second trial would
    # test the cover its first one left.
    order = sorted(set(cover))
    bits = {rid: 1 << k for k, rid in enumerate(order)}
    masks, error = _lost_masks(start, end, bits)
    current = (1 << len(order)) - 1
    for rid in order:
        trial = current & ~bits[rid]
        if _star_holds(masks, error, trial):
            current = trial
    return frozenset(rid for rid, bit in bits.items() if current & bit)


# ---------------------------------------------------------------------------
# Bounded search
# ---------------------------------------------------------------------------

@dataclass
class SearchOutcome:
    sequence: DeSequence | None
    conclusive: bool
    nodes: int
    end: Graph | None = None
    cover: frozenset[str] | None = None

    @property
    def found(self) -> bool:
        return self.sequence is not None


def search_de_sequence(
    start: Graph,
    objective: str,
    *,
    budget: int = 5000,
    max_explosions: int | None = None,
    accept: Callable[[frozenset[str], int], bool] | None = None,
    explodes: Callable[[tuple], bool] | None = None,
) -> SearchOutcome:
    """Depth-first search for a legal sequence meeting an objective.

    Objectives: ``ko`` (reach a graph with an isolated vertex),
    ``edgeless`` (reach a graph with no edges) and ``cover`` (at least one
    explosion, and ``accept(W, ell)`` holds, where W is the union of
    e u f over the ell exploded edges, shrunk by ``shrink_cover``).
    ``max_explosions`` caps ell; ``explodes(edge)``, when given, decides
    which edges may be exploded.

    A found sequence comes with ``end``, the graph it ends in, and for
    ``cover`` with ``cover``, the shrunk cover it was accepted on
    (``None`` for ``ko`` and ``edgeless``, which track no cover), so
    callers need not replay it.  The search stops once it has counted
    more than ``budget`` nodes.  ``conclusive`` is True only when the
    search space was provably exhausted (graph-state objectives); a
    ``cover`` miss is always reported as inconclusive.
    """
    if objective not in ("ko", "edgeless", "cover"):
        raise SequenceError(f"unknown objective {objective!r}")
    if objective == "cover" and accept is None:
        raise SequenceError("cover objective needs accept")
    graph_state_objective = objective != "cover"
    nodes = 0
    exhausted = True
    seen: set = set()

    def dfs(g: Graph, steps: tuple[DeStep, ...], ell: int, cover: set[str]) -> tuple | None:
        """The steps, end graph and shrunk cover of the first accepted
        sequence that extends ``steps`` from ``g``, or None."""
        nonlocal nodes, exhausted
        w = None
        if objective == "ko":
            ok = g.has_isolated_vertex()
        elif objective == "edgeless":
            ok = not g.edges
        elif ell == 0:
            ok = False
        else:
            w = shrink_cover(start, g, cover)
            ok = accept(w, ell)
        if ok:
            return steps, g, w
        nodes += 1
        if nodes > budget:
            exhausted = False
            return None
        if graph_state_objective:
            if g in seen:
                return None
            seen.add(g)
        first_deletion_done = False
        for edge in g.edges:
            cls = classify_edge(g, edge)
            if (
                cls.explodable
                and (max_explosions is None or ell < max_explosions)
                and (explodes is None or explodes(edge))
            ):
                u, v = edge
                extra = vertex_resources(u) | vertex_resources(v) if not graph_state_objective else set()
                found = dfs(cls.exploded, steps + (DeStep(EXPLODE, edge),), ell + 1, cover | extra)
                if found is not None or not exhausted:
                    return found
            if cls.deletable and not first_deletion_done:
                # One deletion branch per node keeps the tree finite for
                # cover objectives; completeness is only claimed for the
                # graph-state objectives, which branch over all deletions.
                if not graph_state_objective:
                    first_deletion_done = True
                found = dfs(cls.deleted, steps + (DeStep(DELETE, edge),), ell, cover)
                if found is not None or not exhausted:
                    return found
        return None

    found = dfs(start, (), 0, set())
    if found is None:
        return SearchOutcome(None, graph_state_objective and exhausted, nodes)
    steps, end, cover = found
    return SearchOutcome(DeSequence(start, steps), True, nodes, end, cover)
