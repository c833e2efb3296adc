"""A small immutable undirected graph over sortable vertex labels.

Allocation-graph vertices are (owner, sorted resource tuple) pairs,
``lp_core.Configuration``s or the equal plain tuples read from JSON;
generic test graphs use plain strings or ints.  Vertices are kept in
sorted order so that every traversal, search, and hash is deterministic.

A graph is its sorted ``vertices`` and its adjacency ``masks``: one int
per vertex, in the sorted vertex order, with bit j set when the vertex
is adjacent to vertex j.  ``Graph(...)`` sorts its input, refuses equal
labels and checks every edge.  ``Graph._derived`` takes sorted labels
and masks that its caller built valid (``allocation_graph.build_H`` and
``build_J``, ``topology.all_deletions``) and checks nothing.  The
subgraphs of a checked graph (``delete_edge``, ``explode_edge``,
``induced``) are made by it too: they only clear bits or re-index the
masks (``restrict_masks``), and reuse the parent's label tuples.
Equality and hash are over labels and masks; code that needs only the
structure (the eta cache) reads ``masks`` alone.

A graph also keeps its packed eta cache key once it is read
(``homology.graph_key``); homology owns the key's layout, and a graph
made here starts without one.  ``_without_edge`` and ``_exploded_at``
derive G-e and G*e from the positions of the edge's ends, and
``delete_edge``/``explode_edge`` find those positions and call them, as
``topology.classify_edge`` does after its one lookup.  G-e takes a key
when its caller knows one: ``classify_edge`` hands it G's key with the
edge's two bits flipped, so the G-e it makes never packs its own.

``edges`` is read off the masks on first use and kept: row i, then its
later neighbours j ascending, each edge once as (vertices[i],
vertices[j]).  So code may walk the edges off ``masks`` and use the
count as an index into ``edges`` (``homology.deletion_walk`` does).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Iterable, Iterator, Sequence

Vertex = Any
Edge = tuple[Vertex, Vertex]


class GraphError(ValueError):
    pass


class Graph:
    __slots__ = ("vertices", "masks", "_edges", "_index", "_hash", "_eta_key")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Iterable[Vertex]] = ()):
        listed = tuple(vertices)
        try:
            vs = tuple(sorted(set(listed)))
        except TypeError as exc:  # unhashable labels, or labels of types that do not compare
            raise GraphError(f"vertex labels cannot be sorted: {exc}") from None
        if len(vs) != len(listed):  # equal labels, such as True and 1, would merge
            first = {}
            for j, v in enumerate(listed):
                i = first.setdefault(v, j)
                if i != j:
                    raise GraphError(f"duplicate vertex {v!r}: entries {i} and {j} are equal")
        index = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        for e in edges:
            u, v = e
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                raise GraphError(f"edge {e!r} uses an undeclared vertex")
            if i == j:
                raise GraphError(f"self-loop at {u!r}")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._assign(vs, tuple(masks), index)

    def _assign(
        self, vertices: tuple, masks: tuple, index: dict | None, key: int | None = None
    ) -> None:
        self.vertices: tuple[Vertex, ...] = vertices
        self.masks: tuple[int, ...] = masks
        self._edges = None
        self._index = index
        self._hash = None
        self._eta_key = key

    @classmethod
    def _derived(
        cls, vertices: tuple, masks: tuple, index: dict | None = None, key: int | None = None
    ) -> "Graph":
        """The graph on sorted, distinct ``vertices`` with symmetric,
        loop-free adjacency ``masks``; nothing is sorted or checked again.
        ``index`` is shared with a graph over the same vertices, or None to
        build on demand; ``key`` is the eta cache key of ``masks``, or None
        to pack on first read."""
        g = object.__new__(cls)
        g._assign(vertices, masks, index, key)
        return g

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Each edge once, in mask order, listed on first read."""
        if self._edges is None:
            self._edges = _mask_order_edges(self.vertices, self.masks)
        return self._edges

    def _position(self, v: Vertex) -> int | None:
        if self._index is None:
            self._index = {u: i for i, u in enumerate(self.vertices)}
        return self._index.get(v)

    # -- basic queries ------------------------------------------------------

    def has_isolated_vertex(self) -> bool:
        return 0 in self.masks

    def _ends(self, e: Iterable[Vertex]) -> tuple[int, int]:
        """Positions (i, j), i < j, of the ends of an edge of this graph."""
        u, v = e
        i, j = self._position(u), self._position(v)
        if i is None or j is None or not (self.masks[i] >> j) & 1:
            raise GraphError(f"edge {e!r} not present")
        return (i, j) if i < j else (j, i)

    def normalize_edge(self, e: Iterable[Vertex]) -> tuple[Vertex, Vertex]:
        i, j = self._ends(e)
        return (self.vertices[i], self.vertices[j])

    # -- derived graphs -----------------------------------------------------

    def delete_edge(self, e: Iterable[Vertex]) -> "Graph":
        """Remove the edge but keep both end vertices."""
        return self._without_edge(*self._ends(e))

    def explode_edge(self, e: Iterable[Vertex]) -> "Graph":
        """Remove both endpoints and all of their neighbors."""
        return self._exploded_at(*self._ends(e))

    def _without_edge(self, i: int, j: int, key: int | None = None) -> "Graph":
        """G-e for the edge at positions i and j; ``key`` is its eta cache
        key when the caller knows it."""
        masks = list(self.masks)
        masks[i] ^= 1 << j
        masks[j] ^= 1 << i
        return Graph._derived(self.vertices, tuple(masks), self._index, key)

    def _exploded_at(self, i: int, j: int) -> "Graph":
        """G*e for the edge at positions i and j."""
        gone = self.masks[i] | self.masks[j]  # holds i and j, which are adjacent
        return self._restrict(((1 << len(self.vertices)) - 1) & ~gone)

    def induced(self, keep: Iterable[Vertex]) -> "Graph":
        """The subgraph on the vertices of ``keep`` that this graph has."""
        return self._restrict(self._positions(keep))

    def _positions(self, labels: Iterable[Vertex]) -> int:
        """The mask of the positions of the labels this graph has."""
        mask = 0
        for v in labels:
            i = self._position(v)
            if i is not None:
                mask |= 1 << i
        return mask

    def _restrict(self, kept: int) -> "Graph":
        """The subgraph on the vertex positions set in ``kept``."""
        if kept == (1 << len(self.masks)) - 1:
            return self
        vs = self.vertices
        return Graph._derived(
            tuple(vs[i] for i in _bits(kept)), tuple(restrict_masks(self.masks, kept))
        )

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.masks == other.masks
            and self.vertices == other.vertices
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vertices, self.masks))
        return self._hash

    def __repr__(self):
        edges = sum(m.bit_count() for m in self.masks) // 2
        return f"Graph({len(self.vertices)} vertices, {edges} edges)"


def _mask_order_edges(vertices: tuple, masks) -> tuple[Edge, ...]:
    """Each edge once, in mask order: row i, then its later neighbours j
    ascending, as (vertices[i], vertices[j])."""
    pairs = []
    for i, m in enumerate(masks):
        later = m >> (i + 1)
        while later:
            low = later & -later
            pairs.append((vertices[i], vertices[i + low.bit_length()]))
            later ^= low
    return tuple(pairs)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def restrict_masks(masks: Sequence[int], kept: int) -> list[int]:
    """The masks of the subgraph on the positions set in ``kept``, each
    re-indexed so that the kept positions count from 0 in order."""
    new = {v: i for i, v in enumerate(_bits(kept))}  # old position -> new
    out = []
    for v in new:
        m = masks[v] & kept
        row = 0
        while m:
            low = m & -m
            row |= 1 << new[low.bit_length() - 1]
            m ^= low
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# JSON interchange (vertex descriptor = owner + sorted resource list, or a
# plain scalar for generic graphs; edges are index pairs)
# ---------------------------------------------------------------------------

def vertex_to_json(v: Vertex):
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], tuple):
        return {"owner": v[0], "resources": list(v[1])}
    return v


def vertex_from_json(obj) -> Vertex:
    if isinstance(obj, dict):
        if "owner" not in obj or not isinstance(obj.get("resources"), list):
            raise GraphError(f"bad vertex descriptor {obj!r}")
        try:
            return (obj["owner"], tuple(sorted(obj["resources"])))
        except TypeError:  # resource ids of types that do not compare
            raise GraphError(f"bad vertex descriptor {obj!r}") from None
    if isinstance(obj, list):
        raise GraphError(f"bad vertex descriptor {obj!r}")
    return obj


def graph_to_json(g: Graph, parts: dict[str, tuple] | None = None, **extra) -> dict:
    index = {v: i for i, v in enumerate(g.vertices)}
    doc = {
        "schema": "santa-graph/1",
        "vertices": [vertex_to_json(v) for v in g.vertices],
        "edges": [[index[u], index[v]] for (u, v) in g.edges],
    }
    if parts is not None:
        doc["parts"] = {p: [index[v] for v in vs] for p, vs in parts.items()}
    doc.update(extra)
    return doc


def graph_from_json(doc: dict) -> tuple[Graph, dict[str, tuple] | None]:
    """Read a santa-graph/1 document; malformed input raises GraphError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("vertices"), (list, tuple)):
        raise GraphError("graph document needs a 'vertices' list")
    vertices = [vertex_from_json(v) for v in doc["vertices"]]

    def at(i) -> Vertex:
        # bool is an int subclass, and a negative index would wrap around
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(vertices):
            raise GraphError(
                f"vertex index {i!r} is not an integer in 0..{len(vertices) - 1}"
            )
        return vertices[i]

    pairs = doc.get("edges", [])
    if not isinstance(pairs, (list, tuple)):
        raise GraphError("'edges' must be a list of vertex index pairs")
    edges = []
    seen = set()  # each edge's two indices, in either orientation
    for e in pairs:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError(f"edge {e!r} is not a pair of vertex indices")
        edges.append((at(e[0]), at(e[1])))
        ends = frozenset(e)
        if ends in seen:
            raise GraphError(f"edge {list(e)!r} is listed twice")
        seen.add(ends)
    g = Graph(vertices, edges)
    parts = None
    if "parts" in doc:
        if not isinstance(doc["parts"], dict) or not all(
            isinstance(idxs, (list, tuple)) for idxs in doc["parts"].values()
        ):
            raise GraphError("'parts' must map part names to vertex index lists")
        # A part keeps the document's order: H lists each part in the order
        # that find_independent_transversal searches.
        parts = {p: tuple(at(i) for i in idxs) for p, idxs in doc["parts"].items()}
        for p, idxs in doc["parts"].items():
            if len(set(idxs)) != len(idxs):
                twice = next(i for i, n in Counter(idxs).items() if n > 1)
                raise GraphError(f"part {p!r} lists vertex index {twice} twice")
    return g, parts


def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """``object_pairs_hook`` for ``json.load``: the object as a dict.  A
    key the object repeats raises ``ValueError``, where ``json.load``
    alone would keep its last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"duplicate key {key!r}")
    return doc


def load_json(path: str, error: type[Exception]):
    """The JSON document in a file; text that is not UTF-8 JSON, or that
    repeats a key of an object, raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise error(f"{path}: invalid JSON: {exc}") from None


def load_graph(path: str) -> tuple[Graph, dict[str, tuple] | None]:
    return graph_from_json(load_json(path, GraphError))
