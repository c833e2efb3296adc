"""A small immutable undirected graph over sortable vertex labels.

Allocation-graph vertices are (owner, sorted resource tuple) pairs;
generic test graphs use plain strings or ints.  Vertices and edges are
kept in sorted order so that every traversal, search, and hash is
deterministic.

``Graph(...)`` sorts its input and checks every edge.  The derived graphs
(``delete_edge``, ``explode_edge``, ``induced``) are subgraphs of a graph
that has passed those checks, so they reuse its sorted tuples and
neighbour sets instead: filtering a sorted tuple keeps it sorted, and a
subgraph of a valid graph is valid.  Either way, equal graphs have equal
``key``, hash and ``neighbors``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

Vertex = Any
Edge = tuple[Vertex, Vertex]


class GraphError(ValueError):
    pass


class Graph:
    __slots__ = ("vertices", "edges", "_adj", "_key", "_hash")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Iterable[Vertex]] = ()):
        vs = sorted(set(vertices))
        vset = set(vs)
        adj: dict[Vertex, set[Vertex]] = {v: set() for v in vs}
        eset: set[tuple[Vertex, Vertex]] = set()
        for e in edges:
            u, v = e
            if u not in vset or v not in vset:
                raise GraphError(f"edge {e!r} uses an undeclared vertex")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            a, b = (u, v) if u < v else (v, u)
            eset.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self._assign(
            tuple(vs), tuple(sorted(eset)), {v: frozenset(ns) for v, ns in adj.items()}
        )

    def _assign(self, vertices: tuple, edges: tuple, adj: dict) -> None:
        self.vertices: tuple[Vertex, ...] = vertices
        self.edges: tuple[tuple[Vertex, Vertex], ...] = edges
        self._adj = adj
        self._key = (vertices, edges)
        self._hash = hash(self._key)

    @classmethod
    def _derived(cls, vertices: tuple, edges: tuple, adj: dict) -> "Graph":
        """A subgraph of a validated graph, from its already sorted tuples
        and neighbour sets; nothing is sorted or checked again."""
        g = object.__new__(cls)
        g._assign(vertices, edges, adj)
        return g

    # -- basic queries ------------------------------------------------------

    def neighbors(self, v: Vertex) -> frozenset:
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self._adj.get(u, frozenset())

    def isolated_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if not self._adj[v])

    def has_isolated_vertex(self) -> bool:
        return any(not self._adj[v] for v in self.vertices)

    def normalize_edge(self, e: Iterable[Vertex]) -> tuple[Vertex, Vertex]:
        u, v = e
        a, b = (u, v) if u < v else (v, u)
        if not self.has_edge(a, b):
            raise GraphError(f"edge {e!r} not present")
        return (a, b)

    # -- derived graphs -----------------------------------------------------

    def delete_edge(self, e: Iterable[Vertex]) -> "Graph":
        """Remove the edge but keep both end vertices."""
        a, b = self.normalize_edge(e)
        i = self.edges.index((a, b))
        adj = dict(self._adj)
        adj[a] = adj[a] - {b}
        adj[b] = adj[b] - {a}
        return Graph._derived(self.vertices, self.edges[:i] + self.edges[i + 1 :], adj)

    def explode_edge(self, e: Iterable[Vertex]) -> "Graph":
        """Remove both endpoints and all of their neighbors."""
        a, b = self.normalize_edge(e)
        gone = {a, b} | set(self._adj[a]) | set(self._adj[b])
        keep = [v for v in self.vertices if v not in gone]
        return self.induced(keep)

    def induced(self, keep: Iterable[Vertex]) -> "Graph":
        """The subgraph on the vertices of ``keep`` that this graph has."""
        kset = set(keep)
        vertices = tuple(v for v in self.vertices if v in kset)
        return Graph._derived(
            vertices,
            tuple((u, v) for (u, v) in self.edges if u in kset and v in kset),
            {v: self._adj[v] & kset for v in vertices},
        )

    # -- identity -----------------------------------------------------------

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


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
        return (obj["owner"], tuple(sorted(obj["resources"])))
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

    edges = []
    for e in doc.get("edges", ()):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError(f"edge {e!r} is not a pair of vertex indices")
        edges.append((at(e[0]), at(e[1])))
    g = Graph(vertices, edges)
    parts = None
    if "parts" in doc:
        if not isinstance(doc["parts"], dict) or not all(
            isinstance(idxs, (list, tuple)) for idxs in doc["parts"].values()
        ):
            raise GraphError("'parts' must map part names to vertex index lists")
        parts = {
            p: tuple(sorted(at(i) for i in idxs)) for p, idxs in doc["parts"].items()
        }
    return g, parts


def load_graph(path: str) -> tuple[Graph, dict[str, tuple] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))
