"""Reduced Z2 homology of independence complexes, and eta.

eta(G) is 1 plus the first dimension with nonvanishing reduced homology
of the independence complex Ind(G) over GF(2), and infinity when every
rank vanishes.  The empty graph has eta 0.

On a cache miss, eta and eta_at_least apply two exact reductions before
any homology is computed:

* Fold: if N(u) is a subset of N(w) for some u != w, then Ind(G) and
  Ind(G - w) are homotopy equivalent (Engstrom, Eur. J. Combin. 2008).
  Dominated vertices are removed until none is left.  An isolated
  vertex makes Ind(G) a cone, so eta is infinity as soon as one appears.
* Components: Ind(G1 + G2) is the join Ind(G1) * Ind(G2), so by the
  Kunneth formula over GF(2) eta adds over connected components, and
  one acyclic component makes the whole complex acyclic.

Each component left goes through the chain-complex code: chain groups
are enumerated dimension by dimension (independent sets of size d+1 as
bitmasks) and boundary ranks are computed by bitwise GF(2) elimination,
stopping as soon as the answer is decided.  homology_profile runs the
same level loop on the whole graph with no shortcut, so it serves as
the oracle for eta.

All of this works on the graph's adjacency masks (``Graph.masks``).  The
eta cache is keyed on those masks alone, not on the vertex labels: eta
is a graph invariant, so two graphs with the same masks over their
sorted vertex order share one entry whatever their labels.

The key packs mask i into bits i*n .. i*n+n-1, so deleting edge {i, j}
flips exactly bits i*n+j and j*n+i of it (``edge_bits``).  A graph
keeps its key once read (``graph_key``), so eta, eta_at_least and
deletion_walk pack it at most once per graph, and G-e gets its key from
G's by those two bit flips: ``classify_edge`` hands it to the G-e it
builds.  deletion_walk walks Meshulam's deletions on the key of G: each
G-e is looked up on the current key with the edge's two bits flipped, a
hit costs an xor and a dict lookup, only a miss copies the masks to
compute eta(G-e), and a deletion flips the two bits for good.  No Graph
is built along the walk.  Which edges the walk deletes depends
on the masks alone, so its result is memoized per start key in a second
dict, bounded and emptied like the eta cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..graphs import Graph, edge_positions, restrict_masks
from ..subsets import CapError

INF = math.inf

# Fixed caps, read at each call: eta, eta_at_least, deletion_walk and
# homology_profile refuse a graph of more than DEFAULT_VERTEX_CAP vertices,
# and the level loop a dimension of more than DEFAULT_SIMPLEX_CAP
# independent sets.  Both raise CapError.  The vertex cap is checked on
# every call; the simplex cap can be met only on a cache miss, since a
# cached eta or walk computes no homology.
DEFAULT_VERTEX_CAP = 24
DEFAULT_SIMPLEX_CAP = 500_000


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Z2 Betti numbers, dimension -1 up to the complex dimension."""

    ranks: dict[int, int]

    def first_nonvanishing(self) -> int | None:
        hits = [d for d, r in sorted(self.ranks.items()) if r > 0]
        return hits[0] if hits else None


def _rank_gf2(columns: list[int]) -> int:
    """Rank of a GF(2) matrix given as column bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                rank += 1
                break
            col ^= pivot
    return rank


def _next_level(
    level: list[tuple[int, int, int]], adj: Sequence[int], n: int
) -> list[tuple[int, int, int]]:
    """Extend independent sets by one vertex each; entries are
    (member mask, last vertex, blocked mask)."""
    cap = DEFAULT_SIMPLEX_CAP
    out = []
    for mask, last, blocked in level:
        for v in range(last + 1, n):
            if not (blocked >> v) & 1:
                out.append((mask | (1 << v), v, blocked | adj[v] | (1 << v)))
                if len(out) > cap:
                    raise CapError(f"more than {cap} simplices in one dimension")
    return out


def _boundary_rank(
    level: list[tuple[int, int, int]], lower_index: dict[int, int]
) -> int:
    columns = []
    for mask, _, _ in level:
        col = 0
        mm = mask
        while mm:
            bit = mm & -mm
            col ^= 1 << lower_index[mask ^ bit]
            mm ^= bit
        columns.append(col)
    return _rank_gf2(columns)


def _betti_numbers(adj: Sequence[int]) -> Iterator[int]:
    """Reduced Z2 Betti numbers of Ind(G) in dimensions 0, 1, ..., one
    level of independent sets at a time; G has at least one vertex."""
    n = len(adj)
    level = [(1 << i, i, adj[i] | (1 << i)) for i in range(n)]
    rank_down = 1  # augmentation: every vertex maps to the empty simplex
    while level:
        nxt = _next_level(level, adj, n)
        lower_index = {mask: j for j, (mask, _, _) in enumerate(level)}
        rank_up = _boundary_rank(nxt, lower_index)
        yield len(level) - rank_down - rank_up
        level = nxt
        rank_down = rank_up


def _first_hole(adj: Sequence[int], stop_dim: int | None) -> tuple[int | None, bool]:
    """(first dimension with nonzero reduced homology, decided).

    Returns (None, True) when the whole complex was exhausted with every
    rank zero, and (None, False) when dimension stop_dim passed with
    every rank zero.  Assumes a graph with at least one vertex.
    """
    if stop_dim is not None and stop_dim < 0:
        return None, False
    for d, betti in enumerate(_betti_numbers(adj)):
        if betti > 0:
            return d, True
        if d == stop_dim:
            return None, False
    return None, True


def _fold_components(adj: Sequence[int]) -> list[list[int]] | None:
    """Fold dominated vertices away, then split into connected components.

    Returns the components' adjacency masks, each re-indexed from 0 by
    ``graphs.restrict_masks`` and smallest first, or None as soon as a
    vertex is isolated.  The bit loops are written out: this runs on
    every eta cache miss.
    """
    if not all(adj):
        return None
    n = len(adj)
    full = alive = (1 << n) - 1
    adj = list(adj)  # masks of alive vertices are kept restricted to alive
    folded = True
    while folded:
        folded = False
        for u in range(n):
            if not (alive >> u) & 1:
                continue
            # common ends as u plus every w != u adjacent to all of N(u),
            # i.e. with N(u) <= N(w); all of those w fold away at once,
            # since removing one leaves N(u) inside the others' neighbourhoods
            me = 1 << u
            common = alive
            rest = adj[u]
            while rest and common != me:
                low = rest & -rest
                common &= adj[low.bit_length() - 1]
                rest ^= low
            if common == me:
                continue
            alive &= ~(common ^ me)
            folded = True
            for v in range(n):
                if (alive >> v) & 1:
                    adj[v] &= alive
                    if not adj[v]:
                        return None
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        if comp == full:  # nothing folded and connected: no re-indexing
            return [adj]
        alive &= ~comp
        comps.append(restrict_masks(adj, comp))
    comps.sort(key=len)
    return comps


def _reduced_eta(adj: Sequence[int], t: int | None) -> int | float | None:
    """eta of the graph with adjacency masks adj, by fold and components.

    With t given, homology stops once eta >= t is certain; the result is
    then None unless the exact value was found on the way.
    """
    comps = _fold_components(adj)
    if comps is None:
        return INF
    total = 0
    for i, comp in enumerate(comps):
        stop = None
        if t is not None:
            # every later component is nonempty and adds at least 1
            stop = t - total - (len(comps) - 1 - i) - 2
        hole, decided = _first_hole(comp, stop)
        if not decided:
            return None
        if hole is None:
            return INF
        total += hole + 1
    return total


# Both keyed by _cache_key, which ignores vertex labels: _ETA_CACHE maps a
# graph to its eta, _WALK_CACHE to its deletion walk.  Plain dict get/set
# are atomic under the GIL, so concurrent calls may share them.  Each is
# emptied whenever it reaches ETA_CACHE_MAX entries.
ETA_CACHE_MAX = 1 << 16
_ETA_CACHE: dict = {}
_WALK_CACHE: dict = {}


def _cache_key(masks: tuple[int, ...]) -> int:
    """One int for (n, masks): the n masks of n bits each, below a
    sentinel bit at n*n, so that no two graphs of any sizes share it."""
    n = len(masks)
    key = 1
    for m in reversed(masks):
        key = (key << n) | m
    return key


def graph_key(g: Graph) -> int:
    """The cache key of ``g``, packed on first read and kept on ``g``."""
    key = g._eta_key
    if key is None:
        key = g._eta_key = _cache_key(g.masks)
    return key


def edge_bits(n: int, i: int, j: int) -> int:
    """The two bits of the key of an n-vertex graph that hold the edge
    between positions i and j; flipping them deletes the edge."""
    return (1 << (i * n + j)) | (1 << (j * n + i))


def clear_eta_cache() -> None:
    """Empty the eta cache and the deletion-walk memo."""
    _ETA_CACHE.clear()
    _WALK_CACHE.clear()


def _remember(cache: dict, key, value) -> None:
    if len(cache) >= ETA_CACHE_MAX:
        cache.clear()
    cache[key] = value


def _check_vertex_cap(g: Graph) -> None:
    if len(g.vertices) > DEFAULT_VERTEX_CAP:
        raise CapError(f"{len(g.vertices)} vertices exceeds cap {DEFAULT_VERTEX_CAP}")


def _cached_eta(key: int, adj: Sequence[int]) -> int | float:
    """eta of the graph with masks ``adj`` and cache key ``key``."""
    value = _ETA_CACHE.get(key)
    if value is None:
        value = _reduced_eta(adj, None)
        _remember(_ETA_CACHE, key, value)
    return value


def eta(g: Graph) -> int | float:
    """1 + first nonvanishing reduced Z2 homology dimension, or infinity."""
    _check_vertex_cap(g)
    return _cached_eta(graph_key(g), g.masks)


def eta_at_least(g: Graph, t: int) -> bool:
    """Decide eta(g) >= t without computing homology past dimension t-2."""
    if t <= 0:
        return True
    _check_vertex_cap(g)
    key = graph_key(g)
    cached = _ETA_CACHE.get(key)
    if cached is not None:
        return cached >= t
    value = _reduced_eta(g.masks, t)
    if value is None:
        return True
    _remember(_ETA_CACHE, key, value)
    return value >= t


def deletion_walk(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Meshulam's deletions from G: (the indices in ``g.edges`` of the
    edges deleted, in order, and the masks of the graph left).

    Each step deletes the first edge e in the order of ``g.edges`` with
    eta(G-e) <= eta(G), then rescans from the first edge; the walk stops
    when no edge qualifies.  The edges are listed by
    ``graphs.edge_positions``, which orders ``g.edges`` too, so the walk
    never reads ``g.edges``.  Each G-e is looked up on the key of G with
    its two bits flipped; a miss is computed on flipped masks and
    remembered, in the same order as eta calls on each G-e would
    remember it.  The result is memoized on the key of G, so a graph
    with the same masks costs one lookup.
    """
    _check_vertex_cap(g)
    masks = g.masks
    key = graph_key(g)
    walk = _WALK_CACHE.get(key)
    if walk is not None:
        return walk
    start = key
    before = _cached_eta(key, masks)
    n = len(masks)
    # (bits of the edge in the key, i, j), in the order of g.edges
    edges = [(edge_bits(n, i, j), i, j) for i, j in edge_positions(masks)]
    adj = list(masks)
    deleted = []
    k = 0
    while k < len(edges):
        bits, i, j = edges[k]
        k += 1
        if not key & bits:  # deleted earlier in the walk
            continue
        probe = key ^ bits
        value = _ETA_CACHE.get(probe)
        if value is None:
            smaller = adj.copy()
            smaller[i] ^= 1 << j
            smaller[j] ^= 1 << i
            value = _reduced_eta(smaller, None)
            _remember(_ETA_CACHE, probe, value)
        if value <= before:
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
            key, before = probe, value
            deleted.append(k - 1)
            k = 0
    walk = (tuple(deleted), tuple(adj))
    _remember(_WALK_CACHE, start, walk)
    return walk


def homology_profile(g: Graph) -> HomologyProfile:
    """Full reduced-homology rank profile of the independence complex.

    Deliberately applies no fold, component or cone shortcut, so it can
    serve as an independent oracle for eta.
    """
    _check_vertex_cap(g)
    if not g.vertices:
        return HomologyProfile({-1: 1})
    ranks: dict[int, int] = {-1: 0}
    ranks.update(enumerate(_betti_numbers(g.masks)))
    return HomologyProfile(ranks)


def eta_from_profile(profile: HomologyProfile) -> int | float:
    hole = profile.first_nonvanishing()
    return INF if hole is None else hole + 1
