import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from functools import partial

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_triangles,
    path_graph,
    random_graph,
    random_partite_graph,
)
from oracles import (
    basic_cover,
    delete_edge,
    explode_edge,
    has_edge,
    hypothesis_holds_basic,
    independence_complex,
    induced,
    neighbors,
    set_verify_star,
    thin_configurations,
)
from santagap import topology as tp
from santagap import two_values
from santagap.allocation_graph import (
    MAlpha,
    build_H,
    build_J,
    compute_fat,
    compute_m,
)
from santagap.graphs import Graph, GraphError, graph_from_json, graph_to_json
from santagap.instance import gen_two_value, parse_instance
from santagap.lp_core import (
    build_dual,
    clp_feasible,
    compute_t_star,
    fat_for_players,
    verify_dual,
)
from santagap.subsets import CapError
from santagap.topology import drivers


# -- independence complexes ---------------------------------------------------

def test_complex_edgeless_single_facet():
    comp = independence_complex(Graph(range(4), []))
    assert comp.facets == (frozenset({0, 1, 2, 3}),)


def test_complex_complete_graph_singletons():
    comp = independence_complex(complete_graph(4))
    assert sorted(comp.facets, key=sorted) == [frozenset({i}) for i in range(4)]


def test_complex_c5_is_a_five_cycle():
    comp = independence_complex(cycle_graph(5))
    assert len(comp.facets) == 5
    assert all(len(f) == 2 for f in comp.facets)
    # the five nonadjacent pairs form a cycle themselves
    assert set(comp.facets) == {
        frozenset({i, (i + 2) % 5}) for i in range(5)
    }


def test_facets_are_maximal_independent_sets():
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(rng, 7)
        comp = independence_complex(g)
        facets = set(comp.facets)
        for f in facets:
            assert all(not has_edge(g, u, v) for u in f for v in f if u < v)
            for v in g.vertices:
                if v not in f:
                    assert any(has_edge(g, v, u) for u in f)
        assert {v for f in facets for v in f} == set(g.vertices)


# -- eta ------------------------------------------------------------------------

def test_eta_goldens():
    assert tp.eta(Graph([], [])) == 0
    assert tp.eta(Graph([0], [])) == tp.INF
    assert tp.eta(cycle_graph(5)) == 2
    for n in (2, 3, 4):
        assert tp.eta(complete_graph(n)) == 1
    for k in (1, 2, 3):
        assert tp.eta(disjoint_triangles(k)) == k


def test_eta_matches_full_homology_profile():
    rng = random.Random(14)
    graphs = [cycle_graph(5), path_graph(5), disjoint_triangles(2)]
    graphs += [random_graph(rng, 7) for _ in range(20)]
    for g in graphs:
        profile = tp.homology_profile(g)
        assert tp.eta(g) == tp.eta_from_profile(profile)


def _brute_homology_ranks(g: Graph) -> dict:
    """Oracle: enumerate every independent set by bitmask filtering and
    reduce boundary matrices with a plain row-echelon pass over 0/1 lists.
    Shares nothing with the production enumeration or elimination."""
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    if n == 0:
        return {-1: 1}
    independent = []
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        ok = True
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if has_edge(g, g.vertices[members[a]], g.vertices[members[b]]):
                    ok = False
        if ok:
            independent.append(tuple(members))
    by_dim: dict[int, list[tuple]] = {}
    for simplex in independent:
        by_dim.setdefault(len(simplex) - 1, []).append(simplex)
    top = max(by_dim)

    def rank_rows(matrix: list[list[int]]) -> int:
        matrix = [row[:] for row in matrix]
        rank, col = 0, 0
        width = len(matrix[0]) if matrix else 0
        for col in range(width):
            pivot = next(
                (r for r in range(rank, len(matrix)) if matrix[r][col]), None
            )
            if pivot is None:
                continue
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            for r in range(len(matrix)):
                if r != rank and matrix[r][col]:
                    matrix[r] = [x ^ y for x, y in zip(matrix[r], matrix[rank])]
            rank += 1
        return rank

    def boundary_rank(d: int) -> int:
        if d == 0:
            return 1 if by_dim.get(0) else 0  # augmentation row
        lower = {s: i for i, s in enumerate(by_dim.get(d - 1, []))}
        upper = by_dim.get(d, [])
        if not upper:
            return 0
        matrix = []
        for s in upper:
            row = [0] * len(lower)
            for omit in range(len(s)):
                face = s[:omit] + s[omit + 1 :]
                row[lower[face]] ^= 1
            matrix.append(row)
        return rank_rows(matrix)

    ranks = {-1: 0}
    for d in range(0, top + 1):
        dim_d = len(by_dim.get(d, []))
        ranks[d] = dim_d - boundary_rank(d) - boundary_rank(d + 1)
    return ranks


def test_homology_against_independent_brute_force():
    rng = random.Random(777)
    graphs = [cycle_graph(5), complete_graph(3), disjoint_triangles(2), path_graph(4)]
    graphs += [random_graph(rng, 6) for _ in range(25)]
    for g in graphs:
        expected = _brute_homology_ranks(g)
        got = tp.homology_profile(g).ranks
        # the production profile reports -1..dim; compare the union support
        for d in set(expected) | set(got):
            assert expected.get(d, 0) == got.get(d, 0), (g.edges, d)


def test_eta_disjoint_union_inequality():
    rng = random.Random(15)
    for _ in range(15):
        g1 = random_graph(rng, 4)
        g2 = random_graph(rng, 4)
        shift = len(g1.vertices)
        union = Graph(
            list(range(len(g1.vertices) + len(g2.vertices))),
            list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges],
        )
        assert tp.eta(union) >= tp.eta(g1) + 1  # g2 nonempty


def test_eta_isomorphism_invariant():
    rng = random.Random(16)
    for _ in range(10):
        g = random_graph(rng, 7)
        perm = list(range(len(g.vertices)))
        rng.shuffle(perm)
        relabeled = Graph(
            [perm[v] for v in g.vertices],
            [(perm[u], perm[v]) for u, v in g.edges],
        )
        assert tp.eta(g) == tp.eta(relabeled)


def test_eta_at_least_agrees_with_eta():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, 6)
        value = tp.eta(g)
        for t in range(0, 5):
            assert tp.eta_at_least(g, t) == (value >= t)


def _disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = len(g1.vertices)
    return Graph(
        list(range(shift + len(g2.vertices))),
        list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges],
    )


def _graph_with_shape(rng: random.Random, shape: str) -> Graph:
    """A random graph of at most 12 vertices with the named shape."""
    if shape == "any":
        n = rng.randint(0, 12)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        return Graph(range(n), edges)
    if shape == "disconnected":
        return _disjoint_union(random_graph(rng, 6), random_graph(rng, 6))
    g = random_graph(rng, 10)
    n = len(g.vertices)
    if shape == "isolated":
        return Graph(range(n + rng.randint(1, 2)), g.edges)
    # dominated: a new vertex w whose neighbourhood contains that of some u
    u = rng.randrange(n)
    extra = [v for v in range(n) if v != u and rng.random() < 0.3]
    neighbours = set(neighbors(g, u)) | set(extra)
    return Graph(range(n + 1), list(g.edges) + [(v, n) for v in neighbours])


def test_eta_differential_against_homology_profile():
    """eta and eta_at_least, with fold and component reductions, agree with
    the unreduced homology profile on seeded random graphs."""
    rng = random.Random(2024)
    shapes = ("any", "disconnected", "isolated", "dominated")
    for i in range(2000):
        g = _graph_with_shape(rng, shapes[i % len(shapes)])
        expected = tp.eta_from_profile(tp.homology_profile(g))
        tp.clear_eta_cache()
        assert tp.eta(g) == expected, g.edges
        for t in range(len(g.vertices) + 2):
            tp.clear_eta_cache()
            assert tp.eta_at_least(g, t) == (expected >= t), (g.edges, t)
    tp.clear_eta_cache()


def test_eta_adds_over_components():
    c5 = cycle_graph(5)
    assert tp.eta(_disjoint_union(c5, c5)) == 2 * tp.eta(c5) == 4
    k2 = complete_graph(2)
    assert tp.eta(_disjoint_union(k2, k2)) == 2


def test_vertex_cap_applies_to_unreduced_input():
    # 25 vertices with isolated ones: fold would reduce it to a cone at once
    g = Graph(range(25), [(0, 1)])
    with pytest.raises(CapError):
        tp.eta(g)
    with pytest.raises(CapError):
        tp.eta_at_least(g, 2)


def test_eta_cache_is_bounded(monkeypatch):
    from santagap.topology import homology

    monkeypatch.setattr(homology, "ETA_CACHE_MAX", 8)
    tp.clear_eta_cache()
    rng = random.Random(31)
    graphs = [random_graph(rng, 7) for _ in range(40)]
    for _ in range(2):  # the second round reads values stored after evictions
        for g in graphs:
            assert tp.eta(g) == tp.eta_from_profile(tp.homology_profile(g))
            assert len(homology._ETA_CACHE) <= 8
    tp.clear_eta_cache()


# -- delete / explode -----------------------------------------------------------

def test_delete_keeps_vertices():
    g = path_graph(2)
    d = tp.classify_edge(g, (0, 1)).deleted
    assert len(d.vertices) == 2 and not d.edges


def test_explode_c5_leaves_one_vertex():
    g = cycle_graph(5)
    assert len(tp.classify_edge(g, (0, 1)).exploded.vertices) == 1


def test_explode_k4_leaves_nothing():
    assert len(tp.classify_edge(complete_graph(4), (0, 1)).exploded.vertices) == 0


def test_edge_must_exist():
    g = path_graph(3)
    with pytest.raises(GraphError, match=r"edge \(0, 2\) not present"):
        tp.classify_edge(g, (0, 2))


# -- classify -------------------------------------------------------------------

def test_classify_c5_edges_deletable_only():
    g = cycle_graph(5)
    for e in g.edges:
        cls = tp.classify_edge(g, e)
        assert cls.deletable and not cls.explodable


def test_classify_k2_edge_explodable():
    g = complete_graph(2)
    cls = tp.classify_edge(g, (0, 1))
    assert cls.explodable
    assert cls.eta_before == 1 and cls.eta_exploded == 0
    assert not cls.deletable  # deleting isolates both endpoints


def test_meshulam_every_edge_classifies():
    rng = random.Random(18)
    for _ in range(60):
        g = random_graph(rng, 8)
        for e in g.edges:
            cls = tp.classify_edge(g, e)
            assert cls.deletable or cls.explodable
            assert cls.eta_before >= min(cls.eta_deleted, cls.eta_exploded + 1)


# -- execute --------------------------------------------------------------------

def test_execute_empty_sequence():
    g = cycle_graph(5)
    res = tp.execute_sequence(g, tp.DeSequence(g, ()))
    assert res.valid and res.ell == 0 and res.eta_drop_certified


def test_execute_c5_double_deletion_trace():
    g = cycle_graph(5)
    steps = (
        tp.DeStep(tp.DELETE, (0, 1)),
        tp.DeStep(tp.DELETE, (2, 3)),  # middle edge of the remaining path
    )
    res = tp.execute_sequence(g, tp.DeSequence(g, steps))
    assert res.valid and res.ell == 0
    # final graph is P2 + P3
    comps = sorted(len(c) for c in _components(res.final))
    assert comps == [2, 3]
    assert res.eta_start == 2 and res.eta_final == 2
    assert res.eta_drop_certified


def test_execute_rejects_illegal_explosion():
    g = cycle_graph(5)
    res = tp.execute_sequence(g, tp.DeSequence(g, (tp.DeStep(tp.EXPLODE, (0, 1)),)))
    assert not res.valid and res.failed_at == 0


def test_execute_reports_missing_edge():
    g = path_graph(3)
    res = tp.execute_sequence(g, tp.DeSequence(g, (tp.DeStep(tp.DELETE, (0, 2)),)))
    assert not res.valid and res.failed_at == 0


def test_executed_sequences_drop_eta_by_ell():
    """Random legal executions always satisfy eta(start) >= eta(end) + ell."""
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, 7)
        steps = []
        cur = g
        for _ in range(rng.randint(1, 4)):
            if not cur.edges:
                break
            e = rng.choice(cur.edges)
            cls = tp.classify_edge(cur, e)
            if cls.explodable and rng.random() < 0.5:
                steps.append(tp.DeStep(tp.EXPLODE, e))
                cur = explode_edge(cur, e)
            elif cls.deletable:
                steps.append(tp.DeStep(tp.DELETE, e))
                cur = delete_edge(cur, e)
            elif cls.explodable:
                steps.append(tp.DeStep(tp.EXPLODE, e))
                cur = explode_edge(cur, e)
        res = tp.execute_sequence(g, tp.DeSequence(g, tuple(steps)))
        assert res.valid
        assert res.eta_start >= res.eta_final + res.ell


def _components(g: Graph):
    seen = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(neighbors(g, u))
        seen |= comp
        comps.append(comp)
    return comps


# -- covers ----------------------------------------------------------------------

def _tiny_allocation_graph():
    """K2 over hyperedges {a,b}^p1 and {b,c}^p2."""
    u = ("p1", ("a", "b"))
    v = ("p2", ("b", "c"))
    return Graph([u, v], [(u, v)]), u, v


TINY_INSTANCE = (
    "players p1 p2\nresource a 1/2\nresource b 1/2\nresource c 1/2\n"
    "covets p1 a b\ncovets p2 b c\n"
)


def test_basic_cover_single_explosion():
    g, u, v = _tiny_allocation_graph()
    seq = tp.DeSequence(g, (tp.DeStep(tp.EXPLODE, (u, v)),))
    end, cover = basic_cover(seq)
    assert cover == frozenset({"a", "b", "c"})
    assert set_verify_star(g, end, cover)


def test_deletion_only_cover_is_empty_and_cheap():
    g, u, v = _tiny_allocation_graph()
    seq = tp.DeSequence(g, (tp.DeStep(tp.DELETE, (u, v)),))
    _, cover = basic_cover(seq)
    assert cover == frozenset()
    assert tp.is_cheap(parse_instance(TINY_INSTANCE), cover, 0, Fraction(1))


def test_shrink_cover_finds_shared_resource():
    g, u, v = _tiny_allocation_graph()
    end = explode_edge(g, (u, v))
    shrunk = tp.shrink_cover(g, end, frozenset({"a", "b", "c"}))
    assert shrunk == frozenset({"b"})
    assert set_verify_star(g, end, shrunk)
    assert not set_verify_star(g, end, frozenset({"c"}))


def test_is_gamma_bounds_the_average_cost():
    cover = frozenset({"a", "b", "c", "d", "e", "f", "g"})
    assert tp.is_gamma(cover, 3, Fraction(7, 3))
    assert not tp.is_gamma(cover, 2, Fraction(7, 3))
    assert not tp.is_gamma(cover, 3, Fraction(7, 3) - Fraction(1, 997))


def test_two_values_gamma_shape():
    # j explosions covered by 2j+1 thin resources is a (2j+1)/j sequence
    for j in (2, 3):
        cover = frozenset(f"t{i}" for i in range(2 * j + 1))
        assert tp.is_gamma(cover, j, Fraction(2 * j + 1, j))


def test_basic_cover_always_satisfies_star(shared_halves):
    """Random legal sequences on a thin allocation graph keep every
    cover-disjoint vertex alive."""
    rng = random.Random(53)
    j = build_J(build_H(shared_halves, Fraction(1), Fraction(2, 3)))
    for _ in range(10):
        cur = j.graph
        steps = []
        for _ in range(rng.randint(1, 5)):
            if not cur.edges:
                break
            e = rng.choice(cur.edges)
            cls = tp.classify_edge(cur, e)
            if cls.explodable and rng.random() < 0.6:
                steps.append(tp.DeStep(tp.EXPLODE, e))
                cur = cls.exploded
            elif cls.deletable:
                steps.append(tp.DeStep(tp.DELETE, e))
                cur = cls.deleted
        seq = tp.DeSequence(j.graph, tuple(steps))
        end, cover = basic_cover(seq)
        assert end == cur
        assert set_verify_star(j.graph, end, cover)
        shrunk = tp.shrink_cover(j.graph, end, cover)
        assert shrunk <= cover
        assert set_verify_star(j.graph, end, shrunk)


# -- search ----------------------------------------------------------------------

def test_search_ko_trivial_on_isolated():
    g = Graph([0, 1, 2], [(0, 1)])
    out = tp.search_de_sequence(g, "ko")
    assert out.found and len(out.sequence.steps) == 0


def test_search_edgeless_on_c5_and_replay():
    g = cycle_graph(5)
    out = tp.search_de_sequence(g, "edgeless", budget=20000)
    assert out.found
    res = tp.execute_sequence(g, out.sequence)
    assert res.valid and not res.final.edges


def test_search_ko_conclusive_negative_on_k2():
    # eta(K2) = 1 finite, so no KO-sequence exists; search space is tiny
    out = tp.search_de_sequence(complete_graph(2), "ko", budget=1000)
    assert not out.found and out.conclusive


def test_search_cheap_single_explosion():
    g, u, v = _tiny_allocation_graph()
    inst = parse_instance(TINY_INSTANCE)
    out = tp.search_de_sequence(
        g, "cover", max_explosions=3, accept=partial(tp.is_cheap, inst, bound=Fraction(1))
    )
    assert out.found and out.sequence.ell == 1


def test_search_respects_budget():
    """An exhausted search stops at budget + 1 nodes.  On C5 the edgeless
    search counts 3 nodes before it accepts, so budget 3 finds the
    sequence, and budget 2 stops at the third node with no verdict."""
    out = tp.search_de_sequence(cycle_graph(6), "ko", budget=1)
    assert not out.found and not out.conclusive and out.nodes == 2
    g = cycle_graph(5)
    out = tp.search_de_sequence(g, "edgeless", budget=3)
    assert out.found and out.nodes == 3
    out = tp.search_de_sequence(g, "edgeless", budget=2)
    assert (out.found, out.conclusive, out.nodes) == (False, False, 3)


@pytest.mark.parametrize(
    "objective, kwargs",
    [("cheap", {}), ("gamma", {}), ("based", {}), ("Cover", {}), ("cover", {"max_explosions": 3})],
)
def test_search_refuses_an_unknown_objective_or_a_cover_without_accept(objective, kwargs):
    with pytest.raises(tp.SequenceError):
        tp.search_de_sequence(cycle_graph(5), objective, **kwargs)


# sha256 of the (objective, found, conclusive, nodes, steps) records of
# the test below: a refactor must not move the search order, the node
# counts or the sequences found.  8 of the searches (all ``ko`` misses)
# spend budget 300 and count 301 nodes.
SEARCH_OUTCOMES_DIGEST = "fff0a16b47faef7716378555550dc1e71410c7611d0048dad54e4ac92ab84a9c"


def test_search_returns_the_replayed_end_and_shrunk_cover():
    """On thin graphs of seeded (1, eps) instances, a found sequence's
    ``end`` is the graph its replay ends in; for the cover objectives its
    ``cover`` is the replay's basic cover after ``shrink_cover``, and the
    graph-state objectives return no cover.  Every search's outcome is
    pinned by ``SEARCH_OUTCOMES_DIGEST``."""
    rng = random.Random("search-result-replay")
    found = dict.fromkeys(("ko", "edgeless", "cheap", "gamma", "based"), 0)
    shrunk = 0
    records = []
    for _ in range(40):
        inst = gen_two_value(
            rng.randint(2, 3),
            rng.choice((Fraction(1, 4), Fraction(1, 5))),
            {"num_fat": 1, "num_thin": rng.randint(3, 5), "density": 0.8},
            rng.randrange(2**32),
        )
        target, alpha = Fraction(1), Fraction(1, 2)
        g = build_J(build_H(inst, target, alpha)).graph
        if len(g.vertices) > 12 or not g.edges:
            continue
        p = inst.players[0]
        based = inst.covets[p] - compute_fat(inst, target, alpha)
        m = compute_m(inst, target, alpha).m
        # The cover rules of phase 1, of a 5/2-sequence and of a sequence
        # based in p's pool at average cost 3, labelled as in the digest.
        objectives = {
            "ko": ("ko", {}),
            "edgeless": ("edgeless", {}),
            "cheap": ("cover", {"max_explosions": 3, "accept": partial(tp.is_cheap, inst, bound=2 * m)}),
            "gamma": ("cover", {"max_explosions": 3, "accept": partial(tp.is_gamma, gamma=Fraction(5, 2))}),
            "based": ("cover", {
                "max_explosions": 4,
                "accept": partial(tp.is_gamma, gamma=Fraction(3)),
                "explodes": lambda edge: any(
                    v[0] == p and tp.vertex_resources(v) <= based for v in edge
                ),
            }),
        }
        for objective, (kind, kwargs) in objectives.items():
            out = tp.search_de_sequence(g, kind, budget=300, **kwargs)
            steps = out.sequence.to_json()["steps"] if out.found else None
            records.append([objective, out.found, out.conclusive, out.nodes, steps])
            if not out.found:
                continue
            found[objective] += 1
            end, cover = basic_cover(out.sequence)
            assert out.end == end, (objective, g.edges)
            if objective in ("ko", "edgeless"):
                assert out.cover is None
            else:
                assert out.cover == tp.shrink_cover(g, end, cover), (objective, g.edges)
                shrunk += out.cover != cover
    assert min(found.values()) >= 5 and shrunk >= 20, (found, shrunk)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SEARCH_OUTCOMES_DIGEST, digest


# -- hall check -------------------------------------------------------------------

def test_hall_check_empty_part_fails():
    g = Graph(["a1"], [])
    res = tp.hall_eta_check(g, {"P1": ("a1",), "P2": ()})
    assert not res.holds and res.violating_U == ("P2",)


def test_hall_check_edgeless_holds():
    g = Graph(["a", "b"], [])
    res = tp.hall_eta_check(g, {"P1": ("a",), "P2": ("b",)})
    assert res.holds


def test_hall_check_refuses_more_than_ten_parts():
    g = Graph(range(11), [])
    parts = {f"P{i:02d}": (i,) for i in range(11)}
    with pytest.raises(CapError, match="^11 parts exceeds cap 10$"):
        tp.hall_eta_check(g, parts)
    del parts["P10"]
    assert tp.hall_eta_check(induced(g, range(10)), parts).holds


def test_hall_check_bipartite_encoding():
    # J(B) for B satisfying Hall: parts V_x = {y^x : y in N(x)},
    # edges between equal-y vertices of different parts
    B = {"x1": ["y1", "y2"], "x2": ["y2", "y3"], "x3": ["y1", "y3"]}
    parts = {x: tuple((x, (y,)) for y in ys) for x, ys in B.items()}
    vertices = [v for vs in parts.values() for v in vs]
    edges = [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if u[0] != v[0] and u[1] == v[1]
    ]
    g = Graph(vertices, edges)
    res = tp.hall_eta_check(g, parts)
    assert res.holds
    # disjoint-cliques structure: eta(J(B)|_U) >= |N(U)| >= |U|
    for U, expect in ((("x1",), 2), (("x1", "x2"), 3)):
        keep = {v for x in U for v in parts[x]}
        assert tp.eta(induced(g, keep)) >= len(U)


def test_eta_hall_criterion_implies_transversal():
    """hall_eta_check => an independent transversal exists (mini suite)."""
    rng = random.Random(20)
    checked = 0
    for _ in range(40):
        g, parts = random_partite_graph(rng)
        res = tp.hall_eta_check(g, parts)
        if not res.holds:
            continue
        checked += 1
        assert _brute_force_transversal(g, parts), (g.vertices, g.edges, parts)
    assert checked >= 5


def _brute_force_transversal(g: Graph, parts: dict) -> bool:
    import itertools

    for combo in itertools.product(*(parts[p] for p in sorted(parts))):
        if all(
            not has_edge(g, u, v)
            for u, v in itertools.combinations(combo, 2)
        ):
            return True
    return False


# -- four-phase driver ---------------------------------------------------------

def test_four_phase_on_edgeless_graph():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    j = build_J(build_H(inst, Fraction(1), Fraction(1, 2)))
    assert j.vertex_count() == 0
    res = tp.four_phase_driver(inst, j, compute_m(inst, Fraction(1), Fraction(1, 2)))
    assert res.outcome == "edgeless" and res.ledger.ell == 0


def test_four_phase_fat_only_instance():
    inst = parse_instance("players p1 p2\nresource f 1\ncovets p1 f\ncovets p2 f\n")
    h = build_H(inst, Fraction(1), Fraction(1, 2))
    j = build_J(h)
    res = tp.four_phase_driver(inst, j, compute_m(inst, Fraction(1), Fraction(1, 2)))
    assert res.outcome == "edgeless"
    assert res.ledger.ell == 0


def test_four_phase_accounting_on_shared_halves(shared_halves):
    inst = shared_halves
    t = compute_t_star(inst).t_star
    assert t == 1
    alpha = Fraction(2, 3)
    j = build_J(build_H(inst, t, alpha))
    m = compute_m(inst, t, alpha)
    res = tp.four_phase_driver(inst, j, m, search_budget=600, step_budget=600)
    assert res.outcome in ("KO", "edgeless")
    checks = res.ledger.checks(inst, m.m)
    assert all(checks.values()), checks
    replay = tp.execute_sequence(res.sequence.start, res.sequence)
    assert replay.valid and replay.ell == res.ledger.ell
    assert replay.eta_start >= replay.eta_final + replay.ell


def test_cover_dual_accounting_all_player_sets(shared_halves):
    """The cover/dual accounting argument, end to end, for every player set."""
    inst = shared_halves
    t = compute_t_star(inst).t_star
    alpha = Fraction(2, 3)
    h = build_H(inst, t, alpha)
    j = build_J(h)
    m = compute_m(inst, t, alpha)
    fat = compute_fat(inst, t, alpha)
    assert clp_feasible(inst, t).feasible
    subs = dict(tp.player_sets(j.graph, j.parts, inst.players))
    for U in (("p1",), ("p2",), ("p1", "p2")):
        g = subs[U]
        out = tp.search_de_sequence(g, "edgeless", budget=30000)
        assert out.found, f"no edgeless sequence found for U={U}"
        seq = out.sequence
        replay = tp.execute_sequence(g, seq)
        assert replay.valid
        end, W = basic_cover(seq)
        assert end == out.end == replay.final
        assert set_verify_star(g, end, W)
        ell = replay.ell
        # per-explosion cover bound v(e u f) <= 3m
        assert inst.value(W) <= 3 * m.m * ell
        if replay.final.vertices:
            # KO branch: an isolated vertex survives, eta(start) is infinite
            assert replay.final.has_isolated_vertex()
            assert tp.eta(g) == tp.INF
            continue
        f_u = fat_for_players(inst, U, fat)
        need = len(U) - len(f_u)
        c_dual = t - m.m
        sol = build_dual(inst, U, W, c_dual, fat)
        check = verify_dual(inst, t, sol)
        assert check.feasible
        assert hypothesis_holds_basic(inst, t, U, W, c_dual, fat) == check.feasible
        assert check.objective <= 0  # weak duality at a feasible target
        assert inst.value(W) >= c_dual * need
        assert ell >= Fraction(c_dual * need, 3 * m.m)


def _step_text(step) -> str:
    return " ".join([step.op] + [f"{owner}:{','.join(res)}" for owner, res in step.edge])


def _four_phase_at(inst, m: Fraction):
    """The four-phase driver on the thin graph of ``inst`` at T = 1,
    alpha = 1/2, with m(alpha) taken as ``m``."""
    j = build_J(build_H(inst, Fraction(1), Fraction(1, 2)))
    return j, tp.four_phase_driver(inst, j, MAlpha(m), search_budget=400, step_budget=400)


def _no_cheap_instance(num_thin: int, seed: int):
    return gen_two_value(
        2, Fraction(1, 5), {"num_fat": 1, "num_thin": num_thin, "density": 0.8}, seed
    )


_P1 = [
    "p1:t1,t2,t4", "p1:t1,t2,t5", "p1:t1,t4,t5", "p1:t1,t4,t6", "p1:t1,t5,t6",
    "p1:t2,t4,t5", "p1:t2,t4,t6", "p1:t2,t5,t6", "p1:t4,t5,t6",
]
_P2 = ["p2:t2,t3,t4", "p2:t2,t3,t5", "p2:t2,t4,t5"]
# The steps of the seed-22 run: it first deletes every pair of the lists
# above but (t1,t4,t6 | t2,t3,t5) and (t1,t5,t6 | t2,t3,t4), in edge order.
NO_CHEAP_SEED_22_STEPS = tuple(
    f"delete {u} {v}"
    for u in _P1
    for v in _P2
    if (u, v) not in {("p1:t1,t4,t6", "p2:t2,t3,t5"), ("p1:t1,t5,t6", "p2:t2,t3,t4")}
) + (
    "explode p1:t1,t2,t4 p2:t3,t4,t5",  # phase 2
    "explode p1:t1,t2,t6 p2:t2,t3,t4",  # phase 4
)


@pytest.mark.parametrize(
    "num_thin, seed, ledger, steps",
    [
        (
            6,
            22,
            {2: (1, {"t4", "t5"}), 4: (1, {"t1", "t2", "t3", "t4", "t6"})},
            NO_CHEAP_SEED_22_STEPS,
        ),
        (5, 0, {4: (1, {"t1", "t2", "t3"})}, ("explode p1:t1,t2,t3 p2:t1,t2,t3",)),
    ],
)
def test_four_phase_without_cheap_sequences(num_thin, seed, ledger, steps):
    """Seeded runs at the real m charge phase 1 only; at m = 0 these two
    dismantle their thin graphs in phases 2 and 4, which the ledger, its
    phase-2 cover shrunk below e u f and its unshrunk phase-4 cover pin."""
    # At m = 0 no cheap sequence passes phase 1.
    j, res = _four_phase_at(_no_cheap_instance(num_thin, seed), Fraction(0))
    assert (res.outcome, res.phase_reached, res.notes) == ("edgeless", 4, [])
    assert res.ledger.entries == {
        phase: (count, frozenset(cover)) for phase, (count, cover) in ledger.items()
    }
    assert tuple(map(_step_text, res.sequence.steps)) == steps
    replay = tp.execute_sequence(j.graph, res.sequence)
    assert replay.valid and replay.ell == res.ledger.ell and not replay.final.vertices


def _names(k: int) -> frozenset[str]:
    return frozenset(f"x{i}" for i in range(k))


def test_drivers_pass_each_phase_its_cover_rule(monkeypatch):
    """Every DE search of both drivers, checked against the cover rule and
    the explosion cap of its phase.

    ``four_phase_driver``: a ``cover`` search right after a ``ko`` search
    is the phase-1 drain's and accepts v(W) <= 2 m ell, at most 3
    explosions; a run at the real m checks it with m > 0.  The later
    searches up to and including the first miss are phase 2's, |W| <= 7/3
    ell with at most 3 explosions, and the rest phase 3's, |W| <= 5/2 ell
    with at most 2.  The two m = 0 runs search phases 2 and 3, but no
    seeded run found so far charges phase 3, so its rule is pinned here
    only.

    ``two_value_driver``: each search of phase X accepts |W| <= a_r(X) ell,
    at most 4 explosions, and explodes exactly the edges with an endpoint
    owned by p whose resources lie in ``based``.  The owner p and the pool
    ``based`` are the arguments of the ``explodes`` rule the search
    receives; X, the phase, and r are read from the frame of
    ``_certify_subset``, which makes the call.
    """
    calls = []

    def record(start, objective, **kw):
        out = tp.search_de_sequence(start, objective, **kw)
        calls.append((objective, kw, out.found))
        return out

    monkeypatch.setattr(drivers, "search_de_sequence", record)
    real_m = gen_two_value(2, Fraction(1, 4), {"num_fat": 1, "num_thin": 5, "density": 0.6}, 16)
    m = compute_m(real_m, Fraction(1), Fraction(1, 2)).m
    assert m > 0
    runs = ((real_m, m), (_no_cheap_instance(6, 22), 0), (_no_cheap_instance(5, 0), 0))
    searched = dict.fromkeys((1, 2, 3), 0)
    for inst, m in runs:
        calls.clear()
        _four_phase_at(inst, Fraction(m))
        covers = [
            frozenset(c)
            for k in range(len(inst.resource_ids) + 1)
            for c in itertools.combinations(inst.resource_ids, k)
        ]
        phase = 2
        for i, (objective, kw, found) in enumerate(calls):
            if objective == "ko":
                assert kw == {"budget": 400}
                continue
            assert objective == "cover" and kw.get("explodes") is None
            cap, accept = kw["max_explosions"], kw["accept"]
            if i and calls[i - 1][0] == "ko":
                searched[1] += 1
                assert cap == 3
                for cover, ell in itertools.product(covers, range(4)):
                    assert accept(cover, ell) == (inst.value(cover) <= 2 * m * ell)
            elif phase == 2:
                searched[2] += 1
                assert cap == 3 and accept(_names(7), 3) and not accept(_names(8), 3)
                phase = 2 if found else 3
            else:
                searched[3] += 1
                assert cap == 2 and accept(_names(5), 2) and not accept(_names(6), 2)
    assert min(searched.values()) >= 1, searched

    phase_x = []

    def record_x(start, objective, **kw):
        caller = sys._getframe(1).f_locals
        assert kw["explodes"].func is two_values._based_in
        p, based = kw["explodes"].args
        phase_x.append((start, objective, kw, caller["X"], caller["r"], p, based))
        return tp.search_de_sequence(start, objective, **kw)

    monkeypatch.setattr(two_values, "search_de_sequence", record_x)
    for seed in (1, 7):
        inst = gen_two_value(2, Fraction(1, 5), {"num_fat": 1, "num_thin": 5, "density": 0.8}, seed)
        res = two_values.two_value_driver(inst, compute_t_star(inst).t_star, search_budget=1500)
        assert res.outcome == "certified"
    explodable = []
    for start, objective, kw, X, r, p, based in phase_x:
        assert objective == "cover" and kw["max_explosions"] == 4
        a = two_values.a_coeff(r, X)
        for ell in range(1, 5):
            k = int(a * ell)
            assert kw["accept"](_names(k), ell) and not kw["accept"](_names(k + 1), ell)
        for edge in start.edges:
            based_edge = any(v[0] == p and frozenset(v[1]) <= based for v in edge)
            assert kw["explodes"](edge) == based_edge, (X, p, edge)
            explodable.append(based_edge)
    assert {X for _, _, _, X, _, _, _ in phase_x} == {2, 3, 4, 5}
    assert set(explodable) == {True, False}


def test_four_phase_random_two_value_suite():
    """Driver runs on a batch of feasible (1, 1/4) instances: outcome is
    always decisive at this scale, ledgers satisfy their inequalities, and
    the executed sequence replays as legal."""
    from santagap.instance import gen_two_value

    rng = random.Random(5150)
    ran = 0
    for trial in range(60):
        inst = gen_two_value(
            rng.randint(2, 3),
            Fraction(1, 4),
            {
                "num_fat": rng.randint(1, 2),
                "num_thin": rng.randint(3, 5),
                "density": rng.choice([0.6, 0.8, 1.0]),
            },
            seed=trial,
        )
        t = Fraction(1)
        if not clp_feasible(inst, t).feasible:
            continue
        alpha = Fraction(1, 2)
        j = build_J(build_H(inst, t, alpha))
        if j.vertex_count() > 14:
            continue
        m = compute_m(inst, t, alpha)
        if m.m == 0:
            continue
        ran += 1
        res = tp.four_phase_driver(inst, j, m, search_budget=400, step_budget=400)
        assert res.outcome in ("KO", "edgeless")
        checks = res.ledger.checks(inst, m.m)
        assert all(checks.values()), (trial, checks)
        replay = tp.execute_sequence(res.sequence.start, res.sequence)
        assert replay.valid
        assert replay.eta_start >= replay.eta_final + replay.ell
    assert ran >= 15


def test_fat_only_players_dual_bound():
    """Players whose configurations are all fat make the dual bound force
    |U| <= |F_U| via the vacuous hypothesis."""
    doc = (
        "players p1 p2 p3\n"
        "resource g 1\nresource h 1\n"
        "resource t1 1/5\nresource t2 1/5\nresource t3 1/5\nresource t4 1/5\nresource t5 1/5\n"
        "covets p1 t1 t2 t3 t4 t5\n"
        "covets p2 g\n"
        "covets p3 h\n"
    )
    inst = parse_instance(doc)
    t = compute_t_star(inst).t_star
    assert t == 1
    alpha = Fraction(1, 4)
    fat = compute_fat(inst, t, alpha)
    assert fat == frozenset({"g", "h"})
    m = compute_m(inst, t, alpha)
    U = ("p2", "p3")
    # neither player in U has a thin configuration
    for p in U:
        assert not thin_configurations(inst, p, t, fat)
    c_dual = 3 * m.m
    sol = build_dual(inst, U, frozenset(), c_dual, fat)
    check = verify_dual(inst, t, sol)
    assert check.feasible
    assert hypothesis_holds_basic(inst, t, U, frozenset(), c_dual, fat) == check.feasible
    # weak duality: 0 >= objective = c(|U| - |F_U|), so |U| <= |F_U|
    assert len(U) <= len(fat_for_players(inst, U, fat))
    # and the thin player's part goes KO instantly (isolated vertices)
    j = build_J(build_H(inst, t, alpha))
    g = dict(tp.player_sets(j.graph, j.parts, inst.players))["p1",]
    assert g.vertices and g.has_isolated_vertex()
    assert tp.eta(g) == tp.INF


# -- JSON round trips -------------------------------------------------------------

def test_graph_json_round_trip():
    g, u, v = _tiny_allocation_graph()
    doc = graph_to_json(g, parts={"p1": (u,), "p2": (v,)})
    g2, parts = graph_from_json(doc)
    assert g2 == g and parts == {"p1": (u,), "p2": (v,)}


def test_trace_json_round_trip():
    g, u, v = _tiny_allocation_graph()
    seq = tp.DeSequence(g, (tp.DeStep(tp.EXPLODE, (u, v)),))
    doc = seq.to_json()
    seq2 = tp.sequence_from_json(g, doc)
    assert seq2.steps == seq.steps
    res = tp.execute_sequence(g, seq2)
    assert res.valid and res.ell == 1
