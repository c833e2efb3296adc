import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import random_small_instance
from oracles import backtrack_transversal, has_edge, induced, neighbors, pairwise_build_H
from santagap import allocation_graph, graphs, subsets
from santagap.allocation_graph import (
    AllocationGraphError,
    build_H,
    build_J,
    compute_fat,
    compute_m,
    find_independent_transversal,
    transversal_to_allocation,
)
from santagap.instance import gen_random, gen_two_value, parse_instance
from santagap.lp_core import (
    Configuration,
    clp_feasible,
    fat_for_players,
    minimal_configurations,
)
from santagap.subsets import CapError
from santagap.topology import player_sets


THREE_PLAYER_PATH = """\
players p1 p2 p3
resource a 1/2
resource b 1/2
resource c 1/2
resource d 1/2
covets p1 a b
covets p2 b c
covets p3 c d
"""


def test_hyperedges_single_fat():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    edges = minimal_configurations(inst, "p", Fraction(1))  # alpha*T = 1
    assert len(edges) == 1 and len(edges[0].resources) == 1
    assert edges[0].resources == ("a",)


def test_hyperedges_thin_pair():
    inst = parse_instance("players p\nresource a 1/2\nresource b 1/2\ncovets p a b\n")
    edges = minimal_configurations(inst, "p", Fraction(1))  # alpha*T = 1
    assert len(edges) == 1 and len(edges[0].resources) != 1
    assert edges[0].resources == ("a", "b")


def test_hyperedges_common_size_in_two_values():
    # (1, eps) with eps = 1/4: every thin hyperedge has exactly ceil(alphaT/eps) elements
    eps = Fraction(1, 4)
    doc = "players p\nresource f 1\n" + "".join(
        f"resource t{i} 1/4\n" for i in range(1, 7)
    )
    doc += "covets p f t1 t2 t3 t4 t5 t6\n"
    inst = parse_instance(doc)
    for r in (2, 3):
        alpha_t = r * eps
        edges = minimal_configurations(inst, "p", alpha_t)  # T = 1
        thin = [e for e in edges if len(e.resources) != 1]
        assert thin and all(len(e.resources) == r for e in thin)


def test_hyperedge_minimality_scan():
    rng = random.Random(3)
    for _ in range(20):
        inst = random_small_instance(rng)
        t = Fraction(1)
        alpha = Fraction(rng.randint(1, 3), 4)
        threshold = alpha * t
        for p in inst.players:
            for he in minimal_configurations(inst, p, threshold):
                assert inst.value(he.resources) >= threshold
                for r in he.resources:
                    assert inst.value(set(he.resources) - {r}) < threshold
                if len(he.resources) == 1:
                    assert inst.resources[next(iter(he.resources))] >= threshold


# -- H / J / J|U --------------------------------------------------------------

def test_build_H_shared_fat_resource():
    inst = parse_instance("players p1 p2\nresource f 1\ncovets p1 f\ncovets p2 f\n")
    h = build_H(inst, Fraction(1), Fraction(1, 2))
    assert h.vertex_count() == 2
    assert len(h.graph.edges) == 1  # the clique C_f
    assert h.graph.vertices == (("p1", ("f",)), ("p2", ("f",)))
    assert all(len(v[1]) == 1 for v in h.graph.vertices)
    j = build_J(h)
    assert j.vertex_count() == 0


def test_build_H_disjoint_covets_has_no_edges():
    inst = parse_instance(
        "players p1 p2\nresource a 1\nresource b 1\ncovets p1 a\ncovets p2 b\n"
    )
    h = build_H(inst, Fraction(1), Fraction(1))
    assert h.vertex_count() == 2 and not h.graph.edges


def test_build_H_three_player_path():
    inst = parse_instance(THREE_PLAYER_PATH)
    h = build_H(inst, Fraction(1), Fraction(1))  # alpha*T = 1
    assert h.parts["p1"] == (("p1", ("a", "b")),)
    assert h.parts["p2"] == (("p2", ("b", "c")),)
    assert h.parts["p3"] == (("p3", ("c", "d")),)
    edges = set(h.graph.edges)
    ab, bc, cd = ("p1", ("a", "b")), ("p2", ("b", "c")), ("p3", ("c", "d"))
    assert edges == {tuple(sorted((ab, bc))), tuple(sorted((bc, cd)))}
    # adjacency oracle: intersecting iff edge, across all pairs
    for u, v in itertools.combinations(h.graph.vertices, 2):
        expected = u[0] != v[0] and bool(set(u[1]) & set(v[1]))
        assert has_edge(h.graph, u, v) == expected


def _assert_same_graph(got, want):
    assert got.parts == want.parts
    assert got.graph.vertices == want.graph.vertices
    assert got.graph.edges == want.graph.edges
    assert got.graph.masks == want.graph.masks
    assert got.graph == want.graph


def _seeded_instances():
    for seed in range(25):
        yield gen_random(4, 7, (Fraction(1, 6), Fraction(1)), 0.8, seed=seed, grid=4)
        yield gen_random(3, 8, (Fraction(1, 6), Fraction(1)), 0.7, seed=seed, grid=12)
        yield gen_two_value(
            2 + seed % 3,
            Fraction(1, 4 + seed % 2),
            {"num_fat": 1 + seed % 2, "num_thin": 3 + seed % 4, "density": 0.8},
            seed,
        )


def test_build_H_is_the_pairwise_construction():
    """Holder masks give the vertices, edges, masks and parts that the
    pairwise construction gives, on seeded random and two-value sets."""
    edges = 0
    for inst in _seeded_instances():
        for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            got = build_H(inst, Fraction(1), alpha)
            want = pairwise_build_H(inst, Fraction(1), alpha)
            _assert_same_graph(got, want)
            _assert_same_graph(build_J(got), build_J(want))
            edges += len(got.graph.edges)
    assert edges > 1000


def test_J_and_player_sets_are_induced_subgraphs_of_H():
    """J builds its masks as H does, on the thin vertices, and keeps H's
    edge pairs; it and every H|U and J|U that ``player_sets`` yields are
    each H's induced subgraph on the vertices of their parts, built from
    scratch, with the same vertices, masks and edge order.  On the
    three-player path at alpha*T = 1, H|{p1, p3} has no edge."""
    thin = 0
    for inst in _seeded_instances():
        for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            h = build_H(inst, Fraction(1), alpha)
            j = build_J(h)
            made = [(j.graph, j.parts.values())]
            for g in (h, j):
                for U, sub in player_sets(g.graph, g.parts, inst.players):
                    made.append((sub, [g.parts[p] for p in U]))
            for sub, parts in made:
                want = induced(h.graph, (v for vs in parts for v in vs))
                assert sub.vertices == want.vertices
                assert sub.masks == want.masks
                assert sub.edges == want.edges
            thin += len(j.graph.edges)
    assert thin > 200
    inst = parse_instance(THREE_PLAYER_PATH)
    h = build_H(inst, Fraction(1), Fraction(1))
    subs = dict(player_sets(h.graph, h.parts, inst.players))
    assert subs["p1", "p2"].edges and subs["p2", "p3"].edges
    assert not subs["p1", "p3"].edges  # ab and cd are disjoint


def test_H_vertices_are_the_enumerated_configurations():
    """H's parts are ``minimal_configurations`` at alpha*T, as returned and in
    order; J, an H|U and a transversal keep those very objects."""
    picked = 0
    for inst in _seeded_instances():
        for alpha in (Fraction(1, 2), Fraction(1)):
            h = build_H(inst, Fraction(1), alpha)
            assert all(type(v) is Configuration for v in h.graph.vertices)
            for p in inst.players:
                assert h.parts[p] == tuple(minimal_configurations(inst, p, alpha))
            owned = {id(v) for vs in h.parts.values() for v in vs}
            j = build_J(h)
            assert all(id(v) in owned for vs in j.parts.values() for v in vs)
            kept = [j.graph, *(g for _, g in player_sets(h.graph, h.parts, inst.players[:1]))]
            assert all(id(v) in owned for g in kept for v in g.vertices)
            trans = find_independent_transversal(h) or {}
            for p, v in trans.items():
                assert v in h.parts[p] and id(v) in owned
            picked += len(trans)
    assert picked > 100


def test_H_round_trips_through_json():
    """Read back from JSON, H's vertices are plain (owner, resources)
    tuples: equal to its ``Configuration``s and hashed the same, so the
    graph and the parts, each in H's order, compare equal."""
    for inst in itertools.islice(_seeded_instances(), 30):
        h = build_H(inst, Fraction(1), Fraction(1, 2))
        doc = json.loads(json.dumps(graphs.graph_to_json(h.graph, parts=h.parts)))
        g, parts = graphs.graph_from_json(doc)
        assert all(type(v) is tuple for v in g.vertices)
        assert g == h.graph and hash(g) == hash(h.graph)
        assert g.vertices == h.graph.vertices and g.edges == h.graph.edges
        assert parts == h.parts and list(parts) == list(h.parts)


def test_graph_refuses_equal_vertices():
    """Labels that compare equal are one vertex twice, an error and not a
    merge; the same resources under two owners are two vertices."""
    with pytest.raises(graphs.GraphError, match="duplicate vertex 1: entries 0 and 2"):
        graphs.Graph([True, 2, 1])
    doc = {
        "vertices": [
            {"owner": "p", "resources": ["a", "b"]},
            {"owner": "q", "resources": ["b", "a"]},
        ],
    }
    g, _ = graphs.graph_from_json(doc)
    assert g.vertices == (("p", ("a", "b")), ("q", ("a", "b")))


def test_build_H_edge_cap_is_exact(monkeypatch):
    """An H of exactly ``DEFAULT_EDGE_CAP`` edges is built, the pairwise
    one's; at cap + 1 edges both constructions refuse it, and the masks
    path fails before the edge list is built."""
    pattern = {"num_fat": 2, "num_thin": 6, "density": 1.0}
    inst = gen_two_value(3, Fraction(1, 4), pattern, seed=1)
    size = len(build_H(inst, Fraction(1), Fraction(1, 2)).graph.edges)
    assert size > 100
    monkeypatch.setattr(allocation_graph, "DEFAULT_EDGE_CAP", size)
    _assert_same_graph(
        build_H(inst, Fraction(1), Fraction(1, 2)),
        pairwise_build_H(inst, Fraction(1), Fraction(1, 2)),
    )
    monkeypatch.setattr(allocation_graph, "DEFAULT_EDGE_CAP", size - 1)

    def built(*args):
        raise AssertionError("edge list built past the cap")

    monkeypatch.setattr(graphs, "_mask_order_edges", built)
    for construction in (build_H, pairwise_build_H):
        with pytest.raises(CapError, match=f"^more than {size - 1} edges$"):
            construction(inst, Fraction(1), Fraction(1, 2))


@pytest.mark.parametrize(
    "alpha, target",
    [(Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(1)), (Fraction(1, 2), Fraction(0))],
    ids=["alpha-0", "alpha-negative", "target-0"],
)
def test_every_reader_of_alpha_T_refuses_a_non_positive_one(alpha, target):
    """``alpha_threshold`` checks alpha*T for compute_m, build_H and
    compute_fat alike."""
    inst = parse_instance(THREE_PLAYER_PATH)
    for read in (compute_m, build_H, compute_fat):
        with pytest.raises(AllocationGraphError, match=r"^alpha\*T must be positive$"):
            read(inst, target, alpha)


def test_compute_fat():
    inst = parse_instance(THREE_PLAYER_PATH)
    fat = compute_fat(inst, Fraction(1), Fraction(1, 4))
    assert fat == frozenset("abcd")  # 1/2 >= 1/4
    assert fat_for_players(inst, {"p1"}, fat) == frozenset({"a", "b"})
    assert compute_fat(inst, Fraction(1), Fraction(3, 4)) == frozenset()


def test_fat_vertices_form_clique_components():
    """Minimality keeps a fat resource out of every other hyperedge, so its
    vertices are a clique of its coveting players that no thin vertex
    touches, and build_J drops exactly those vertices."""
    rng = random.Random(47)
    for _ in range(20):
        inst = random_small_instance(rng)
        alpha = Fraction(rng.randint(1, 3), 4)
        h = build_H(inst, Fraction(1), alpha)
        fat = compute_fat(inst, Fraction(1), alpha)
        fat_vertices = {v for v in h.graph.vertices if len(v[1]) == 1}
        cliques = {
            rid: {(p, (rid,)) for p in inst.players if rid in inst.covets[p]}
            for rid in fat
        }
        assert fat_vertices == set().union(*cliques.values())
        for members in cliques.values():
            for u in members:
                for v in members:
                    if u < v:
                        assert has_edge(h.graph, u, v)
                for w in neighbors(h.graph, u):
                    assert w in members
        j = build_J(h)
        assert set(j.graph.vertices) == set(h.graph.vertices) - fat_vertices


# -- m and blocks ---------------------------------------------------------------

def test_m_single_unit_resource():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    assert compute_m(inst, Fraction(1), Fraction(1)).m == 0


def test_m_two_halves():
    inst = parse_instance("players p\nresource a 1/2\nresource b 1/2\ncovets p a b\n")
    assert compute_m(inst, Fraction(1), Fraction(1)).m == Fraction(1, 2)


def test_m_two_values_formula():
    # (1, eps) regime: m = (r-1) eps when a player covets >= r eps-resources
    eps = Fraction(1, 5)
    doc = "players p\n" + "".join(f"resource t{i} 1/5\n" for i in range(1, 7))
    doc += "covets p " + " ".join(f"t{i}" for i in range(1, 7)) + "\n"
    inst = parse_instance(doc)
    for r in (2, 3, 4):
        alpha_t = r * eps
        m = compute_m(inst, Fraction(1), alpha_t)
        # oracle: enumerate all subset sums below the threshold
        best = max(
            (
                sum((inst.resources[x] for x in combo), Fraction(0))
                for k in range(7)
                for combo in itertools.combinations(inst.resource_ids, k)
                if sum((inst.resources[x] for x in combo), Fraction(0)) < alpha_t
            ),
        )
        assert m.m == best == (r - 1) * eps


def test_m_below_threshold_always():
    rng = random.Random(17)
    for _ in range(20):
        inst = random_small_instance(rng)
        alpha, t = Fraction(rng.randint(1, 3), 4), Fraction(1)
        m = compute_m(inst, t, alpha)
        assert m.m < alpha * t


# -- independent transversals ------------------------------------------------

def test_transversal_empty_part_is_none():
    inst = parse_instance(
        "players p1 p2\nresource a 1\ncovets p1 a\n"
    )  # p2 covets nothing
    h = build_H(inst, Fraction(1), Fraction(1))
    assert find_independent_transversal(h) is None


def test_transversal_edgeless_picks_everywhere():
    inst = parse_instance(
        "players p1 p2\nresource a 1\nresource b 1\ncovets p1 a\ncovets p2 b\n"
    )
    h = build_H(inst, Fraction(1), Fraction(1))
    trans = find_independent_transversal(h)
    assert trans is not None and set(trans) == {"p1", "p2"}
    alloc = transversal_to_allocation(inst, trans)
    assert alloc.min_value(inst) >= 1


def test_transversal_three_player_path_impossible():
    inst = parse_instance(THREE_PLAYER_PATH)
    h = build_H(inst, Fraction(1), Fraction(1))
    # brute force oracle over all 1x1x1 selections
    combos = list(itertools.product(*h.parts.values()))
    assert all(
        any(has_edge(h.graph, u, v) for u, v in itertools.combinations(sel, 2))
        for sel in combos
    )
    assert find_independent_transversal(h) is None


@pytest.mark.parametrize(
    "pools",
    [
        [(11, "1/2"), (5, "1")],  # 55 pairs + 5 singletons
        [(11, "1/2"), (6, "1")],
        [(1, "1")] * 8,
        [(1, "1")] * 9,
    ],
    ids=["60-vertices", "61-vertices", "8-parts", "9-parts"],
)
def test_transversal_caps(pools, monkeypatch):
    """Player i covets pools[i][0] resources of its own, each worth
    pools[i][1]; at alpha*T = 1 each pair of halves is one vertex.  No
    cap on vertices or parts: every shape has a transversal, found at the
    first leaf, one node per part plus the leaf.  The node cap bounds the
    search: one node fewer raises ``CapError``."""
    lines = ["players " + " ".join(f"p{i}" for i in range(len(pools)))]
    owned = [[f"r{i}_{k}" for k in range(count)] for i, (count, _) in enumerate(pools)]
    for ids, (_, value) in zip(owned, pools):
        lines += [f"resource {rid} {value}" for rid in ids]
    lines += [" ".join([f"covets p{i}", *ids]) for i, ids in enumerate(owned)]
    h = build_H(parse_instance("\n".join(lines) + "\n"), Fraction(1), Fraction(1))
    monkeypatch.setattr(subsets, "DEFAULT_NODE_CAP", len(pools) + 1)
    assert find_independent_transversal(h) is not None
    monkeypatch.setattr(subsets, "DEFAULT_NODE_CAP", len(pools))
    with pytest.raises(CapError, match=f"^more than {len(pools)} search nodes$"):
        find_independent_transversal(h)


def test_transversal_matches_brute_force_on_randoms():
    rng = random.Random(31)
    for _ in range(25):
        inst = random_small_instance(rng)
        alpha = Fraction(rng.randint(1, 2), 2)
        h = build_H(inst, Fraction(1), alpha)
        if h.vertex_count() > 40:
            continue
        combos = itertools.product(*h.parts.values())
        exists = any(
            not any(has_edge(h.graph, u, v) for u, v in itertools.combinations(sel, 2))
            for sel in combos
        )
        got = find_independent_transversal(h)
        assert (got is not None) == exists
        if got is not None:
            alloc = transversal_to_allocation(inst, got)
            assert alloc.min_value(inst) >= alpha * 1


def test_transversal_is_the_backtracking_one():
    """On full and thin H of seeded two-value and random instances, the
    disjoint-choice search returns the very dict that backtracking over
    H's adjacency returns."""
    rng = random.Random(37)
    found = absent = 0
    for seed in range(40):
        instances = [
            gen_two_value(
                rng.randint(2, 5),
                Fraction(1, rng.randint(2, 5)),
                {"num_fat": rng.randint(1, 4), "num_thin": rng.randint(2, 8),
                 "density": rng.choice((0.4, 0.6, 0.8))},
                seed,
            ),
            random_small_instance(rng),
        ]
        for inst in instances:
            for alpha in (Fraction(1, 2), Fraction(1)):
                h = build_H(inst, Fraction(1), alpha)
                for g in (h, build_J(h)):
                    if g.vertex_count() > 60:
                        continue
                    got = find_independent_transversal(g)
                    want = backtrack_transversal(g)
                    assert got == want and list(got or ()) == list(want or ())
                    found += got is not None
                    absent += got is None
    assert found > 100 and absent > 100


def test_transversal_iff_allocation_at_alpha_t(shared_halves):
    # a transversal of H(alpha) is exactly an allocation of min-value >= alpha T
    t = Fraction(1)
    assert clp_feasible(shared_halves, t).feasible
    h = build_H(shared_halves, t, Fraction(1, 2))
    trans = find_independent_transversal(h)
    assert trans is not None
    alloc = transversal_to_allocation(shared_halves, trans)
    assert alloc.min_value(shared_halves) >= Fraction(1, 2)
