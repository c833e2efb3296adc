"""Derived graphs, the G-e and G*e that ``classify_edge`` returns and each
J|U that ``player_sets`` yields, reuse their parent's sorted labels and
re-index its adjacency masks; they must equal the same graph built from
scratch with ``Graph(...)`` (``oracles.delete_edge``, ``explode_edge`` and
``induced``), and ``all_deletions`` must take the steps of the
full-classification loop it replaced.  The eta cache is keyed on masks
alone, so graphs that differ only in their labels share an entry; a graph
keeps its key once read, and the key must be its masks packed from
scratch however the graph was made, including the G-e that
``classify_edge`` hands the key of G with two bits flipped.
``deletion_walk`` probes each G-e on the key of G with two bits flipped,
and is memoized on the key of the graph it starts from.  ``hall_eta_check``
takes each J|U from ``player_sets``, and must agree with the check that
built each J|U from scratch."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_partite_graph
from oracles import (
    classify_all_deletions,
    delete_edge,
    explode_edge,
    induced,
    induced_hall_eta_check,
)
from santagap import graphs
from santagap import topology as tp
from santagap.allocation_graph import MAlpha, build_H, build_J
from santagap.graphs import Graph
from santagap.instance import gen_two_value
from santagap.subsets import CapError
from santagap.topology import desequence, homology
from santagap.two_values import PhaseXLedger, a_coeff


def _labels(kind: str, n: int) -> list:
    if kind == "str":
        # "v10" sorts before "v2": the order is the labels', not creation's
        return [f"v{i}" for i in range(n)]
    return [(f"p{i % 3}", tuple(sorted({f"r{i}", f"s{i % 4}"}))) for i in range(n)]


def _random_labelled_graph(rng: random.Random, kind: str) -> Graph:
    labels = _labels(kind, rng.randint(0, 12))
    rng.shuffle(labels)
    p = rng.choice([0.2, 0.4, 0.6, 0.85])
    edges = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in itertools.combinations(labels, 2)
        if rng.random() < p
    ]
    return Graph(labels, edges)


def assert_packed_key(g: Graph) -> None:
    """The key ``g`` keeps, whether its maker set it or it is packed on this
    read, is ``g.masks`` packed from scratch."""
    want = homology._cache_key(g.masks)
    assert g._eta_key in (None, want)
    assert homology.graph_key(g) == want
    assert g._eta_key == want


def assert_same_graph(derived: Graph, fresh: Graph) -> None:
    assert_packed_key(derived)
    assert_packed_key(fresh)
    assert derived.masks == fresh.masks
    assert hash(derived) == hash(fresh)
    assert derived == fresh
    assert derived.vertices == fresh.vertices
    assert derived.edges == fresh.edges


def test_graphs_list_their_edges_only_when_read(monkeypatch):
    """H, J, every H|U and J|U and the graphs classify_edge derives are
    built, and eta and classify_edge read them, without listing an edge;
    the first read of ``edges`` lists them."""
    inst = gen_two_value(
        2, Fraction(1, 4), {"num_fat": 1, "num_thin": 3, "density": 1.0}, seed=1
    )

    def listed(*args):
        raise AssertionError("edges listed")

    monkeypatch.setattr(graphs, "_mask_order_edges", listed)
    h = build_H(inst, Fraction(1), Fraction(1, 2))
    j = build_J(h)
    subs = {
        (name, U): sub
        for name, a in (("H", h), ("J", j))
        for U, sub in tp.player_sets(a.graph, a.parts, inst.players)
    }
    g = subs["J", ("p1", "p2")]
    i = next(k for k, m in enumerate(g.masks) if m)
    j_pos = (g.masks[i] & -g.masks[i]).bit_length() - 1
    edge = (g.vertices[i], g.vertices[j_pos])
    cls = tp.classify_edge(g, edge)
    for d in (cls.deleted, cls.exploded, *subs.values()):
        tp.eta(d)
    with pytest.raises(AssertionError, match="edges listed"):
        g.edges


@pytest.mark.parametrize("kind", ["str", "owner-resources"])
def test_derived_graphs_equal_fresh_graphs(kind):
    rng = random.Random(f"derived-{kind}")
    for _ in range(60):
        g = _random_labelled_graph(rng, kind)
        for a, b in g.edges:
            # classify_edge hands on the two graphs whose eta it read, with
            # the edge named in either orientation; G-e comes with the key
            # of G, two bits flipped
            for edge in ((a, b), (b, a)):
                cls = tp.classify_edge(g, edge)
                assert cls.deleted._eta_key is not None
                assert_same_graph(cls.deleted, delete_edge(g, (a, b)))
                assert_same_graph(cls.exploded, explode_edge(g, (a, b)))
        keep = [v for v in g.vertices if rng.random() < 0.6]
        # labels the graph does not have are ignored
        stranger = ("zz", ("zz",)) if kind != "str" else "zz"
        parts = {"keep": keep, "stranger": keep + [stranger]}
        for _, sub in tp.player_sets(g, parts, list(parts)):
            assert_same_graph(sub, induced(g, keep))


@pytest.mark.parametrize("kind", ["str", "owner-resources"])
def test_chains_of_derived_graphs_equal_fresh_graphs(kind):
    """Derived graphs derived again, as the dismantling drivers use them."""
    rng = random.Random(f"chains-{kind}")
    for _ in range(40):
        g = _random_labelled_graph(rng, kind)
        while g.edges:
            a, b = rng.choice(g.edges)
            move = rng.choice(["delete", "delete", "explode", "induced"])
            if move == "delete":
                fresh = delete_edge(g, (a, b))
                g = tp.classify_edge(g, (a, b)).deleted
            elif move == "explode":
                fresh = explode_edge(g, (a, b))
                g = tp.classify_edge(g, (a, b)).exploded
            else:
                keep = [v for v in g.vertices if rng.random() < 0.8]
                fresh = induced(g, keep)
                ((_, g),) = tp.player_sets(g, {"U": keep}, ["U"])
            assert_same_graph(g, fresh)


@pytest.mark.parametrize("kind", ["str", "owner-resources"])
def test_player_sets_yield_every_induced_subgraph(kind):
    """Every (U, J|U) of ``player_sets``, U by size and then in
    ``itertools.combinations`` order of the names given, J|U the graph
    built from scratch on the labels of U's parts: parts may be empty,
    overlap or list labels the graph lacks, and the parent's key may be
    read or not.  A U whose parts hold every vertex yields the graph
    itself, with the key it keeps."""
    rng = random.Random(f"player-sets-{kind}")
    stranger = ("zz", ("zz",)) if kind != "str" else "zz"
    whole = 0
    for _ in range(80):
        g = _random_labelled_graph(rng, kind)
        if rng.random() < 0.5:
            assert_packed_key(g)
        names = [f"P{k}" for k in range(rng.randint(1, 4))]
        rng.shuffle(names)
        parts = {p: [v for v in g.vertices if rng.random() < 0.5] for p in names}
        if rng.random() < 0.3:
            parts[rng.choice(names)] = ()
        if rng.random() < 0.3:
            p = rng.choice(names)
            parts[p] = (*parts[p], stranger)
        got = list(tp.player_sets(g, parts, names))
        assert [U for U, _ in got] == [
            U for size in range(1, len(names) + 1) for U in itertools.combinations(names, size)
        ]
        for U, sub in got:
            labels = [v for p in U for v in parts[p]]
            if set(g.vertices) <= set(labels):
                assert sub is g
                whole += 1
            assert_same_graph(sub, induced(g, labels))
    assert whole > 10


@pytest.mark.parametrize("kind", ["str", "owner-resources"])
def test_stored_keys_equal_packed_keys(kind):
    """However a graph is made, from a parent whose key was read or not,
    the key it keeps is its own masks packed from scratch."""
    rng = random.Random(f"stored-keys-{kind}")
    made = 0
    for _ in range(120):
        g = _random_labelled_graph(rng, kind)
        if rng.random() < 0.5:
            assert_packed_key(g)
        # made before classify_edge reads the key of G on the first edge
        keep = [v for v in g.vertices if rng.random() < 0.7]
        derived = [sub for _, sub in tp.player_sets(g, {"U": keep}, ["U"])]
        for e in g.edges:
            cls = tp.classify_edge(g, e)
            assert cls.deleted._eta_key == homology._cache_key(cls.deleted.masks)
            derived += [cls.deleted, cls.exploded]
        parent = g._eta_key
        for h in derived:
            assert_packed_key(h)
            # a key read on a child leaves the parent's alone (a
            # restriction to every vertex is the parent itself)
            assert h is g or g._eta_key == parent
        made += len(derived)
    assert made > 1000


def test_allocation_graphs_and_walk_ends_keep_packed_keys():
    """H and J (``Graph._derived`` in build_H and build_J), J restricted to
    each player set (``player_sets``) and the end of ``all_deletions``
    (``Graph._derived`` on the walk's masks)."""
    rng = random.Random("allocation-keys")
    checked = 0
    for _ in range(30):
        inst = gen_two_value(
            rng.randint(2, 3),
            rng.choice((Fraction(1, 4), Fraction(1, 5))),
            {"num_fat": 1, "num_thin": rng.randint(3, 5), "density": 0.8},
            rng.randrange(2**32),
        )
        h = build_H(inst, Fraction(1), Fraction(1, 2))
        j = build_J(h)
        made = [h.graph, j.graph]
        made += [sub for _, sub in tp.player_sets(j.graph, j.parts, inst.players)]
        if len(j.graph.vertices) <= 12:
            made.append(tp.all_deletions(j.graph)[0])
        for g in made:
            assert_packed_key(g)
        checked += len(made)
    assert checked > 100


def _checked_eta(monkeypatch) -> dict:
    """Wrap the eta that ``classify_edge`` and ``execute_sequence`` read:
    each graph's kept key must be its packed masks, before and after the
    call, and each value that of ``homology_profile``.  Returns the count
    of graphs read that came with a key."""
    counts = {"keyed": 0}
    profiled: dict = {}
    real = desequence.eta

    def checked(g):
        want = homology._cache_key(g.masks)
        assert g._eta_key in (None, want)
        counts["keyed"] += g._eta_key is not None
        value = real(g)
        assert g._eta_key == want
        if want not in profiled:
            profiled[want] = tp.eta_from_profile(tp.homology_profile(g))
        assert value == profiled[want]
        return value

    monkeypatch.setattr(desequence, "eta", checked)
    return counts


def test_stored_keys_hold_along_search_deletions_and_phase_4(monkeypatch):
    """The DE search's deletion branch and phase 4 of the four-phase
    driver, which no benchmark workload reaches: edgeless searches from a
    5-cycle, the Petersen graph and seeded thin graphs take deletions, and
    the two m = 0 runs of ``test_topology`` dismantle their thin graphs in
    phase 4.  Every graph eta reads keeps its packed key, and every found
    sequence replays to the end graph the search returned."""
    counts = _checked_eta(monkeypatch)
    five_cycle = Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    starts = [five_cycle, _petersen()] + _thin_graphs(random.Random("search-keys"), 40)
    with_deletions = 0
    for g in starts:
        out = tp.search_de_sequence(g, "edgeless", budget=400)
        if not out.found:
            continue
        replay = tp.execute_sequence(g, out.sequence)
        assert replay.valid and replay.final == out.end and not out.end.edges
        with_deletions += any(s.op == tp.DELETE for s in out.sequence.steps)
    assert with_deletions >= 3
    for num_thin, seed in ((6, 22), (5, 0)):
        inst = gen_two_value(
            2, Fraction(1, 5), {"num_fat": 1, "num_thin": num_thin, "density": 0.8}, seed
        )
        j = build_J(build_H(inst, Fraction(1), Fraction(1, 2)))
        res = tp.four_phase_driver(
            inst, j, MAlpha(Fraction(0)), search_budget=400, step_budget=400
        )
        assert (res.outcome, res.phase_reached) == ("edgeless", 4)
        assert res.ledger.entries[4][0] >= 1
        replay = tp.execute_sequence(j.graph, res.sequence)
        assert replay.valid and replay.final == res.final
    assert counts["keyed"] > 100
    tp.clear_eta_cache()


def test_hall_check_on_part_masks_matches_the_induced_check():
    """Parts that list labels the graph lacks, empty parts and seeded thin
    graphs: the same result, and the same first violating set."""
    rng = random.Random("hall-masks")
    seen = {True: 0, False: 0}
    for _ in range(150):
        g, parts = random_partite_graph(rng, max_parts=5)
        if rng.random() < 0.3:
            parts["stranger"] = ("zz",) + parts[rng.choice(sorted(parts))]
        if rng.random() < 0.1:
            parts["empty"] = ()
        got = tp.hall_eta_check(g, parts)
        assert got == induced_hall_eta_check(g, parts)
        seen[got.holds] += 1
    for _ in range(20):
        inst = gen_two_value(
            rng.randint(2, 3),
            Fraction(1, 4),
            {"num_fat": 1, "num_thin": rng.randint(3, 5), "density": 0.8},
            rng.randrange(2**32),
        )
        j = build_J(build_H(inst, Fraction(1), Fraction(1, 2)))
        if len(j.graph.vertices) <= 16:
            got = tp.hall_eta_check(j.graph, j.parts)
            assert got == induced_hall_eta_check(j.graph, j.parts)
            seen[got.holds] += 1
    assert min(seen.values()) >= 10, seen


def _cold_and_warm_deletions(g: Graph) -> list:
    """all_deletions from cold caches, then warm (a second call, answered
    by the walk memo)."""
    tp.clear_eta_cache()
    return [tp.all_deletions(g) for _ in ("cold", "warm")]


def _assert_same_deletions(g: Graph, got: list | None = None) -> None:
    """Cold and warm all_deletions against the oracle: the same steps,
    naming g's own edge pairs, and the end graph built from scratch."""
    if got is None:
        got = _cold_and_warm_deletions(g)
    want_graph, want_steps = classify_all_deletions(g)
    for got_graph, got_steps in got:
        assert got_steps == want_steps
        for step in got_steps:
            assert step.edge is g.edges[g.edges.index(step.edge)]
        assert_same_graph(got_graph, want_graph)


def test_all_deletions_matches_classify_edge_loop_on_random_graphs():
    rng = random.Random("all-deletions")
    for kind in ("str", "owner-resources"):
        for _ in range(60):
            _assert_same_deletions(_random_labelled_graph(rng, kind))


def _thin_graphs(rng: random.Random, tries: int) -> list[Graph]:
    """Thin graphs J of seeded (1, eps) instances with 12 vertices or fewer
    and at least one edge."""
    out = []
    for _ in range(tries):
        inst = gen_two_value(
            rng.randint(2, 3),
            rng.choice((Fraction(1, 4), Fraction(1, 5))),
            {"num_fat": 1, "num_thin": rng.randint(3, 5), "density": 0.8},
            rng.randrange(2**32),
        )
        j = build_J(build_H(inst, Fraction(1), Fraction(1, 2))).graph
        if len(j.vertices) <= 12 and j.edges:
            out.append(j)
    return out


def test_all_deletions_matches_classify_edge_loop_on_thin_graphs():
    thin = _thin_graphs(random.Random("all-deletions-thin"), 40)
    assert len(thin) >= 10
    for j in thin:
        _assert_same_deletions(j)


class _RecordingCache(dict):
    """An eta cache that records the keys looked up, the number looked up
    at each clear, and the most entries it held."""

    def __init__(self):
        super().__init__()
        self.looked_up: list = []
        self.cleared_at: list[int] = []
        self.largest = 0

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))

    def clear(self):
        self.cleared_at.append(len(self.looked_up))
        super().clear()


def test_deletions_are_probed_on_flipped_keys(monkeypatch):
    """deletion_walk looks G-e up on the key of G with two bits flipped:
    that must be the key of G-e itself, and a miss must store eta(G-e)."""
    rng = random.Random("flipped-keys")
    graphs = [
        _random_labelled_graph(rng, kind)
        for kind in ("str", "owner-resources")
        for _ in range(40)
    ]
    graphs += _thin_graphs(rng, 30)
    probed = 0
    for g in graphs:
        cache = _RecordingCache()
        monkeypatch.setattr(homology, "_ETA_CACHE", cache)
        monkeypatch.setattr(homology, "_WALK_CACHE", {})
        # eta(G) read as -1 makes no deletion legal, so every edge is probed
        cache[homology._cache_key(g.masks)] = -1
        assert homology.deletion_walk(g) == ((), g.masks)
        smaller = [delete_edge(g, e) for e in g.edges]
        keys = [homology._cache_key(h.masks) for h in smaller]
        assert cache.looked_up[1:] == keys
        for key, h in zip(keys, smaller):
            assert cache[key] == tp.eta_from_profile(tp.homology_profile(h))
        # walked again, the memo answers and the eta cache is not read
        entries = dict(cache)
        assert homology.deletion_walk(g) == ((), g.masks)
        assert len(cache.looked_up) == 1 + len(keys)
        # with the memo emptied, every G-e is a hit and nothing is written
        homology._WALK_CACHE.clear()
        assert homology.deletion_walk(g) == ((), g.masks)
        assert cache == entries
        probed += len(keys)
    assert probed > 1000


def test_all_deletions_matches_the_classify_loop_with_a_tiny_cache(monkeypatch):
    """With room for 8 entries the eta cache is emptied in the middle of
    the walk's scans, and the walk memo between graphs; the deletions
    taken must not change, cold or warm."""
    monkeypatch.setattr(homology, "ETA_CACHE_MAX", 8)
    rng = random.Random("tiny-cache")
    cleared_mid_scan = 0
    for kind in ("str", "owner-resources"):
        for _ in range(30):
            g = _random_labelled_graph(rng, kind)
            cache, walks = _RecordingCache(), _RecordingCache()
            monkeypatch.setattr(homology, "_ETA_CACHE", cache)
            monkeypatch.setattr(homology, "_WALK_CACHE", walks)
            got = _cold_and_warm_deletions(g)
            # the walk reads eta(G) once, so a clear after the first
            # lookup is one on a probe's miss
            cleared_mid_scan += sum(at > 1 for at in cache.cleared_at)
            _assert_same_deletions(g, got)
            assert cache.largest <= 8 and walks.largest <= 8
    assert cleared_mid_scan > 0


def test_the_walk_memo_is_bounded_and_cleared(monkeypatch):
    """With ETA_CACHE_MAX at 4 the memo never holds more than 4 walks,
    results stay those of the oracle, and clear_eta_cache empties both
    dicts."""
    monkeypatch.setattr(homology, "ETA_CACHE_MAX", 4)
    walks = _RecordingCache()
    monkeypatch.setattr(homology, "_WALK_CACHE", walks)
    rng = random.Random("bounded-memo")
    graphs = [_random_labelled_graph(rng, "str") for _ in range(30)]
    for _ in range(2):  # the second round reads walks stored after evictions
        for g in graphs:
            got_graph, got_steps = tp.all_deletions(g)
            want_graph, want_steps = classify_all_deletions(g)
            assert got_steps == want_steps
            assert_same_graph(got_graph, want_graph)
            assert len(walks) <= 4
    assert walks.largest == 4 and len(walks.cleared_at) > 1
    assert homology._ETA_CACHE
    tp.clear_eta_cache()
    assert not walks and not homology._ETA_CACHE


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(range(10), outer + spokes + inner)


def test_deletion_walk_honours_the_eta_caps(monkeypatch):
    """Petersen minus an edge has girth 5 and no vertex of degree 1, so no
    vertex folds and eta(G-e) needs homology.  The vertex cap holds on
    every call; the simplex cap can be met only on a memo miss."""
    g = _petersen()
    tp.clear_eta_cache()
    with monkeypatch.context() as patch:
        patch.setattr(homology, "DEFAULT_VERTEX_CAP", 9)
        with pytest.raises(CapError, match="10 vertices exceeds cap 9"):
            homology.deletion_walk(g)
        with pytest.raises(CapError, match="10 vertices exceeds cap 9"):
            tp.all_deletions(g)
    tp.eta(g)  # eta(G) is now a hit and every G-e a miss
    with monkeypatch.context() as patch:
        patch.setattr(homology, "DEFAULT_SIMPLEX_CAP", 1)
        with pytest.raises(CapError, match="more than 1 simplices"):
            homology.deletion_walk(g)
    walk = homology.deletion_walk(g)
    assert walk[0]
    with monkeypatch.context() as patch:
        patch.setattr(homology, "DEFAULT_SIMPLEX_CAP", 1)
        # a memo hit computes nothing
        assert homology.deletion_walk(g) == walk
        # so does a miss whose every eta is cached
        homology._WALK_CACHE.clear()
        assert homology.deletion_walk(g) == walk
        # the vertex cap is checked before the memo is read
        patch.setattr(homology, "DEFAULT_VERTEX_CAP", 9)
        with pytest.raises(CapError, match="10 vertices exceeds cap 9"):
            homology.deletion_walk(g)
    tp.clear_eta_cache()


def _relabelled(g: Graph, label) -> Graph:
    """The same structure over new labels that sort as the old ones do."""
    new = {v: label(i) for i, v in enumerate(g.vertices)}
    return Graph(new.values(), [(new[u], new[v]) for u, v in g.edges])


def test_eta_cache_is_shared_by_graphs_that_differ_only_in_labels():
    rng = random.Random("label-free-cache")
    for kind in ("str", "owner-resources"):
        for _ in range(30):
            g = _random_labelled_graph(rng, kind)
            twin = _relabelled(g, lambda i: ("q", (f"t{i:02d}",)))
            assert twin != g or not g.vertices
            assert twin.masks == g.masks
            tp.clear_eta_cache()
            value = tp.eta(g)
            assert len(homology._ETA_CACHE) == 1
            assert tp.eta(twin) == value
            assert tp.eta_at_least(twin, 1) == (value >= 1)
            assert len(homology._ETA_CACHE) == 1
            for h in (g, twin):
                assert value == tp.eta_from_profile(tp.homology_profile(h))
    tp.clear_eta_cache()


def test_relabelled_graphs_share_the_walk_memo(monkeypatch):
    """A graph with the masks of one already walked costs one memo lookup
    and no eta lookup, and its steps name its own edge pairs."""
    rng = random.Random("label-free-walk")
    walked = 0
    for kind in ("str", "owner-resources"):
        for _ in range(30):
            g = _random_labelled_graph(rng, kind)
            twin = _relabelled(g, lambda i: ("q", (f"t{i:02d}",)))
            tp.clear_eta_cache()
            _, steps = tp.all_deletions(g)
            cache = _RecordingCache()
            monkeypatch.setattr(homology, "_ETA_CACHE", cache)
            got_graph, got_steps = tp.all_deletions(twin)
            assert cache.looked_up == []
            monkeypatch.undo()
            want_graph, want_steps = classify_all_deletions(twin)
            assert got_steps == want_steps
            assert len(got_steps) == len(steps)
            for step in got_steps:
                assert step.edge is twin.edges[twin.edges.index(step.edge)]
            assert_same_graph(got_graph, want_graph)
            walked += bool(steps)
    assert walked > 10
    tp.clear_eta_cache()


def test_eta_cache_keys_differ_for_every_small_graph():
    keys = set()
    count = 0
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            g = Graph(range(n), [e for e, take in zip(pairs, chosen) if take])
            keys.add(homology._cache_key(g.masks))
            count += 1
    assert len(keys) == count == 1 + 1 + 2 + 8 + 64


class _TwoDictLedger:
    """The phase-X ledger as two dicts, one of counts and one of covers."""

    def __init__(self):
        self.counts, self.covers = {}, {}

    def add(self, X, ell, cover):
        self.counts[X] = self.counts.get(X, 0) + ell
        self.covers[X] = self.covers.get(X, frozenset()) | cover

    def checks(self, r):
        return {
            X: Fraction(len(self.covers.get(X, frozenset())))
            <= self.counts.get(X, 0) * a_coeff(r, X)
            for X in self.counts
        }


def test_phase_x_ledger_checks_match_the_two_dict_ledger():
    rng = random.Random("phase-x-ledger")
    resources = [f"t{i}" for i in range(12)]
    for _ in range(200):
        r = rng.randint(1, 4)
        ledger, reference = PhaseXLedger(), _TwoDictLedger()
        for _ in range(rng.randint(0, 6)):
            X = rng.randint(r, 3 * r + 1)
            ell = rng.randint(0, 3)
            cover = frozenset(rng.sample(resources, rng.randint(0, 6)))
            ledger.add(X, ell, cover)
            reference.add(X, ell, cover)
        assert ledger.checks(r) == reference.checks(r)
        assert list(ledger.checks(r)) == list(reference.checks(r))
