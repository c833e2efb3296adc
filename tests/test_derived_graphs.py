"""Derived graphs (delete_edge, explode_edge, induced) reuse their parent's
sorted tuples and re-index its adjacency masks; they, and the G-e and G*e
that ``classify_edge`` returns, must equal the same graph built from
scratch with ``Graph(...)``, and ``all_deletions`` must take the steps of
the full-classification loop it replaced.  The eta cache is keyed on masks
alone, so graphs that differ only in their labels share an entry;
``deletion_walk`` probes each G-e on the key of G with two bits flipped,
and is memoized on the key of the graph it starts from."""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import classify_all_deletions, neighbors
from santagap import graphs
from santagap import topology as tp
from santagap.allocation_graph import build_H, build_J, restrict
from santagap.graphs import Graph
from santagap.instance import gen_two_value
from santagap.subsets import CapError
from santagap.topology import homology
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


def _from_scratch(g: Graph, keep) -> Graph:
    kset = set(keep)
    return Graph(
        [v for v in g.vertices if v in kset],
        [(u, v) for u, v in g.edges if u in kset and v in kset],
    )


def assert_same_graph(derived: Graph, fresh: Graph) -> None:
    assert derived.masks == fresh.masks
    assert hash(derived) == hash(fresh)
    assert derived == fresh
    assert derived.vertices == fresh.vertices
    assert derived.edges == fresh.edges


def test_graphs_list_their_edges_only_when_read(monkeypatch):
    """H, J, a restriction and every derived graph are built, and eta and
    classify_edge read them, without listing an edge; the first read of
    ``edges`` lists them."""
    inst = gen_two_value(
        2, Fraction(1, 4), {"num_fat": 1, "num_thin": 3, "density": 1.0}, seed=1
    )

    def listed(*args):
        raise AssertionError("edges listed")

    monkeypatch.setattr(graphs, "_mask_order_edges", listed)
    h = build_H(inst, Fraction(1), Fraction(1, 2))
    j = build_J(h)
    g = restrict(j, {"p1", "p2"}).graph
    i = next(k for k, m in enumerate(g.masks) if m)
    j_pos = (g.masks[i] & -g.masks[i]).bit_length() - 1
    edge = (g.vertices[i], g.vertices[j_pos])
    derived = [
        g.delete_edge(edge),
        g.explode_edge(edge),
        g.induced(g.vertices[1:]),
        h.graph.induced(g.vertices),
    ]
    tp.classify_edge(g, edge)
    for d in derived:
        tp.eta(d)
    with pytest.raises(AssertionError, match="edges listed"):
        g.edges


@pytest.mark.parametrize("kind", ["str", "owner-resources"])
def test_derived_graphs_equal_fresh_graphs(kind):
    rng = random.Random(f"derived-{kind}")
    for _ in range(60):
        g = _random_labelled_graph(rng, kind)
        for a, b in g.edges:
            fresh = Graph(g.vertices, [e for e in g.edges if e != (a, b)])
            assert_same_graph(g.delete_edge((a, b)), fresh)
            assert_same_graph(g.delete_edge((b, a)), fresh)
            gone = {a, b} | neighbors(g, a) | neighbors(g, b)
            assert_same_graph(
                g.explode_edge((a, b)),
                _from_scratch(g, [v for v in g.vertices if v not in gone]),
            )
            # classify_edge hands on the two graphs whose eta it read
            cls = tp.classify_edge(g, (b, a))
            assert_same_graph(cls.deleted, g.delete_edge((a, b)))
            assert_same_graph(cls.exploded, g.explode_edge((a, b)))
        keep = [v for v in g.vertices if rng.random() < 0.6]
        assert_same_graph(g.induced(keep), _from_scratch(g, keep))
        # labels the graph does not have are ignored
        stranger = ("zz", ("zz",)) if kind != "str" else "zz"
        assert_same_graph(g.induced(keep + [stranger]), _from_scratch(g, keep))


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
                fresh = Graph(g.vertices, [e for e in g.edges if e != (a, b)])
                g = g.delete_edge((a, b))
            elif move == "explode":
                gone = {a, b} | neighbors(g, a) | neighbors(g, b)
                fresh = _from_scratch(g, [v for v in g.vertices if v not in gone])
                g = g.explode_edge((a, b))
            else:
                keep = [v for v in g.vertices if rng.random() < 0.8]
                fresh = _from_scratch(g, keep)
                g = g.induced(keep)
            assert_same_graph(g, fresh)


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
        smaller = [g.delete_edge(e) for e in g.edges]
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
