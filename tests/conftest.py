import os
import random
from fractions import Fraction

import pytest

from santagap.graphs import Graph
from santagap.instance import Instance, parse_instance


# T* = 1, OPT = 1/2: a gap of 2 with a fractional T* witness.
GAP_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gap_4x6.txt")

def cycle_graph(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_triangles(k: int) -> Graph:
    edges = [
        (3 * t + i, 3 * t + j)
        for t in range(k)
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    return Graph(range(3 * k), edges)


def random_graph(rng: random.Random, max_vertices: int = 8) -> Graph:
    n = rng.randint(2, max_vertices)
    p = rng.choice([0.2, 0.35, 0.5, 0.7, 0.85])
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def random_partite_graph(
    rng: random.Random, max_parts: int = 4, max_part_size: int = 3
) -> tuple[Graph, dict]:
    num_parts = rng.randint(2, max_parts)
    parts = {}
    vertices = []
    for k in range(num_parts):
        size = rng.randint(1, max_part_size)
        members = tuple(f"v{k}_{i}" for i in range(size))
        parts[f"part{k}"] = members
        vertices.extend(members)
    p = rng.choice([0.25, 0.4, 0.6])
    edges = []
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if u.split("_")[0] != v.split("_")[0] and rng.random() < p:
                edges.append((u, v))
    return Graph(vertices, edges), parts


def random_small_instance(rng: random.Random) -> Instance:
    """Desk-scale random instance with values on a coarse rational grid."""
    num_players = rng.randint(2, 4)
    num_resources = rng.randint(3, 7)
    players = [f"p{i+1}" for i in range(num_players)]
    denom = rng.choice([4, 6, 8])
    resources = {
        f"r{i+1}": Fraction(rng.randint(1, denom), denom)
        for i in range(num_resources)
    }
    covets: dict[str, set] = {p: set() for p in players}
    for rid in resources:
        for p in players:
            if rng.random() < 0.6:
                covets[p].add(rid)
        if not any(rid in covets[p] for p in players):
            covets[rng.choice(players)].add(rid)
    for p in players:
        if not covets[p]:
            covets[p].add(rng.choice(sorted(resources)))
    return Instance.build(players, resources, covets)


SHARED_HALVES = """\
players p1 p2
resource a 1/2
resource b 1/2
resource c 1/2
resource d 1/2
covets p1 a b c d
covets p2 a b c d
"""


@pytest.fixture
def shared_halves() -> Instance:
    """Two players sharing four half-value resources; T* = 1."""
    return parse_instance(SHARED_HALVES)
