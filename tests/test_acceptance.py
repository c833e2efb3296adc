"""Acceptance suite: every release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with its measured runtime.  All numeric comparisons are
exact unless a tolerance is stated explicitly.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from decimal import Decimal, getcontext
from fractions import Fraction

from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_triangles,
    random_graph,
    random_partite_graph,
    random_small_instance,
)
from oracles import (
    branch_and_bound_opt,
    has_edge,
    hypothesis_holds_basic,
    hypothesis_holds_refined,
    limit_bound,
    neighbors,
)
from santagap import topology as tp
from santagap.allocation_graph import compute_fat
from santagap.cli import cli_main
from santagap.gap_report import CONVEX_WEIGHTS, verify_convex_combination
from santagap.graphs import Graph
from santagap.instance import gen_two_value
from santagap.lp_core import (
    build_dual,
    compute_t_star,
    fat_for_players,
    verify_dual,
)
from santagap.two_values import f_gap, r_c

RC_TABLE_1_30 = [
    1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6,
    6, 7, 7, 8, 8, 8, 9, 9, 10, 10, 11, 11, 11, 12, 12,
]


def _report(number: int, name: str, elapsed: float, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} PASS {name} [{elapsed:.3f}s]{tail}")


def test_criterion_01_rc_table():
    start = time.monotonic()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["rc-table", "--max", "30"])
    elapsed = time.monotonic() - start
    assert code == 0
    rows = json.loads(buf.getvalue())
    assert [row["c"] for row in rows] == list(range(1, 31))
    assert [row["r_c"] for row in rows] == RC_TABLE_1_30
    for row in rows:
        c, r = row["c"], row["r_c"]
        assert Fraction(row["ratio"]) == Fraction(c, r)
    assert elapsed < 1.0
    _report(1, "rc-table 1..30 exact", elapsed)


def test_criterion_02_limit_bound():
    value = limit_bound()  # warm
    start = time.monotonic()
    value = limit_bound()
    elapsed = time.monotonic() - start
    assert value < 2.479
    getcontext().prec = 40
    reference = (
        Decimal(10) / 3
        - (Decimal(4) / 3) * (Decimal(4) / 3).ln()
        - 4 * (Decimal(9) / 8).ln()
    )
    assert abs(Decimal(value) - reference) < Decimal("1e-9")
    assert elapsed < 0.001
    _report(2, f"limit bound {value:.10f} < 2.479", elapsed)


def test_criterion_03_convex_combination():
    verify_convex_combination(Fraction(53, 15), Fraction(1))  # warm
    start = time.monotonic()
    cert = verify_convex_combination(Fraction(53, 15), Fraction(1))
    elapsed = time.monotonic() - start
    assert sum(CONVEX_WEIGHTS, Fraction(0)) == 1
    assert cert.weights_sum == 1
    assert list(cert.per_variable.values()) == [Fraction(1)] * 4  # exact, zero tolerance
    assert elapsed < 0.001
    _report(3, "53/15 convex combination all-ones", elapsed)


def test_criterion_04_eta_goldens():
    cases = [
        ("empty", Graph([], []), 0),
        ("isolated vertex", Graph([0], []), tp.INF),
        ("C5", cycle_graph(5), 2),
        ("K2", complete_graph(2), 1),
        ("K3", complete_graph(3), 1),
        ("K4", complete_graph(4), 1),
        ("1 triangle", disjoint_triangles(1), 1),
        ("2 triangles", disjoint_triangles(2), 2),
        ("3 triangles", disjoint_triangles(3), 3),
    ]
    total = time.monotonic()
    for name, graph, expected in cases:
        tp.clear_eta_cache()
        start = time.monotonic()
        got = tp.eta(graph)
        elapsed = time.monotonic() - start
        assert got == expected, (name, got, expected)
        # independent derivation through the full homology profile
        profile = tp.homology_profile(graph)
        assert tp.eta_from_profile(profile) == expected, name
        assert elapsed < 1.0, name
    _report(4, "eta golden values", time.monotonic() - total)


def test_criterion_05_meshulam_suite():
    start = time.monotonic()
    rng = random.Random(20250)
    graphs = 0
    edges_checked = 0
    while graphs < 500:
        g = random_graph(rng, 8)
        graphs += 1
        for e in g.edges:
            cls = tp.classify_edge(g, e)
            assert cls.deletable or cls.explodable, (g.edges, e)
            assert cls.eta_before >= min(cls.eta_deleted, cls.eta_exploded + 1)
            edges_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(5, f"Meshulam on 500 graphs / {edges_checked} edges", elapsed)


def test_criterion_06_transversal_criterion_suite():
    start = time.monotonic()
    rng = random.Random(60660)
    holds_count = 0
    for _ in range(200):
        g, parts = random_partite_graph(rng, 4, 3)
        res = tp.hall_eta_check(g, parts)
        if not res.holds:
            continue
        holds_count += 1
        assert _brute_transversal_exists(g, parts), (g.edges, parts)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    assert holds_count >= 20  # the suite must exercise the implication
    _report(6, f"transversal criterion, {holds_count}/200 hypotheses held", elapsed)


def _brute_transversal_exists(g: Graph, parts: dict) -> bool:
    import itertools

    for combo in itertools.product(*(parts[p] for p in sorted(parts))):
        if all(not has_edge(g, u, v) for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def test_criterion_07_duality_suite():
    start = time.monotonic()
    rng = random.Random(70770)
    basic = {True: 0, False: 0}
    refined = {True: 0, False: 0}
    for _ in range(600):
        inst = random_small_instance(rng)
        t_star = compute_t_star(inst).t_star
        opt = branch_and_bound_opt(inst).opt_value
        assert opt <= t_star  # exact
        if t_star == 0:
            continue
        alpha = Fraction(rng.choice([1, 1, 2]), rng.choice([3, 4]))
        fat = compute_fat(inst, t_star, alpha)
        thin = [r for r in inst.resource_ids if r not in fat]
        U = frozenset(rng.sample(inst.players, rng.randint(1, len(inst.players))))
        f_u = fat_for_players(inst, U, fat)
        Y = frozenset(rng.sample(thin, rng.randint(0, len(thin))))
        c = Fraction(rng.randint(1, 3), rng.choice([3, 4, 6]))
        check = verify_dual(inst, t_star, build_dual(inst, U, Y, c, fat))
        assert check.feasible == hypothesis_holds_basic(inst, t_star, U, Y, c, fat)
        basic[check.feasible] += 1
        if check.feasible:
            assert check.objective == c * len(U) - c * len(f_u) - inst.value(Y)
            assert check.objective <= 0
            assert inst.value(Y) >= c * (len(U) - len(f_u))
        d = Fraction(rng.randint(1, 3), rng.choice([3, 4]))
        c2 = min(2 * d, Fraction(rng.randint(1, 4), rng.choice([3, 4])))
        check = verify_dual(inst, t_star, build_dual(inst, U, Y, c2, fat, d))
        assert check.feasible == hypothesis_holds_refined(inst, t_star, U, Y, c2, d, fat)
        refined[check.feasible] += 1
        if check.feasible:
            assert check.objective <= 0
            y_hi = {r for r in Y if inst.resources[r] > d}
            y_lo = set(Y) - y_hi
            lhs = c2 * len(U) - c2 * len(f_u)
            assert check.objective == lhs - d * len(y_hi) - inst.value(y_lo)
            assert lhs <= d * len(y_hi) + inst.value(y_lo)
            for _ in range(3):
                y1 = {r for r in Y if rng.random() < 0.5}
                assert lhs <= d * len(y1) + inst.value(set(Y) - y1)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    assert basic[True] >= 20 and refined[True] >= 20
    assert basic[False] >= 10 and refined[False] >= 10, (basic, refined)
    _report(
        7,
        f"duality suite (basic {basic[True]} feasible / {basic[False]} not, "
        f"refined {refined[True]} / {refined[False]})",
        elapsed,
    )


def test_criterion_08_integrality_gap_consistency():
    start = time.monotonic()
    bound = Fraction(53, 15)
    rng = random.Random(80880)

    accepted = 0
    attempts = 0
    while accepted < 100 and attempts < 400:
        attempts += 1
        inst = random_small_instance(rng)
        opt = branch_and_bound_opt(inst).opt_value
        if opt == 0:
            continue
        t_star = compute_t_star(inst).t_star
        accepted += 1
        assert t_star / opt <= bound, inst.serialize()
    assert accepted == 100

    two_value_accepted = 0
    attempts = 0
    seed = 0
    while two_value_accepted < 50 and attempts < 500:
        attempts += 1
        seed += 1
        eps = rng.choice([Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), Fraction(2, 9)])
        inst = gen_two_value(
            rng.randint(2, 3),
            eps,
            {
                "num_fat": rng.randint(1, 3),
                "num_thin": rng.randint(3, 6),
                "density": rng.choice([0.5, 0.7, 0.9]),
            },
            seed=seed,
        )
        if len(inst.resources) > 9:
            continue
        t_star = compute_t_star(inst).t_star
        if not (1 <= t_star < 2):
            continue
        c = math.ceil(t_star / eps)
        if c < 4:
            continue
        two_value_accepted += 1
        opt = branch_and_bound_opt(inst).opt_value
        assert opt >= r_c(c) * eps, inst.serialize()
        assert t_star / opt <= f_gap(eps / t_star), inst.serialize()
    elapsed = time.monotonic() - start
    assert two_value_accepted == 50
    assert elapsed < 900
    _report(8, "integrality-gap consistency (100 random + 50 two-value)", elapsed)


def test_criterion_09_c5_trace_replay():
    start = time.monotonic()
    g = cycle_graph(5)
    # both C5 deletions classify as deletable (and not explodable)
    first = tp.classify_edge(g, (0, 1))
    assert first.deletable and not first.explodable
    p5 = g.delete_edge((0, 1))
    second = tp.classify_edge(p5, (2, 3))
    assert second.deletable and not second.explodable
    steps = (tp.DeStep(tp.DELETE, (0, 1)), tp.DeStep(tp.DELETE, (2, 3)))
    res = tp.execute_sequence(g, tp.DeSequence(g, steps))
    assert res.valid and res.ell == 0 and res.eta_drop_certified
    # final graph is P2 + P3, and the chained inequality certifies eta(C5) >= 2
    final_parts = sorted(
        len(c) for c in _components(res.final)
    )
    assert final_parts == [2, 3]
    assert res.eta_final >= 2
    assert res.eta_start >= res.eta_final + res.ell >= 2
    assert tp.eta(g) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(9, "C5 deletion trace certifies eta >= 2", elapsed)


def _components(g: Graph):
    seen, comps = set(), []
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


def test_criterion_10_f_bullet_grid():
    start = time.monotonic()
    union = lambda x: (
        x < Fraction(1, 6)
        or Fraction(2, 11) <= x < Fraction(1, 3)
        or x >= Fraction(4, 11)
    )
    checked = 0
    for q in range(1, 67):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            value = f_gap(x)
            checked += 1
            if x in (Fraction(1, 6), Fraction(1, 3)):
                assert value == 3
            else:
                assert value < 3, x
            if union(x):
                assert value <= Fraction(11, 4), x
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(10, f"f(x) bullet grid over {checked} rationals", elapsed)
