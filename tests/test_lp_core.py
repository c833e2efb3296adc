import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_small_instance
from santagap.allocation_graph import compute_fat
from oracles import branch_and_bound_opt, hypothesis_holds_basic, hypothesis_holds_refined
from santagap.instance import Instance, brute_force_opt, parse_instance
from santagap.lp_core import (
    Configuration,
    DualSolution,
    _check_primal,
    build_dual,
    clp_feasible,
    compute_t_star,
    fat_for_players,
    minimal_configurations,
    verify_dual,
)


def brute_minimal_subsets(values: dict, threshold: Fraction) -> set[frozenset]:
    """Oracle: enumerate all subsets, keep those >= threshold, filter minimal."""
    ids = sorted(values)
    hits = []
    for k in range(len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            if sum((values[r] for r in combo), Fraction(0)) >= threshold:
                hits.append(frozenset(combo))
    return {
        s for s in hits if not any(t < s for t in hits)
    }


# -- minimal_configurations ---------------------------------------------------

def test_enumerate_single_resource():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    cfgs = minimal_configurations(inst, "p", Fraction(1))
    assert [c.resources for c in cfgs] == [("a",)]


def test_single_resource_configurations_share_the_instance_tuple():
    """Every call returns the instance's one ``(rid,)`` tuple for a
    single-resource configuration, whichever player and threshold, and a
    configuration on it equals, and hashes as, one on a fresh tuple and
    the plain pair."""
    inst = parse_instance(
        "players p q\nresource a 1\nresource b 1/2\nresource c 1/2\n"
        "covets p a b c\ncovets q a c\n"
    )
    first = minimal_configurations(inst, "p", Fraction(1))
    again = minimal_configurations(inst, "p", Fraction(1))
    other = minimal_configurations(inst, "q", Fraction(1, 2))
    assert first == again and first[0] == Configuration("p", ("a",))
    assert first[0].resources is again[0].resources is other[0].resources
    assert [c.resources for c in other] == [("a",), ("c",)]
    assert other[1].resources is minimal_configurations(inst, "p", Fraction(1, 2))[2].resources
    fresh = Configuration("p", tuple(["a"]))
    assert fresh.resources is not first[0].resources
    assert fresh == first[0] == ("p", ("a",))
    assert hash(fresh) == hash(first[0]) == hash(("p", ("a",)))
    assert first[1:] == [Configuration("p", ("b", "c"))]


def test_enumerate_drops_non_minimal():
    inst = parse_instance("players p\nresource a 1\nresource b 1\ncovets p a b\n")
    cfgs = minimal_configurations(inst, "p", Fraction(1))
    assert {c.resources for c in cfgs} == {("a",), ("b",)}


def test_enumerate_three_halves_against_oracle():
    inst = parse_instance(
        "players p\nresource a 1/2\nresource b 1/2\nresource c 1/2\ncovets p a b c\n"
    )
    cfgs = minimal_configurations(inst, "p", Fraction(1))
    expected = brute_minimal_subsets(
        {r: Fraction(1, 2) for r in "abc"}, Fraction(1)
    )
    assert {frozenset(c.resources) for c in cfgs} == expected
    assert len(expected) == 3  # exactly the 2-subsets


def test_enumerate_matches_oracle_on_randoms():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_small_instance(rng)
        p = inst.players[0]
        t = Fraction(rng.randint(1, 4), rng.choice([2, 3, 4]))
        got = {frozenset(c.resources) for c in minimal_configurations(inst, p, t)}
        pool = {r: inst.resources[r] for r in inst.covets[p]}
        assert got == brute_minimal_subsets(pool, t)


def test_enumerate_minimality_invariant():
    rng = random.Random(6)
    for _ in range(20):
        inst = random_small_instance(rng)
        p = inst.players[0]
        t = Fraction(1)
        for cfg in minimal_configurations(inst, p, t):
            assert inst.value(cfg.resources) >= t
            for r in cfg.resources:
                assert inst.value(set(cfg.resources) - {r}) < t


def test_minimal_configurations_differential():
    """Against the every-subset oracle over the whole covet list, at several
    thresholds: same sets, (size, sorted resources) order, and fat exactly
    for singletons that reach the threshold alone."""
    rng = random.Random(11)
    for _ in range(60):
        inst = random_small_instance(rng)
        for p in inst.players:
            for t in (Fraction(1, 4), Fraction(2, 3), Fraction(1), Fraction(3, 2)):
                cfgs = minimal_configurations(inst, p, t)
                pool = {r: inst.resources[r] for r in inst.covets[p]}
                got = {frozenset(c.resources) for c in cfgs}
                assert got == brute_minimal_subsets(pool, t)
                assert len(cfgs) == len({c.resources for c in cfgs})
                keys = [(len(c.resources), sorted(c.resources)) for c in cfgs]
                assert keys == sorted(keys)
                for c in cfgs:
                    assert c.owner == p and c.resources == tuple(sorted(c.resources))
                    assert c == (p, c.resources) and hash(c) == hash((p, c.resources))
                    if len(c.resources) == 1:
                        assert inst.value(c.resources) >= t


def test_minimal_configurations_between_integer_sums():
    """Thresholds alpha*T that are not multiples of 1/scale fall strictly
    between two sums of the integer value table; the enumeration rounds them
    up and must still match the every-subset oracle, in order."""
    rng = random.Random(12)
    checked = 0
    for _ in range(60):
        inst = random_small_instance(rng)
        totals = sorted({inst.value(inst.covets[p]) for p in inst.players})
        for alpha in (Fraction(3, 7), Fraction(6, 11), Fraction(9, 13), Fraction(12, 17)):
            t = alpha * rng.choice(totals)
            if (t * inst.scale).denominator == 1:
                continue
            checked += 1
            for p in inst.players:
                cfgs = minimal_configurations(inst, p, t)
                pool = {r: inst.resources[r] for r in inst.covets[p]}
                got = {frozenset(c.resources) for c in cfgs}
                assert got == brute_minimal_subsets(pool, t)
                keys = [(len(c.resources), sorted(c.resources)) for c in cfgs]
                assert keys == sorted(keys) and len(set(map(str, keys))) == len(keys)
    assert checked > 150


def test_enumerate_a_pool_at_the_cap():
    """20 coveted resources of value 1, the pool cap, at threshold 2: the
    190 two-subsets, in lexicographic order."""
    ids = [f"r{i:02d}" for i in range(20)]
    doc = "players p\n" + "".join(f"resource {r} 1\n" for r in ids)
    inst = parse_instance(doc + "covets p " + " ".join(ids) + "\n")
    cfgs = minimal_configurations(inst, "p", Fraction(2))
    assert len(cfgs) == 190
    assert cfgs == [Configuration("p", pair) for pair in itertools.combinations(ids, 2)]


@pytest.mark.parametrize("threshold", [Fraction(0), Fraction(-1, 3)])
def test_enumerate_at_a_threshold_of_at_most_zero(threshold):
    """The empty set reaches it: one empty configuration, also for a
    player who covets nothing."""
    inst = parse_instance("players p q\nresource a 1\ncovets p a\n")
    for p in inst.players:
        assert minimal_configurations(inst, p, threshold) == [Configuration(p, ())]


def test_enumerate_ignores_later_edits_to_the_callers_data():
    """The search reads the tables built at construction, so changing the
    caller's covet sets, covet map or values afterwards changes nothing."""
    wants = {"a", "b"}
    covets = {"p": wants}
    values = {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1)}
    inst = Instance.build(["p"], values, covets)
    before = minimal_configurations(inst, "p", Fraction(1))
    assert before == [Configuration("p", ("a",))]
    wants.discard("a")
    wants.add("c")
    covets["p"] = {"b", "c"}
    values["b"] = Fraction(1)
    assert minimal_configurations(inst, "p", Fraction(1)) == before


# -- clp_feasible ---------------------------------------------------------------

def test_clp_single_player_unit():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    res = clp_feasible(inst, Fraction(1))
    assert res.feasible
    ((cfg, weight),) = res.primal.items()
    assert cfg.resources == ("a",) and weight == 1


def test_clp_two_players_one_unit_infeasible():
    inst = parse_instance("players p1 p2\nresource a 1\ncovets p1 a\ncovets p2 a\n")
    res = clp_feasible(inst, Fraction(1))
    assert not res.feasible
    cert = res.infeasibility_certificate
    check = verify_dual(inst, Fraction(1), cert)
    assert check.feasible and check.objective > 0


def test_clp_shared_four_units_at_two():
    doc = "players p1 p2\n" + "".join(f"resource {r} 1\n" for r in "abcd")
    doc += "covets p1 a b c d\ncovets p2 a b c d\n"
    inst = parse_instance(doc)
    assert clp_feasible(inst, Fraction(2)).feasible
    assert not clp_feasible(inst, Fraction(3)).feasible


def test_clp_fractional_regime(shared_halves):
    # the integral optimum needs pairs; half-weights stretch to T=1
    res = clp_feasible(shared_halves, Fraction(1))
    assert res.feasible
    for cfg, w in res.primal.items():
        assert 0 <= w <= 1


def test_check_primal_catches_each_tampering(shared_halves):
    """Each of the three exact checks fires on a primal tampered to break
    it, over mixed denominators; the untampered primal meets every covering
    constraint with equality and passes."""
    model = clp_feasible(shared_halves, Fraction(1)).model

    def cfg(owner, *resources):
        return Configuration(owner, resources)

    exact = {
        cfg("p1", "c", "d"): Fraction(1),
        cfg("p2", "a"): Fraction(1, 2),
        cfg("p2", "b"): Fraction(1, 3),
        cfg("p2", "a", "b"): Fraction(1, 6),
    }
    _check_primal(shared_halves, model, exact)
    tampered = [
        ({cfg("p2", "a", "b"): Fraction(-1, 6)}, "negative primal weight"),
        ({cfg("p2", "b"): Fraction(1, 3) - Fraction(1, 12)}, "covering .* for p2"),
        ({cfg("p1", "a"): Fraction(1, 3) + Fraction(1, 7)}, "packing .* for a"),
    ]
    for change, message in tampered:
        with pytest.raises(AssertionError, match=message):
            _check_primal(shared_halves, model, {**exact, **change})


# -- compute_t_star ---------------------------------------------------------------

def test_t_star_single_unit():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    assert compute_t_star(inst).t_star == 1


def test_t_star_shared_eps():
    inst = parse_instance(
        "players p1 p2\nresource a 1\nresource b 1/8\ncovets p1 a b\ncovets p2 a b\n"
    )
    res = compute_t_star(inst)
    assert res.t_star == Fraction(1, 8)
    assert res.feasibility_witness.feasible
    # next candidate up must be infeasible
    assert not clp_feasible(inst, Fraction(1)).feasible


def test_t_star_three_shared_units():
    doc = "players p1 p2\nresource a 1\nresource b 1\nresource c 1\n"
    doc += "covets p1 a b c\ncovets p2 a b c\n"
    inst = parse_instance(doc)
    res = compute_t_star(inst)
    assert res.t_star == 1
    assert not clp_feasible(inst, Fraction(2)).feasible


def test_t_star_empty_covet_list():
    inst = parse_instance("players p1 p2\nresource a 1\ncovets p1 a\n")
    assert compute_t_star(inst).t_star == 0


def test_t_star_monotone_on_candidates():
    rng = random.Random(13)
    from santagap.lp_core import subset_sum_candidates

    for _ in range(5):
        inst = random_small_instance(rng)
        res = compute_t_star(inst)
        for t in subset_sum_candidates(inst):
            feasible = clp_feasible(inst, t).feasible
            assert feasible == (t <= res.t_star)


def test_simplex_deterministic(shared_halves):
    a = clp_feasible(shared_halves, Fraction(1))
    b = clp_feasible(shared_halves, Fraction(1))
    assert a.primal == b.primal


# -- duals -----------------------------------------------------------------------

def test_opt_reads_a_0_1_witness_without_search(shared_halves):
    """All weights 1: the support holds one configuration per player,
    these are disjoint and each is worth T*, so OPT = T* is read off it
    with no search, and its witness is the support."""
    res = compute_t_star(shared_halves)
    primal = res.feasibility_witness.primal
    assert set(primal.values()) == {1}
    opt = brute_force_opt(shared_halves, res)
    assert opt.opt_value == res.t_star == 1
    assert opt.opt_value == branch_and_bound_opt(shared_halves).opt_value
    assert opt.nodes_explored == 0
    opt.witness.validate(shared_halves)
    assert {
        Configuration(p, b) for p, b in opt.witness.assignment.items()
    } == set(primal)


def test_build_dual_basic_empty_U():
    inst = parse_instance("players p\nresource a 1\nresource b 1/4\ncovets p a b\n")
    sol = build_dual(inst, frozenset(), {"b"}, Fraction(0), frozenset({"a"}))
    assert all(v == 0 for v in sol.y.values())
    assert sol.z["b"] == Fraction(1, 4) and sol.z["a"] == 0
    assert sol.objective == -Fraction(1, 4)
    check = verify_dual(inst, Fraction(1), sol)
    assert check.feasible


def test_build_dual_rejects_fat_overlap():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    with pytest.raises(ValueError):
        build_dual(inst, {"p"}, {"a"}, Fraction(1), frozenset({"a"}))


def test_verify_dual_all_zero():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    sol = DualSolution({"p": Fraction(0)}, {"a": Fraction(0)})
    check = verify_dual(inst, Fraction(1), sol)
    assert check.feasible and check.objective == 0


def test_verify_dual_flags_uncovered_player():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    sol = DualSolution({"p": Fraction(1)}, {"a": Fraction(0)})
    check = verify_dual(inst, Fraction(1), sol)
    assert not check.feasible
    assert check.violated is not None and check.violated.owner == "p"


def test_refined_rejects_large_c():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    with pytest.raises(ValueError):
        build_dual(inst, {"p"}, set(), Fraction(3), frozenset(), Fraction(1))


def test_refined_zero_solution():
    inst = parse_instance("players p\nresource a 1\ncovets p a\n")
    sol = build_dual(inst, set(), set(), Fraction(0), frozenset(), Fraction(0))
    assert sol.objective == 0
    assert verify_dual(inst, Fraction(1), sol).feasible


def _dual_fixture(rng):
    """Random instance with T = T*, a fat threshold and a candidate Y."""
    inst = random_small_instance(rng)
    t_star = compute_t_star(inst).t_star
    if t_star == 0:
        return None
    alpha = Fraction(rng.choice([1, 1, 2]), rng.choice([3, 4]))
    fat = compute_fat(inst, t_star, alpha)
    thin = [r for r in inst.resource_ids if r not in fat]
    if not thin:
        return None
    y_size = rng.randint(1, len(thin))
    Y = frozenset(rng.sample(thin, y_size))
    U = frozenset(rng.sample(inst.players, rng.randint(1, len(inst.players))))
    return inst, t_star, fat, Y, U


def test_dual_basic_construction_on_randoms():
    """The basic dual verifies exactly when the hypothesis scan passes, and
    then weak duality yields v(Y) >= c (|U| - |F_U|)."""
    rng = random.Random(99)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        fx = _dual_fixture(rng)
        if fx is None:
            continue
        inst, t_star, fat, Y, U = fx
        c = Fraction(rng.randint(1, 3), rng.choice([3, 4, 6]))
        sol = build_dual(inst, U, Y, c, fat)
        check = verify_dual(inst, t_star, sol)
        assert check.feasible == hypothesis_holds_basic(inst, t_star, U, Y, c, fat)
        outcomes[check.feasible] += 1
        f_u = fat_for_players(inst, U, fat)
        assert check.objective == c * len(U) - c * len(f_u) - inst.value(Y)
        if not check.feasible:
            continue
        # CLP(t_star) is feasible, so the dual objective cannot be positive
        assert check.objective <= 0
        assert inst.value(Y) >= c * (len(U) - len(f_u))
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


def test_dual_refined_construction_on_randoms():
    rng = random.Random(123)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        fx = _dual_fixture(rng)
        if fx is None:
            continue
        inst, t_star, fat, Y, U = fx
        d = Fraction(rng.randint(1, 3), rng.choice([3, 4]))
        c = d * Fraction(rng.choice([1, 2]), rng.choice([1, 2]))
        if c > 2 * d:
            continue
        sol = build_dual(inst, U, Y, c, fat, d)
        check = verify_dual(inst, t_star, sol)
        assert check.feasible == hypothesis_holds_refined(
            inst, t_star, U, Y, c, d, fat
        )
        outcomes[check.feasible] += 1
        if not check.feasible:
            continue
        assert check.objective <= 0
        f_u = fat_for_players(inst, U, fat)
        y_hi = {r for r in Y if inst.resources[r] > d}
        y_lo = set(Y) - y_hi
        lhs = c * len(U) - c * len(f_u)
        assert lhs <= d * len(y_hi) + inst.value(y_lo)
        # partition consequence, random splits
        for _ in range(4):
            y1 = {r for r in Y if rng.random() < 0.5}
            y2 = set(Y) - y1
            assert lhs <= d * len(y1) + inst.value(y2)
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


def test_refined_with_d_equal_c_recovers_basic_bound():
    rng = random.Random(321)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        fx = _dual_fixture(rng)
        if fx is None:
            continue
        inst, t_star, fat, Y, U = fx
        c = Fraction(rng.randint(1, 2), rng.choice([3, 4]))
        basic = hypothesis_holds_basic(inst, t_star, U, Y, c, fat)
        refined = build_dual(inst, U, Y, c, fat, c)
        refined_ok = verify_dual(inst, t_star, refined).feasible
        assert refined_ok == hypothesis_holds_refined(inst, t_star, U, Y, c, c, fat)
        outcomes[basic] += 1
        if not basic:
            continue
        # basic hypothesis implies the refined one at d = c
        assert refined_ok
        f_u = fat_for_players(inst, U, fat)
        # d |Y_{>d}| <= v(Y_{>d}) turns the refined bound back into the basic one
        assert c * (len(U) - len(f_u)) <= inst.value(Y)
    assert outcomes[True] >= 5 and outcomes[False] >= 5, outcomes


def test_opt_never_exceeds_t_star():
    rng = random.Random(2024)
    for _ in range(40):
        inst = random_small_instance(rng)
        assert branch_and_bound_opt(inst).opt_value <= compute_t_star(inst).t_star


def test_feasibility_certificates_both_directions():
    """Every answer is proof-carrying: feasible solves satisfy the exact
    constraints (rechecked here by hand), infeasible ones ship a dual
    solution with positive objective that the independent checker accepts."""
    rng = random.Random(888)
    feasible_seen = infeasible_seen = 0
    for _ in range(40):
        inst = random_small_instance(rng)
        t = Fraction(rng.randint(1, 5), rng.choice([2, 3, 4]))
        res = clp_feasible(inst, t)
        if res.feasible:
            feasible_seen += 1
            for p in inst.players:
                total = sum(
                    (w for cfg, w in res.primal.items() if cfg.owner == p),
                    Fraction(0),
                )
                assert total >= 1
            for r in inst.resource_ids:
                packed = sum(
                    (w for cfg, w in res.primal.items() if r in cfg.resources),
                    Fraction(0),
                )
                assert packed <= 1
            assert all(w >= 0 for w in res.primal.values())
        else:
            infeasible_seen += 1
            cert = res.infeasibility_certificate
            check = verify_dual(inst, t, cert)
            assert check.feasible and check.objective > 0
    assert feasible_seen >= 5 and infeasible_seen >= 5
