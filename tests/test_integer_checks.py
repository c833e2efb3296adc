"""The (1, eps) certification path checks on integers and bitmasks: the
DCLP objective, ``verify_dual`` and ``build_dual`` sum integers over the
lcm of the denominators, ``is_cheap``, ``is_gamma`` and
``analyze_two_value`` compare integers, and ``shrink_cover`` gives each
cover resource one bit.  Each must return what its Fraction or frozenset
form in ``oracles`` returns, or raise the same error with the same
message, on seeded inputs that include the edge cases:
zero, negative, int-typed and mixed-denominator dual entries, missing and
extra keys, covers that fail property (*), labels without resources, and
instances with zero to three distinct values."""

import itertools
import random
from fractions import Fraction

from conftest import random_small_instance
from oracles import (
    rational_analyze_two_value,
    rational_build_dual,
    rational_is_cheap,
    rational_is_gamma,
    rational_objective,
    rational_verify_dual,
    set_shrink_cover,
    set_verify_star,
)
from santagap import lp_core
from santagap import topology as tp
from santagap.allocation_graph import alpha_threshold, compute_fat
from santagap.graphs import Graph
from santagap.instance import Instance, InstanceError
from santagap.two_values import analyze_two_value


def outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", f(*args)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _entry(rng: random.Random):
    """A dual entry: zero, negative, an int, or a Fraction over one of
    several denominators."""
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    if kind < 0.25:
        return rng.randint(0, 3)
    if kind < 0.35:
        return -Fraction(rng.randint(1, 5), rng.choice((1, 3, 4)))
    return Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 6, 7, 12)))


def _random_dual(rng: random.Random, inst: Instance) -> lp_core.DualSolution:
    y = {p: _entry(rng) for p in inst.players}
    z = {r: _entry(rng) for r in inst.resource_ids}
    return lp_core.DualSolution(y, z)


def test_objective_is_the_sum_of_fractions():
    rng = random.Random("integer-objective")
    for _ in range(300):
        inst = random_small_instance(rng)
        sol = _random_dual(rng, inst)
        got = sol.objective
        assert got == rational_objective(sol) and type(got) is Fraction
    empty = lp_core.DualSolution({}, {})
    assert empty.objective == 0 and type(empty.objective) is Fraction


def test_verify_dual_matches_the_fraction_check():
    """Random duals, with every kind of entry, and duals tight on a
    minimal configuration (feasible) or just below one (violated)."""
    rng = random.Random("integer-verify-dual")
    seen = set()
    for _ in range(300):
        inst = random_small_instance(rng)
        target = Fraction(rng.randint(1, 12), rng.choice((2, 3, 4, 6)))
        sol = _random_dual(rng, inst)
        if rng.random() < 0.5:
            for r in sol.z:
                sol.z[r] = abs(Fraction(sol.z[r]))
            for p in inst.players:
                weights = [
                    sum((sol.z[r] for r in cfg.resources), Fraction(0))
                    for cfg in lp_core.minimal_configurations(inst, p, target)
                ]
                sol.y[p] = min(weights, default=0) + rng.choice((0, 0, -Fraction(1, 7), Fraction(1, 7)))
        got = lp_core.verify_dual(inst, target, sol)
        assert got == rational_verify_dual(inst, target, sol)
        assert type(got.objective) is Fraction
        seen.add((got.feasible, got.violated is None))
    assert seen == {(True, True), (False, True), (False, False)}


def test_verify_dual_refuses_the_same_dimensions():
    """A dual with a key missing or one too many, in y or in z, raises the
    same ValueError as the set comparison, before any entry is read."""
    rng = random.Random("integer-dimensions")
    for _ in range(60):
        inst = random_small_instance(rng)
        sol = _random_dual(rng, inst)
        side = rng.choice(("y", "z"))
        entries = dict(getattr(sol, side))
        if rng.random() < 0.5:
            del entries[rng.choice(sorted(entries))]
        else:
            entries["extra"] = Fraction(1)
        entries[rng.choice(sorted(entries))] = "not a number"
        bad = lp_core.DualSolution(**{**vars(sol), side: entries})
        got = outcome(lp_core.verify_dual, inst, Fraction(1), bad)
        assert got == outcome(rational_verify_dual, inst, Fraction(1), bad)
        assert got == (ValueError, "dual solution dimensions do not match the instance")


def test_build_dual_matches_the_fraction_build():
    rng = random.Random("integer-build-dual")
    errors = set()
    for _ in range(300):
        inst = random_small_instance(rng)
        ids = inst.resource_ids
        fat = frozenset(r for r in ids if rng.random() < 0.3)
        U = frozenset(p for p in inst.players if rng.random() < 0.6)
        Y = frozenset(r for r in ids if r not in fat and rng.random() < 0.5)
        if rng.random() < 0.1 and fat:
            Y |= {rng.choice(sorted(fat))}
        c = rng.choice((0, 1, Fraction(1, 3), Fraction(3, 4), -Fraction(1, 2)))
        d = rng.choice((None, None, Fraction(1, 4), Fraction(1, 2), 1))
        got = outcome(lp_core.build_dual, inst, U, Y, c, fat, d)
        assert got == outcome(rational_build_dual, inst, U, Y, c, fat, d)
        if got[0] is not ValueError:
            assert all(type(v) is Fraction for v in (*got[1].y.values(), *got[1].z.values()))
        else:
            errors.add(got[1].split(",")[0])
    assert errors == {"c must be non-negative", "need c <= 2d", "Y intersects the fat set"}


def test_cover_rules_match_the_fraction_rules():
    rng = random.Random("integer-cover-rules")
    for _ in range(500):
        inst = random_small_instance(rng)
        cover = frozenset(r for r in inst.resource_ids if rng.random() < 0.5)
        ell = rng.randint(0, 4)
        gamma = rng.choice((Fraction(7, 3), Fraction(5, 2), Fraction(11, 3), 2, 3, Fraction(0)))
        assert tp.is_gamma(cover, ell, gamma) == rational_is_gamma(cover, ell, gamma)
        m = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(5, 8), 1, Fraction(0)))
        bound = rng.choice((2, Fraction(7, 3), Fraction(5, 2), 3)) * m
        assert tp.is_cheap(inst, cover, ell, bound) == rational_is_cheap(inst, cover, ell, bound)
    inst = random_small_instance(rng)
    unknown = frozenset({"no-such-resource"})
    got = outcome(tp.is_cheap, inst, unknown, 1, Fraction(1))
    assert got == outcome(rational_is_cheap, inst, unknown, 1, Fraction(1))
    assert got[0] is InstanceError


def _star_case(rng: random.Random):
    """A start graph on (owner, resources) labels, sometimes with labels
    without resources mixed in, an end graph on a subset of its labels
    (sometimes with labels of its own), and a cover."""
    n = rng.randint(0, 10)
    labels = [
        (f"p{i % 3}", tuple(sorted(rng.sample("abcdefg", rng.randint(0, 3)))))
        for i in range(n)
    ]
    if rng.random() < 0.2:
        labels.append((f"q{rng.randint(0, 9)}",))  # a 1-tuple: no resource set
    if rng.random() < 0.1:
        labels.append(("z", "a"))  # a second item that is not a tuple
    labels = list(dict.fromkeys(labels))
    edges = [e for e in itertools.combinations(labels, 2) if rng.random() < 0.3]
    start = Graph(labels, edges)
    kept = [v for v in labels if rng.random() < 0.6]
    if rng.random() < 0.1:
        kept.append(("p9", ("x",)))
    end = Graph(kept)
    cover = [r for r in "abcdefgh" if rng.random() < 0.4]
    if rng.random() < 0.2:
        cover += cover[:1]  # a resource listed twice
    return start, end, rng.choice((frozenset(cover), set(cover), cover))


def test_shrink_matches_the_frozenset_form():
    rng = random.Random("bitmask-star")
    raised = failed = shrunk = 0
    for _ in range(2000):
        start, end, cover = _star_case(rng)
        star = outcome(set_verify_star, start, end, cover)
        got = outcome(tp.shrink_cover, start, end, cover)
        assert got == outcome(set_shrink_cover, start, end, cover)
        raised += star[0] != "returned"
        failed += star == ("returned", False)
        if star == ("returned", False):
            assert got == ("returned", frozenset(cover))  # a failing cover comes back unchanged
        if got[0] == "returned" and got[1] != frozenset(cover):
            shrunk += 1
    assert raised > 50 and failed > 100 and shrunk > 100


def test_labels_without_resources_raise_sequence_error():
    g = Graph([0, 1, 2], [(0, 1)])
    end = Graph([2])
    for f in (set_verify_star, tp.shrink_cover, set_shrink_cover):
        got = outcome(f, g, end, {"a"})
        assert got == (tp.SequenceError, "vertex 0 carries no resource set")
    # no resource to drop: nothing is checked, as in the frozenset form
    assert tp.shrink_cover(g, end, ()) == set_shrink_cover(g, end, ()) == frozenset()


def _instance_with_values(rng: random.Random, values: list) -> Instance:
    ids = [f"r{i}" for i in range(rng.randint(len(values), len(values) + 4))]
    resources = {r: values[i % len(values)] for i, r in enumerate(ids)} if values else {}
    players = ["p1", "p2"]
    covets = {p: {r for r in resources if rng.random() < 0.6} for p in players}
    return Instance.build(players, resources, covets)


def test_analyze_two_value_matches_the_fraction_split():
    rng = random.Random("integer-two-value")
    pool = [Fraction(1), Fraction(1, 5), Fraction(1, 7), Fraction(2, 3), Fraction(3, 2), Fraction(2)]
    messages = set()
    for _ in range(400):
        k = rng.randint(0, 3)
        values = rng.sample(pool, k)
        if k and rng.random() < 0.3:
            values[0] = Fraction(1)
        inst = _instance_with_values(rng, values)
        got = outcome(analyze_two_value, inst)
        assert got == outcome(rational_analyze_two_value, inst)
        if got[0] == "returned":
            assert type(got[1].eps) is Fraction
        else:
            messages.add(got[1].split(":")[0])
    assert messages == {"more than two distinct values", "no eps-valued resource present"}


def test_compute_fat_matches_the_fraction_threshold():
    rng = random.Random("integer-fat")
    for _ in range(200):
        inst = random_small_instance(rng)
        target = Fraction(rng.randint(1, 8), rng.choice((2, 3, 4)))
        alpha = Fraction(rng.randint(1, 6), rng.choice((5, 7, 8)))
        threshold = alpha_threshold(alpha, target)
        want = frozenset(r for r, v in inst.resources.items() if v >= threshold)
        assert compute_fat(inst, target, alpha) == want
