"""The integer kernels for T* and OPT against their slow oracles.

``lp_core._phase1_simplex`` is a revised fraction-free simplex, and
``brute_force_opt``, ``compute_m`` and ``verify_dual`` search on the
instance's integer value table; each must return exactly what the
rational oracles in ``oracles.py`` return.
"""

import math
import random
from fractions import Fraction

from conftest import random_small_instance
from oracles import (
    dense_phase1_simplex,
    exhaustive_opt,
    rational_max_value_below,
    rational_min_cost_subset_reaching,
)
from santagap import lp_core, subsets
from santagap.allocation_graph import compute_m
from santagap.instance import Instance, brute_force_opt, gen_random

_integer_simplex = lp_core._phase1_simplex


def _assert_same_as_dense(nrows, columns):
    got = _integer_simplex(nrows, columns)
    want = dense_phase1_simplex(
        nrows, [[(i, Fraction(c)) for i, c in col] for col in columns]
    )
    assert got == want, (nrows, columns)
    optimum, x, pi = got
    assert all(type(v) is Fraction for v in [optimum, *x, *pi])
    return got


# -- _phase1_simplex ------------------------------------------------------------

def test_simplex_matches_dense_on_every_t_star_probe(monkeypatch):
    probes = []

    def checked(nrows, columns):
        probes.append(len(columns))
        return _assert_same_as_dense(nrows, columns)

    monkeypatch.setattr(lp_core, "_phase1_simplex", checked)
    shapes = [(3, 6, 0.7), (4, 7, 0.8), (5, 6, 0.9), (2, 8, 0.6)]
    for seed in range(6):
        for players, resources, density in shapes:
            inst = gen_random(
                players, resources, (Fraction(1, 6), Fraction(1)), density,
                seed=seed, grid=12,
            )
            lp_core.compute_t_star(inst)
    assert len(probes) >= 24 * 3
    assert max(probes) > 40


def _random_columns(rng, nrows, ncols, density):
    columns = []
    for _ in range(ncols):
        col = [
            (i, rng.choice((-1, 1)) if rng.random() < 0.25 else 1)
            for i in range(nrows)
            if rng.random() < density
        ]
        columns.append(col)
    return columns


def test_simplex_matches_dense_on_sparse_column_sets():
    rng = random.Random(3)
    outcomes = set()
    for _ in range(300):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(0, 14)
        columns = _random_columns(rng, nrows, ncols, rng.choice((0.3, 0.5, 0.8)))
        optimum, _, _ = _assert_same_as_dense(nrows, columns)
        outcomes.add(optimum == 0)
    assert outcomes == {True, False}


def test_simplex_matches_dense_on_tied_ratio_column_sets():
    """Rows duplicated across every column tie in each ratio test, so the
    leaving row is chosen by the basis tie-break."""
    rng = random.Random(4)
    for _ in range(200):
        base = rng.randint(1, 5)
        copies = rng.sample(range(base), rng.randint(1, base))
        columns = _random_columns(rng, base, rng.randint(1, 12), 0.6)
        # Row base + k repeats row copies[k] in every column.
        nrows = base + len(copies)
        dup = []
        for col in columns:
            coef = dict(col)
            dup.append(
                col + [(base + k, coef[src]) for k, src in enumerate(copies) if src in coef]
            )
        dup += [list(col) for col in dup[: rng.randint(0, len(dup))]]
        _assert_same_as_dense(nrows, dup)


def test_simplex_matches_dense_on_wide_lps():
    """CLP-shaped LPs of 300-420 columns: a player row and 1-3 or 2-4
    resource rows per column, then surplus and slack columns, as
    ``clp_feasible`` builds them."""
    rng = random.Random(21)
    outcomes = set()
    for smallest in (1, 2, 1, 2, 1, 2):
        players, resources = rng.randint(3, 6), rng.randint(5, 9)
        nrows = players + resources
        columns = []
        for _ in range(rng.randint(300, 400)):
            picked = rng.sample(range(players, nrows), rng.randint(smallest, smallest + 2))
            columns.append([(rng.randrange(players), 1)] + [(r, 1) for r in sorted(picked)])
        columns += [[(p, -1)] for p in range(players)]
        columns += [[(r, 1)] for r in range(players, nrows)]
        assert len(columns) >= 300
        optimum, _, _ = _assert_same_as_dense(nrows, columns)
        outcomes.add(optimum == 0)
    assert outcomes == {True, False}


def test_t_star_golden_at_the_oracle_caps(monkeypatch):
    """The 6-player, 14-resource instance: T* = 53/36 after 8 probes of 327
    candidates, with 334 columns at T*, and the primal there is the dense
    oracle's."""
    inst = gen_random(6, 14, (Fraction(1, 6), Fraction(1)), 0.8, seed=1, grid=12)
    res = lp_core.compute_t_star(inst)
    assert (res.t_star, res.probes, res.candidates_examined) == (Fraction(53, 36), 8, 327)
    witness = res.feasibility_witness
    assert witness.feasible and len(witness.model.columns) == 334
    calls = []

    def recorded(nrows, columns):
        calls.append((nrows, columns))
        return _integer_simplex(nrows, columns)

    monkeypatch.setattr(lp_core, "_phase1_simplex", recorded)
    assert lp_core.clp_feasible(inst, res.t_star).primal == witness.primal
    ((nrows, columns),) = calls
    _, x, _ = _assert_same_as_dense(nrows, columns)
    assert witness.primal == {
        cfg: w for cfg, w in zip(witness.model.columns, x) if w != 0
    }


# -- brute_force_opt ------------------------------------------------------------

def _check_against_exhaustive(inst):
    res = brute_force_opt(inst)
    opt, _ = exhaustive_opt(inst)
    assert res.opt_value == opt
    assert type(res.opt_value) is Fraction
    res.witness.validate(inst)
    assert res.witness.min_value(inst) == opt
    return res


def test_brute_force_opt_matches_exhaustive_on_randoms():
    rng = random.Random(17)
    for _ in range(60):
        _check_against_exhaustive(random_small_instance(rng))
    for seed in range(20):
        inst = gen_random(3, 7, (Fraction(1, 6), Fraction(1)), 0.7, seed=seed, grid=9)
        _check_against_exhaustive(inst)


def test_brute_force_opt_mixed_denominators():
    inst = Instance.build(
        ["p1", "p2"],
        {
            "a": Fraction(1, 6),
            "b": Fraction(4, 9),
            "c": Fraction(1),
            "d": Fraction(4, 9),
            "e": Fraction(1, 6),
        },
        {"p1": {"a", "b", "c"}, "p2": {"b", "c", "d", "e"}},
    )
    res = _check_against_exhaustive(inst)
    assert res.opt_value == Fraction(19, 18)
    assert res.witness.assignment["p2"] == frozenset({"b", "d", "e"})


# -- integer subset searches ----------------------------------------------------

def _off_grid_thresholds(rng, inst):
    """alpha * T for subset sums T and alphas with denominators 7, 11 or 13,
    kept when they are not multiples of 1/scale: each falls strictly between
    two integer sums of the value table."""
    sums = lp_core.subset_sum_candidates(inst)
    out = []
    while len(out) < 3:
        t = Fraction(rng.randint(1, 12), rng.choice((7, 11, 13))) * rng.choice(sums)
        if (t * inst.scale).denominator != 1:
            out.append(t)
    return out


def test_compute_m_matches_rational_oracle():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_small_instance(rng)
        for threshold in _off_grid_thresholds(rng, inst) + [Fraction(1), Fraction(1, 2)]:
            got = compute_m(inst, threshold, Fraction(1)).m
            want = max(
                [Fraction(0)]
                + [
                    rational_max_value_below(
                        {r: inst.resources[r] for r in inst.covets[p]}, threshold
                    )
                    for p in inst.players
                ]
            )
            assert got == want and type(got) is Fraction


def _random_costs(rng, ids):
    return {r: Fraction(rng.randint(0, 9), rng.choice((1, 2, 5, 7, 9))) for r in ids}


def test_min_cost_subset_matches_rational_oracle():
    """Same cost and the same subset as the Fraction search, zero costs and
    cost ties included; None exactly when the pool cannot reach."""
    rng = random.Random(41)
    reached = unreachable = 0
    for _ in range(80):
        inst = random_small_instance(rng)
        for p in inst.players:
            pool = sorted(inst.covets[p])
            costs = _random_costs(rng, pool)
            z_scale = math.lcm(*(c.denominator for c in costs.values()))
            for threshold in _off_grid_thresholds(rng, inst) + [inst.value(pool) + 1]:
                got = subsets.min_cost_subset_reaching(
                    {r: inst.int_values[r] for r in pool},
                    {r: int(c * z_scale) for r, c in costs.items()},
                    inst.int_threshold(threshold),
                )
                want = rational_min_cost_subset_reaching(
                    {r: inst.resources[r] for r in pool}, costs, threshold
                )
                if want is None:
                    unreachable += 1
                    assert got is None
                else:
                    reached += 1
                    assert (Fraction(got[0], z_scale), got[1]) == want
    assert reached > 100 and unreachable > 100


def _rational_verify_dual(inst, target, sol):
    """``verify_dual``'s two checks on Fraction sums: (feasible, violated)."""
    for p in inst.players:
        yp = sol.y[p]
        if yp == 0:
            continue
        for cfg in lp_core.minimal_configurations(inst, p, target):
            if sum((sol.z[r] for r in cfg.resources), Fraction(0)) < yp:
                return False, cfg
        pool = {r: inst.resources[r] for r in inst.covets[p]}
        found = rational_min_cost_subset_reaching(pool, {r: sol.z[r] for r in pool}, target)
        if found is not None and found[0] < yp:
            return False, lp_core.Configuration(p, found[1])
    return True, None


def test_verify_dual_matches_rational_checks():
    """Duals on the boundary: each y_p is the least z-weight of a minimal
    configuration of p (tight, feasible), or that plus 1/997 (violated by
    exactly that configuration), or 0."""
    rng = random.Random(43)
    outcomes = set()
    for _ in range(80):
        inst = random_small_instance(rng)
        target = rng.choice(_off_grid_thresholds(rng, inst) + [Fraction(1)])
        z = _random_costs(rng, inst.resource_ids)
        y = {}
        for p in inst.players:
            weights = [
                sum((z[r] for r in cfg.resources), Fraction(0))
                for cfg in lp_core.minimal_configurations(inst, p, target)
            ]
            y[p] = min(weights, default=Fraction(0)) + rng.choice(
                (Fraction(0), Fraction(0), Fraction(1, 997))
            )
            if rng.random() < 0.2:
                y[p] = Fraction(0)
        sol = lp_core.DualSolution(y, z)
        check = lp_core.verify_dual(inst, target, sol)
        assert (check.feasible, check.violated) == _rational_verify_dual(inst, target, sol)
        outcomes.add(check.feasible)
    assert outcomes == {True, False}
