"""The integer kernels for T* and OPT against their slow oracles.

``lp_core._phase1_simplex`` pivots a fraction-free integer tableau and
``brute_force_opt`` searches on integer-scaled values; both must return
exactly what the rational oracles in ``oracles.py`` return.
"""

import random
from fractions import Fraction

from conftest import random_small_instance
from oracles import dense_phase1_simplex, exhaustive_opt
from santagap import lp_core
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
