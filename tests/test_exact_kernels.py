"""The integer kernels for T* and OPT against their slow oracles.

``lp_core._phase1_simplex`` is a revised fraction-free simplex,
``compute_m`` and ``verify_dual`` search on the instance's integer value
table, and ``brute_force_opt`` scans disjoint configuration choices down
from T*; each must return exactly what the oracles in ``oracles.py``
return.
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from conftest import GAP_GOLDEN, random_small_instance
from oracles import (
    EXHAUSTIVE_RESOURCE_CAP,
    bisection_t_star,
    branch_and_bound_opt,
    brute_subset_sums,
    dense_phase1_simplex,
    exhaustive_opt,
    fat_count_dual,
    rational_max_value_below,
    rational_min_cost_subset_reaching,
)
from santagap import lp_core, subsets
from santagap.allocation_graph import compute_m
from santagap.instance import (
    Instance,
    brute_force_opt,
    gen_random,
    gen_two_value,
    load_instance,
    parse_instance,
)

_integer_simplex = lp_core._phase1_simplex


def _assert_same_as_dense(nrows, columns):
    """Both simplexes on the same (row indices, coefficients) columns."""
    got = _integer_simplex(nrows, columns)
    want = dense_phase1_simplex(nrows, columns)
    assert got == want, (nrows, columns)
    optimum, x, pi = got
    assert all(type(v) is Fraction for v in [optimum, *x, *pi])
    return got


# -- _phase1_simplex ------------------------------------------------------------

def test_simplex_matches_dense_on_every_t_star_probe(monkeypatch):
    """The simplex on every probe's columns matches the dense oracle.  A
    probe that the integral search answers runs the simplex on its model
    too, and the simplex agrees that it is feasible."""
    probes = []

    def checked(nrows, columns):
        probes.append(len(columns))
        return _assert_same_as_dense(nrows, columns)

    answered_integrally = 0
    real_clp_feasible = lp_core.clp_feasible

    def probe(inst, target):
        nonlocal answered_integrally
        before = len(probes)
        res = real_clp_feasible(inst, target)
        if len(probes) == before:
            answered_integrally += 1
            assert lp_core._simplex_feasible(inst, res.model).feasible
        assert len(probes) == before + 1
        return res

    monkeypatch.setattr(lp_core, "_phase1_simplex", checked)
    monkeypatch.setattr(lp_core, "clp_feasible", probe)
    shapes = [(3, 6, 0.7), (4, 7, 0.8), (5, 6, 0.9), (2, 8, 0.6)]
    # The descending scan probes few candidates per instance, so it takes
    # 15 seeds of these shapes to reach 72 probes.
    for seed in range(15):
        for players, resources, density in shapes:
            inst = gen_random(
                players, resources, (Fraction(1, 6), Fraction(1)), density,
                seed=seed, grid=12,
            )
            lp_core.compute_t_star(inst)
    assert len(probes) >= 72
    assert max(probes) > 40
    assert 0 < answered_integrally < len(probes)


def _sparse(col):
    """A column of (row, coefficient) pairs as (rows, coefficients)."""
    return tuple(zip(*col)) or ((), ())


def _random_columns(rng, nrows, ncols, density):
    """Columns as (row, coefficient) pairs; ``_sparse`` gives the simplex's form."""
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
        optimum, _, _ = _assert_same_as_dense(nrows, list(map(_sparse, columns)))
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
        _assert_same_as_dense(nrows, list(map(_sparse, dup)))


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
        optimum, _, _ = _assert_same_as_dense(nrows, list(map(_sparse, columns)))
        outcomes.add(optimum == 0)
    assert outcomes == {True, False}


def _clp_simplex_input(monkeypatch, inst, target):
    """The (nrows, columns) that ``_simplex_feasible`` gives the simplex
    for CLP(target), and the model: configuration columns, then a surplus
    per player row, then a slack per resource row."""
    calls = []

    def recorded(nrows, columns):
        calls.append((nrows, columns))
        return _integer_simplex(nrows, columns)

    model = lp_core.build_clp_model(inst, target)
    with monkeypatch.context() as patch:
        patch.setattr(lp_core, "_phase1_simplex", recorded)
        lp_core._simplex_feasible(inst, model)
    ((nrows, columns),) = calls
    return nrows, columns, model


def test_crash_starts_player_rows_on_disjoint_configurations(monkeypatch, shared_halves):
    """The crash puts each player row on its first configuration disjoint
    from those chosen before it.  Two players sharing four halves at T = 1
    start on {a, b} and {c, d}, an allocation, so the start is optimal:
    that 0/1 primal, every price 0.  On the 4 x 6 gap golden at T* = 1,
    p1, p2 and p3 start on F1, F2 and {s3, s4}, p4 keeps its artificial,
    and the pivots from there reach the half-and-half primal; both match
    the dense oracle."""
    nrows, columns, model = _clp_simplex_input(monkeypatch, shared_halves, Fraction(1))
    optimum, x, pi = _assert_same_as_dense(nrows, columns)
    chosen = {cfg for cfg, w in zip(model.columns, x) if w}
    assert optimum == 0 and set(pi) == {0} and set(x) == {0, 1}
    assert chosen == {
        lp_core.Configuration("p1", ("a", "b")),
        lp_core.Configuration("p2", ("c", "d")),
    }
    nrows, columns, model = _clp_simplex_input(
        monkeypatch, load_instance(GAP_GOLDEN), Fraction(1)
    )
    optimum, x, _ = _assert_same_as_dense(nrows, columns)
    assert optimum == 0 and set(x[: len(model.columns)]) == {Fraction(1, 2)}


def test_simplex_matches_dense_after_a_degenerate_pivot():
    """Row 0 starts on its unit column 1.  Column 0 enters with the
    largest weight and a step of 1/2, then column 2 with a degenerate
    pivot in row 1.  Bland's rule then enters column 1, where column 3
    has the largest weight, and the simplex ends on x = (1/2, 1/2, 1/2,
    0); Dantzig's rule there would end on (1/2, 0, 1/2, 1/4)."""
    columns = [((0, 1), (2, 2)), ((0,), (1,)), ((0, 2), (-1, 2)), ((0,), (2,))]
    half = Fraction(1, 2)
    assert _assert_same_as_dense(3, columns) == (0, [half, half, half, 0], [0, 0, 0])


def test_phase1_dual_is_a_dclp_certificate(monkeypatch):
    """The packing rows start on their slacks, so an infeasible probe's
    prices are y >= 0 (the surplus columns price out) and z >= 0 (the
    slacks do), with objective sum(y) - sum(z) equal to the phase-1
    optimum, and ``verify_dual`` accepts them.  A feasible probe that ran
    the simplex ended at optimum 0."""
    optima = []

    def recorded(nrows, columns):
        got = _integer_simplex(nrows, columns)
        optima.append(got[0])
        return got

    monkeypatch.setattr(lp_core, "_phase1_simplex", recorded)
    infeasible = 0
    for inst in _gap_random_instances(range(10)):
        for target in lp_core.subset_sum_candidates(inst)[-8:]:
            before = len(optima)
            res = lp_core.clp_feasible(inst, target)
            ran_simplex = len(optima) == before + 1
            assert ran_simplex or len(optima) == before
            if res.feasible:
                assert not ran_simplex or optima[-1] == 0
                continue
            infeasible += 1
            assert ran_simplex
            cert = res.infeasibility_certificate
            assert min(cert.y.values()) >= 0 and min(cert.z.values()) >= 0
            assert cert.objective == optima[-1] > 0
            check = lp_core.verify_dual(inst, target, cert)
            assert check.feasible and check.objective == cert.objective
    assert infeasible > 50


def _assert_integral(inst, res):
    """``res`` is feasible with a 0/1 primal: one column per player, each
    at weight 1, pairwise disjoint."""
    assert res.feasible
    primal = res.primal
    assert set(primal.values()) <= {1}
    assert sorted(cfg.owner for cfg in primal) == sorted(inst.players)
    held = [r for cfg in primal for r in cfg.resources]
    assert len(held) == len(set(held))


def test_t_star_golden_at_the_oracle_caps(monkeypatch):
    """The 6-player, 14-resource instance: T* = 53/36 after 3 probes of
    327 candidates, with 334 columns at T*.  The integral search gives up
    at T* (``test_integral_search_past_its_budget_falls_back_to_the_simplex``),
    so the witness is the simplex's primal, fractional on 16 columns, and
    the simplex's pivots there are the dense oracle's."""
    calls = []

    def recorded(nrows, columns):
        calls.append((nrows, columns))
        return _integer_simplex(nrows, columns)

    monkeypatch.setattr(lp_core, "_phase1_simplex", recorded)
    inst = _six_by_fourteen()
    res = lp_core.compute_t_star(inst)
    assert (res.t_star, res.probes, res.candidates_examined) == (Fraction(53, 36), 3, 327)
    witness = res.feasibility_witness
    assert len(witness.model.columns) == 334
    nrows, columns = calls[-1]
    _, x, _ = _assert_same_as_dense(nrows, columns)
    assert witness.primal == {
        cfg: w for cfg, w in zip(witness.model.columns, x) if w != 0
    }
    assert len(witness.primal) == 16 and Fraction(1, 16) in witness.primal.values()


# -- clp_feasible: the integral search before the simplex ----------------------

def _dense_clp_feasible(model):
    """CLP feasibility of ``model`` by the dense oracle: a player row and a
    resource row per configuration column, a surplus per player row and a
    slack per resource row, feasible exactly when the phase-1 optimum is 0."""
    rows = {x: i for i, x in enumerate((*model.players, *model.resource_ids))}
    columns = [
        [(rows[cfg.owner], 1)] + [(rows[r], 1) for r in cfg.resources]
        for cfg in model.columns
    ]
    columns += [[(rows[p], -1)] for p in model.players]
    columns += [[(rows[r], 1)] for r in model.resource_ids]
    optimum, _, _ = dense_phase1_simplex(len(rows), list(map(_sparse, columns)))
    return optimum == 0


def _count_simplex_calls(monkeypatch):
    calls = []
    simplex_feasible = lp_core._simplex_feasible

    def recorded(inst, model):
        calls.append(model.target)
        return simplex_feasible(inst, model)

    monkeypatch.setattr(lp_core, "_simplex_feasible", recorded)
    return calls


def test_clp_feasible_matches_the_dense_oracle_at_every_candidate(monkeypatch):
    """On the gap-random shapes, on two-value instances and on the gap
    instances, ``clp_feasible`` is feasible exactly where the dense
    oracle's phase-1 optimum is 0, at every T* candidate.  The integral
    search answers many feasible probes and the simplex decides every
    infeasible one.  Random instances rarely have a feasible candidate
    with no integral choice; the gap instances do, between OPT and T*."""
    calls = _count_simplex_calls(monkeypatch)
    integral = simplex_feasible = infeasible = 0
    two_value = ((3, Fraction(1, 4), 2, 5, 0.8), (5, Fraction(1, 3), 3, 7, 0.5))
    instances = [
        *_gap_random_instances(range(4)),
        *(
            gen_two_value(
                players, eps, {"num_fat": fat, "num_thin": thin, "density": density},
                seed,
            )
            for players, eps, fat, thin, density in two_value
            for seed in range(8)
        ),
        *(parse_instance(doc) for doc in WINDOW_GAPS.values()),
        load_instance(GAP_GOLDEN),
    ]
    for inst in instances:
        for target in lp_core.subset_sum_candidates(inst):
            before = len(calls)
            res = lp_core.clp_feasible(inst, target)
            assert res.feasible == _dense_clp_feasible(res.model)
            if not res.feasible:
                infeasible += 1
                assert len(calls) == before + 1
            elif len(calls) == before:
                integral += 1
                _assert_integral(inst, res)
            else:
                simplex_feasible += 1
    assert integral > 80 and simplex_feasible >= 8 and infeasible > 200


def test_gap_golden_t_star_runs_the_simplex(monkeypatch):
    """The 4 x 6 gap golden has OPT = 1/2 < T* = 1, so at T* no integral
    choice exists: the probe runs the simplex, and its witness is the
    fractional one, each player half on a fat item and half on a thin
    pair."""
    inst = load_instance(GAP_GOLDEN)
    calls = _count_simplex_calls(monkeypatch)
    res = lp_core.compute_t_star(inst)
    assert res.t_star == 1 and calls[-1] == 1
    primal = res.feasibility_witness.primal
    assert set(primal.values()) == {Fraction(1, 2)}
    assert sorted(len(cfg.resources) for cfg in primal) == [1] * 4 + [2] * 4


def test_integral_search_past_its_budget_falls_back_to_the_simplex(monkeypatch):
    """At T* of the 6 x 14 instance the first disjoint choice takes 254
    nodes, past the probe's budget of 20, its row count.  The search gives
    up, and the simplex answers feasible, as the dense oracle does."""
    inst = _six_by_fourteen()
    target = Fraction(53, 36)
    model = lp_core.build_clp_model(inst, target)
    parts = model.player_columns()
    bits = inst.resource_bits
    choice, nodes = subsets.first_disjoint_choice(parts, bits)
    budget = len(model.players) + len(model.resource_ids)
    assert choice is not None and (nodes, budget) == (254, 20)
    with pytest.raises(subsets.BudgetSpent):
        subsets.first_disjoint_choice(parts, bits, budget=budget)
    assert lp_core._integral_primal(model, bits) is None
    calls = _count_simplex_calls(monkeypatch)
    res = lp_core.clp_feasible(inst, target)
    assert calls == [target]
    assert res.feasible and _dense_clp_feasible(res.model)


def _config(owner, mask):
    """The configuration of ``owner`` on the resources r<b> of the bits b
    of ``mask``."""
    return lp_core.Configuration(
        owner, tuple(f"r{b}" for b in range(mask.bit_length()) if mask >> b & 1)
    )


def _bit_table(parts, rng=None):
    """One bit per resource of ``parts``: by sorted id, or in an order
    shuffled by ``rng``."""
    ids = sorted({r for part in parts for cfg in part for r in cfg.resources})
    if rng is not None:
        rng.shuffle(ids)
    return {rid: 1 << i for i, rid in enumerate(ids)}


def _random_parts(rng, configs, masks, sizes):
    """Random parts of random configurations: one part per player, each
    configuration on the bits of a mask drawn from ``masks``."""
    return [
        [_config(f"p{k}", rng.randrange(*masks)) for _ in range(rng.randint(*configs))]
        for k in range(rng.randint(*sizes))
    ]


def test_budgeted_disjoint_choice_gives_up_apart_from_a_proof(monkeypatch):
    """Within its budget a search returns what the unbudgeted one returns,
    a choice or the None that proves there is none; past it, it raises
    ``BudgetSpent``.  The node cap still raises ``CapError`` first."""
    rng = random.Random(9)
    found = exhausted = gave_up = 0
    for _ in range(400):
        parts = _random_parts(rng, (0, 5), (1, 256), (1, 6))
        bits = _bit_table(parts)
        want = subsets.first_disjoint_choice(parts, bits, 5)
        spent = want[1] - 5
        budget = rng.randint(1, 2 * spent)
        if budget >= spent:
            assert subsets.first_disjoint_choice(parts, bits, 5, budget=budget) == want
            found += want[0] is not None
            exhausted += want[0] is None
        else:
            with pytest.raises(subsets.BudgetSpent):
                subsets.first_disjoint_choice(parts, bits, 5, budget=budget)
            gave_up += 1
    assert min(found, exhausted, gave_up) > 30
    monkeypatch.setattr(subsets, "DEFAULT_NODE_CAP", 3)
    singles = [[_config(p, 1 << b)] for b, p in enumerate(["p0", "p1", "p2"])]
    bits = _bit_table(singles)
    with pytest.raises(subsets.CapError):
        subsets.first_disjoint_choice(singles, bits, budget=10)
    with pytest.raises(subsets.BudgetSpent):
        subsets.first_disjoint_choice(singles, bits, budget=2)


def test_disjoint_choice_returns_the_parts_own_configurations():
    """The choice is the parts' own objects: the first pairwise-disjoint
    one in the order of ``itertools.product``.  Renaming every resource id
    and giving the new ids their bits in a shuffled order changes neither
    the choice nor the node count, and parts that hold the empty
    configuration, OPT's level t = 0, are answered."""
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        parts = _random_parts(rng, (0, 5), (0, 64), (0, 5))
        choice, nodes = subsets.first_disjoint_choice(parts, _bit_table(parts))
        renamed = [
            [lp_core.Configuration(c.owner, tuple(f"x{5 - int(r[1:])}" for r in c.resources))
             for c in part]
            for part in parts
        ]
        again, again_nodes = subsets.first_disjoint_choice(
            renamed, _bit_table(renamed, rng)
        )
        assert again_nodes == nodes and (again is None) == (choice is None)
        first = next(
            (list(c) for c in itertools.product(*parts)
             if len({r for x in c for r in x.resources}) == sum(len(x.resources) for x in c)),
            None,
        )
        assert choice == first
        if choice is None:
            continue
        found += 1
        assert all(any(c is x for x in part) for c, part in zip(choice, parts))
        assert [part.index(c) for part, c in zip(parts, choice)] == [
            part.index(c) for part, c in zip(renamed, again)
        ]
    assert found > 100
    empty = [[_config(p, 0)] for p in ["p0", "p1", "p2"]]
    choice, nodes = subsets.first_disjoint_choice(empty, {})
    assert choice == [c for [c] in empty] and nodes == 4
    assert all(c is x for c, [x] in zip(choice, empty))


# -- compute_t_star: the capped-value filter ------------------------------------

def _gap_random_instances(seeds):
    """The benchmark's gap-random shapes: 4 x 7 at density 0.8 and 5 x 6 at
    0.9, values on a grid of 4 in [1/6, 1]."""
    for seed in seeds:
        for players, resources, density in ((4, 7, 0.8), (5, 6, 0.9)):
            yield gen_random(
                players, resources, (Fraction(1, 6), Fraction(1)), density,
                seed=seed, grid=4,
            )


def _six_by_fourteen():
    return gen_random(6, 14, (Fraction(1, 6), Fraction(1)), 0.8, seed=1, grid=12)


def _capped_value_dual(inst, target, group):
    """y = 1 on ``group``, z_r = min(V_r, t) / t on the resources it covets,
    with V the integer value table and t = int_threshold(target)."""
    t = inst.int_threshold(target)
    coveted = set().union(*(inst.covets[p] for p in group))
    y = {p: Fraction(int(p in group)) for p in inst.players}
    z = {
        r: Fraction(min(v, t), t) if r in coveted else Fraction(0)
        for r, v in inst.int_values.items()
    }
    return lp_core.DualSolution(y, z)


def _assert_rejection_certified(inst, target):
    """When the filter rejects ``target``, the capped-value dual of the set
    it names is DCLP-feasible with positive objective.  Returns whether it
    rejected."""
    group = oracles.capped_value_violation(inst, target)
    if group is None:
        return False
    assert len(group) == 1 or group == inst.players
    check = lp_core.verify_dual(inst, target, _capped_value_dual(inst, target, group))
    assert check.feasible and check.objective > 0, (inst.serialize(), target, group)
    return True


def test_capped_value_filter_is_sound_on_every_candidate():
    """Every rejected candidate carries a verified dual certificate, and no
    candidate where CLP is feasible is rejected."""
    rng = random.Random(61)
    instances = list(_gap_random_instances(range(8)))
    instances += [random_small_instance(rng) for _ in range(20)]
    verdicts = set()
    for inst in instances:
        for target in lp_core.subset_sum_candidates(inst):
            rejected = _assert_rejection_certified(inst, target)
            feasible = lp_core.clp_feasible(inst, target).feasible
            assert not (rejected and feasible), (inst.serialize(), target)
            verdicts.add((rejected, feasible))
    # Both kinds of infeasible candidate occur: ruled out, and left to the LP.
    assert verdicts == {(True, False), (False, False), (False, True)}


def test_capped_value_filter_is_sound_at_the_oracle_caps():
    """On the 6 x 14 instance CLP is feasible exactly up to T* (monotone in
    T), so no candidate up to T* may be rejected; every candidate rejected
    above it carries a verified dual certificate."""
    inst = _six_by_fourteen()
    t_star = Fraction(53, 36)
    rejected = 0
    for target in lp_core.subset_sum_candidates(inst):
        if _assert_rejection_certified(inst, target):
            assert target > t_star
            rejected += 1
    assert rejected > 100


def test_capped_value_certificate_between_candidates():
    """Between candidates the certificate is taken at t = int_threshold(T):
    two players sharing three unit resources at T = 3/2 are ruled out
    (capped sum 3 < 2 * 2), and z_r = 1/2 proves it while z_r = 2/3 has
    objective 0.  Every rejected midpoint of adjacent candidates on small
    random instances is certified the same way."""
    inst = Instance.build(
        ["p", "q"], {r: Fraction(1) for r in "abc"}, {"p": set("abc"), "q": set("abc")}
    )
    assert _assert_rejection_certified(inst, Fraction(3, 2))
    naive = lp_core.DualSolution(
        {"p": Fraction(1), "q": Fraction(1)}, {r: Fraction(2, 3) for r in "abc"}
    )
    assert lp_core.verify_dual(inst, Fraction(3, 2), naive).objective == 0
    rng = random.Random(67)
    rejected = 0
    for _ in range(20):
        inst = random_small_instance(rng)
        candidates = lp_core.subset_sum_candidates(inst)
        for lo, hi in zip(candidates, candidates[1:]):
            rejected += _assert_rejection_certified(inst, (lo + hi) / 2)
    assert rejected > 0


def _assert_capped_bound(inst):
    """The oracle ``capped_value_violation`` passes the target s / scale
    exactly when s <= ``capped_value_bound``: on every candidate sum, on
    the bound itself and on the integer above it.  Returns the verdicts on
    the candidates."""
    bound = lp_core.capped_value_bound(inst)

    def passes(s):
        return oracles.capped_value_violation(inst, Fraction(s, inst.scale)) is None

    verdicts = set()
    for s in lp_core.int_subset_sums(inst):
        verdicts.add(passes(s))
        assert passes(s) == (s <= bound), (inst.serialize(), s, bound)
    assert passes(bound) and not passes(bound + 1), (inst.serialize(), bound)
    return verdicts


def test_capped_value_bound_is_the_filter_on_seeded_suites():
    """On the gap-random shapes, small random instances and the 6 x 14
    instance, the closed form passes exactly the candidates the filter
    does; on most of them it cuts the candidate list."""
    rng = random.Random(73)
    instances = [*_gap_random_instances(range(40)), _six_by_fourteen()]
    instances += [random_small_instance(rng) for _ in range(40)]
    cut = 0
    for inst in instances:
        cut += _assert_capped_bound(inst) == {True, False}
    assert cut > len(instances) // 2


def test_capped_value_bound_edge_cases():
    """Pinned bounds, each the filter's and giving the bisection's T*:
    a player with an empty covet list (bound 0, T* = 0); a single player
    (its total coveted value, 3 halves); more players than coveted
    resources (0); and two players on values 1, 1, 10, where the capped
    sum of the two smallest values binds (t = 2: 1 + 1 + 2 = 2 * 2)."""
    half = Fraction(1, 2)
    cases = [
        (Instance.build(["p", "q"], {"a": 1, "b": half}, {"p": {"a", "b"}}), 0),
        (Instance.build(["p"], {"a": 1, "b": half}, {"p": {"a", "b"}}), 3),
        (Instance.build(
            ["p", "q", "s"], {"a": 1, "b": 1},
            {"p": {"a", "b"}, "q": {"a", "b"}, "s": {"a", "b"}}), 0),
        (Instance.build(
            ["p", "q"], {"a": 1, "b": 1, "c": 10},
            {"p": {"a", "b", "c"}, "q": {"a", "b", "c"}}), 2),
    ]
    for inst, bound in cases:
        assert lp_core.capped_value_bound(inst) == bound
        _assert_capped_bound(inst)
        _assert_same_as_bisection(inst)
    with pytest.raises(ValueError, match="at least one player"):
        lp_core.capped_value_bound(Instance.build([], {"a": 1}, {}))


def test_t_star_matches_plain_bisection():
    """Same T*, candidate count and witness LP as the bisection that probes
    every step with the LP, in no more LP solves."""
    rng = random.Random(67)
    instances = list(_gap_random_instances(range(100, 115)))
    instances += [random_small_instance(rng) for _ in range(30)]
    instances.append(_six_by_fourteen())
    fewer = 0
    for inst in instances:
        got, want = _assert_same_as_bisection(inst)
        fewer += got.probes < want.probes
    assert fewer > len(instances) // 2


def _assert_same_as_bisection(inst):
    got, want = lp_core.compute_t_star(inst), bisection_t_star(inst)
    assert (got.t_star, got.candidates_examined) == (want.t_star, want.candidates_examined)
    got_w, want_w = got.feasibility_witness, want.feasibility_witness
    assert (got_w.feasible, got_w.primal) == (want_w.feasible, want_w.primal)
    assert got_w.model.columns == want_w.model.columns
    assert got.probes <= want.probes, inst.serialize()
    return got, want


def test_descending_scan_matches_bisection_on_seeded_suites():
    """The same on two-value instances (fat and thin items, the shape of
    the two-value and four-phase workloads) and on the simplex-oracle
    shapes on a grid of 12: T*, candidate count and witness LP are the
    bisection's, in no more LP probes."""
    instances = [
        gen_two_value(players, eps, {"density": density}, seed)
        for seed in range(6)
        for players, eps, density in ((2, Fraction(1, 5), 0.8), (3, Fraction(1, 4), 0.6))
    ]
    instances += [
        gen_random(players, resources, (Fraction(1, 6), Fraction(1)), density,
                   seed=seed, grid=12)
        for seed in range(4)
        for players, resources, density in ((3, 6, 0.7), (2, 8, 0.6), (4, 8, 0.5))
    ]
    for inst in instances:
        _assert_same_as_bisection(inst)


def test_reused_certificates_rule_out_only_infeasible_candidates(monkeypatch):
    """Every candidate at which a kept Farkas certificate passes
    ``verify_dual`` lies above T* and is infeasible by ``clp_feasible``,
    and no LP is built there."""
    checks = []
    verify = lp_core.verify_dual

    def recorded(inst, target, sol):
        checks.append((target, verify(inst, target, sol)))
        return checks[-1][1]

    probed = []
    clp = lp_core.clp_feasible

    def counted(inst, target):
        probed.append(target)
        return clp(inst, target)

    monkeypatch.setattr(lp_core, "verify_dual", recorded)
    monkeypatch.setattr(lp_core, "clp_feasible", counted)
    rng = random.Random(71)
    instances = [*_gap_random_instances(range(40)), _six_by_fourteen()]
    instances += [random_small_instance(rng) for _ in range(30)]
    instances += [
        gen_random(players, resources, (Fraction(1, 6), Fraction(1)), density,
                   seed=seed, grid=12)
        for seed in range(30)
        for players, resources, density in ((3, 6, 0.7), (6, 10, 0.6), (2, 8, 0.6))
    ]
    ruled_out = []
    for inst in instances:
        checks.clear()
        probed.clear()
        t_star = lp_core.compute_t_star(inst).t_star
        for target, check in checks:
            if check.feasible:
                assert check.objective > 0 and target > t_star
                assert target not in probed
                ruled_out.append((inst, target))
    monkeypatch.undo()
    for inst, target in ruled_out:
        assert not lp_core.clp_feasible(inst, target).feasible, (inst.serialize(), target)
    assert len(ruled_out) > 20


# -- compute_t_star: the fat-count dual -----------------------------------------

def _up_to_two(grid, seeds):
    """``gen_random`` shapes with values on a grid in [1/6, 2]."""
    return [
        gen_random(players, resources, (Fraction(1, 6), Fraction(2)), density,
                   seed=seed, grid=grid)
        for seed in seeds
        for players, resources, density in ((3, 6, 0.7), (4, 7, 0.6), (5, 8, 0.5))
    ]


FAT_COUNT_SUITES = {
    "gap-random": lambda: list(_gap_random_instances(range(30))),
    "grid-3": lambda: _up_to_two(3, range(12)),
    "grid-5": lambda: _up_to_two(5, range(12)),
    "grid-12": lambda: _up_to_two(12, range(8)),
    "two-value": lambda: [
        gen_two_value(players, eps, {"density": density}, seed)
        for seed in range(10)
        for players, eps, density in ((2, Fraction(1, 5), 0.8), (3, Fraction(1, 4), 0.6))
    ],
    "random-small": lambda: [random_small_instance(random.Random(79)) for _ in range(40)],
}


def _scanned_targets(monkeypatch, inst):
    """The targets that ``compute_t_star`` hands to ``verify_dual`` or
    ``clp_feasible``."""
    targets = set()
    with monkeypatch.context() as patch:
        for name in ("verify_dual", "clp_feasible"):
            def recorded(inst, target, *rest, _real=getattr(lp_core, name)):
                targets.add(target)
                return _real(inst, target, *rest)

            patch.setattr(lp_core, name, recorded)
        lp_core.compute_t_star(inst)
    return targets


@pytest.mark.parametrize("suite", FAT_COUNT_SUITES)
def test_fat_count_dual_certifies_every_ruled_out_candidate(suite, monkeypatch):
    """At every T* candidate the dual built from the definition is
    DCLP-feasible, and ``fat_count_violation`` rules the candidate out
    exactly where that dual's objective is positive; each candidate it
    rules out is infeasible by ``clp_feasible``.  The scan hands none of
    them to ``verify_dual`` or ``clp_feasible``, and keeps T*, the
    candidate count and the witness LP of the bisection."""
    ruled_out = passed = 0
    for inst in FAT_COUNT_SUITES[suite]():
        scanned = _scanned_targets(monkeypatch, inst)
        for s in lp_core.int_subset_sums(inst):
            target = Fraction(s, inst.scale)
            dual = fat_count_dual(inst, target)
            check = lp_core.verify_dual(inst, target, dual)
            assert check.feasible, (inst.serialize(), target)
            ruled = lp_core.fat_count_violation(inst, s)
            assert ruled == (dual.objective > 0), (inst.serialize(), target)
            if ruled:
                ruled_out += 1
                assert target not in scanned
                assert not lp_core.clp_feasible(inst, target).feasible
            else:
                passed += 1
        _assert_same_as_bisection(inst)
    assert ruled_out > 0 and passed > 0


def test_fat_count_dual_is_not_monotone(monkeypatch):
    """Pinned: the dual rules out T = 2 but not the higher 15/7, so it is
    no bound on the candidates and must be asked at each of them.  At 2
    the fat resources are r2 and r3, two for three players, and no list's
    values below 2 reach 2.  At 15/7 none is fat, and every player
    reaches it with two resources: (3 - 0) * 2 = 6, not above the 6 thin
    ones.  The scan starts at 15/7, the capped-value bound, and probes
    it, rules out 2 with no LP and probes T* = 29/21, as the bisection
    finds."""
    inst = Instance.build(
        ["p1", "p2", "p3"],
        {
            "r1": Fraction(1, 7), "r2": 2, "r3": 2,
            "r4": Fraction(29, 21), "r5": Fraction(16, 21), "r6": Fraction(1, 7),
        },
        {"p1": {"r1", "r2"}, "p2": {"r3", "r5", "r6"}, "p3": {"r2", "r3", "r4"}},
    )
    assert lp_core.fat_count_violation(inst, inst.int_threshold(Fraction(2)))
    assert not lp_core.fat_count_violation(inst, inst.int_threshold(Fraction(15, 7)))
    for target, objective in ((Fraction(2), 1), (Fraction(15, 7), 0)):
        assert fat_count_dual(inst, target).objective == objective
    assert not lp_core.clp_feasible(inst, Fraction(15, 7)).feasible
    assert lp_core.capped_value_bound(inst) == inst.int_threshold(Fraction(15, 7))
    assert _scanned_targets(monkeypatch, inst) == {Fraction(15, 7), Fraction(29, 21)}
    got, _ = _assert_same_as_bisection(inst)
    assert (got.t_star, got.probes) == (Fraction(29, 21), 2)


def test_fat_count_dual_rules_out_the_16x30_candidates():
    """``gen_random(16, 30, (1/6, 1), 0.5, seed=1, grid=12)``: T* = 1 of
    807 candidates in 1 probe (3 with the other two certificates alone)."""
    inst = gen_random(16, 30, (Fraction(1, 6), Fraction(1)), 0.5, seed=1, grid=12)
    res = lp_core.compute_t_star(inst)
    assert (res.t_star, res.candidates_examined, res.probes) == (1, 807, 1)


def test_fat_count_dual_needs_a_positive_threshold():
    """At t <= 0 the empty set reaches t, so kappa = 0, no dual with y = 1
    is feasible, and the check rules nothing out."""
    inst = Instance.build(["p", "q"], {"a": 1}, {"p": {"a"}, "q": {"a"}})
    assert lp_core.fat_count_violation(inst, 1)
    assert not lp_core.fat_count_violation(inst, 0)
    assert not lp_core.fat_count_violation(inst, -1)


# -- brute_force_opt ------------------------------------------------------------

def _opt(inst):
    """The OPT scan from the instance's T*."""
    return brute_force_opt(inst, lp_core.compute_t_star(inst))


def _check_against_exhaustive(inst):
    res = _opt(inst)
    opt, _ = exhaustive_opt(inst)
    assert res.opt_value == opt == branch_and_bound_opt(inst).opt_value
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


def _mixed_denominators():
    return Instance.build(
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


def test_brute_force_opt_mixed_denominators():
    res = _check_against_exhaustive(_mixed_denominators())
    assert res.opt_value == Fraction(19, 18)
    assert res.witness.assignment == {"p1": ("a", "c"), "p2": ("b", "d", "e")}


def test_brute_force_opt_stops_at_t_star():
    """Bounded by T*, the branch-and-bound oracle returns its exhaustive
    search's OPT and witness, and explores strictly fewer nodes wherever
    OPT reaches T* (the exhaustive search then goes on to prove
    optimality).  The scan, which starts at T*, gives the same OPT."""
    rng = random.Random(23)
    instances = [*_gap_random_instances(range(10)), _mixed_denominators()]
    instances += [random_small_instance(rng) for _ in range(30)]
    reached = 0
    for inst in instances:
        t_star = lp_core.compute_t_star(inst).t_star
        want = branch_and_bound_opt(inst)
        got = branch_and_bound_opt(inst, upper_bound=t_star)
        assert got == want and got.witness == want.witness, inst
        assert _opt(inst).opt_value == want.opt_value, inst
        if want.opt_value == t_star:
            reached += 1
            assert got.nodes_explored < want.nodes_explored, inst
        else:
            assert got.nodes_explored == want.nodes_explored, inst
    assert reached > len(instances) // 2


def test_brute_force_opt_bound_never_reached():
    """A bound above OPT (T* + 1) is never reached: the oracle's search is
    the exhaustive one, node for node."""
    rng = random.Random(29)
    for inst in [_mixed_denominators(), *(random_small_instance(rng) for _ in range(10))]:
        want = branch_and_bound_opt(inst)
        got = branch_and_bound_opt(inst, upper_bound=lp_core.compute_t_star(inst).t_star + 1)
        assert got == want and got.witness == want.witness
        assert got.nodes_explored == want.nodes_explored


def test_brute_force_opt_beaten_bound_raises():
    """OPT = 19/18; the oracle finds 11/18 first, above 1/2, and 19/18
    above 1 (no allocation is worth exactly 1 on the way)."""
    inst = _mixed_denominators()
    for bound in (Fraction(1, 2), Fraction(1)):
        with pytest.raises(AssertionError, match="beats the upper bound"):
            branch_and_bound_opt(inst, upper_bound=bound)


def test_brute_force_opt_from_the_t_star_witness():
    """On the gap-random shapes the scan gives the oracle's OPT, and
    ``exhaustive_opt``'s (0.6 s an instance) on the first ten, with a
    witness that validates and reaches it.  A 0/1 T* witness is read off
    with no search (0 nodes): the bundles are its support, one weight-1
    column per player.  With a fractional one the scan searches.  All 80
    gap-random instances have 0/1 witnesses, so the 4 x 6 gap golden is
    the fractional case."""
    integral = fractional = 0
    instances = [*_gap_random_instances(range(40)), load_instance(GAP_GOLDEN)]
    for k, inst in enumerate(instances):
        res = lp_core.compute_t_star(inst)
        got = brute_force_opt(inst, res)
        want = branch_and_bound_opt(inst, upper_bound=res.t_star).opt_value
        if k < 10:
            assert exhaustive_opt(inst)[0] == want
        assert got.opt_value == want
        got.witness.validate(inst)
        assert got.witness.min_value(inst) == want
        primal = res.feasibility_witness.primal
        if any(w != 1 for w in primal.values()):
            fractional += 1
        else:
            integral += 1
            assert want == res.t_star
            assert got.nodes_explored == 0
            assert {
                lp_core.Configuration(p, bundle)
                for p, bundle in got.witness.assignment.items()
            } == set(primal)
    assert (integral, fractional) == (80, 1)
    assert got.nodes_explored > 0  # the 4 x 6 golden, last, searched


def test_brute_force_opt_golden_at_the_oracle_caps():
    """The 6 x 14 instance: its T* witness is fractional, but its support,
    taken first, holds a disjoint choice, so the scan takes 7 nodes.  The
    oracle, bounded by T* = 53/36 only, takes 699,402 (with no bound,
    12.6 M, too slow here)."""
    inst = _six_by_fourteen()
    res = _opt(inst)
    assert (res.opt_value, res.nodes_explored) == (Fraction(53, 36), 7)
    res.witness.validate(inst)
    assert res.witness.min_value(inst) == Fraction(53, 36)
    want = branch_and_bound_opt(inst, upper_bound=Fraction(53, 36))
    assert (want.opt_value, want.nodes_explored) == (Fraction(53, 36), 699_402)


# Cyclic-window instances: each player covets each fat item (value 1) with
# probability 1/2, plus a window of 2-4 consecutive thin items on a cycle.
# Each has OPT < T*, so the scan must exhaust its search at T* and at every
# candidate between OPT and T*.  The 8 x 18 ones (5 fat items, 13 thin
# ones of value 1/3) are beyond the branch-and-bound oracle's guard of 6
# players and 14 resources, which the test lifts for them.
WINDOW_GAPS = {
    "window-4x7-halves": """\
players p1 p2 p3 p4
resource F1 1
resource s1 1/2
resource s2 1/2
resource s3 1/2
resource s4 1/2
resource s5 1/2
resource s6 1/2
covets p1 F1 s4 s5 s6
covets p2 F1 s1 s2 s3
covets p3 F1 s5 s6
covets p4 F1 s1 s2
""",
    "window-4x7-thirds": """\
players p1 p2 p3 p4
resource F1 1
resource s1 1/3
resource s2 1/3
resource s3 1/3
resource s4 1/3
resource s5 1/3
resource s6 1/3
covets p1 s1 s2 s3
covets p2 F1 s4 s5
covets p3 F1 s4 s5 s6
covets p4 F1 s2 s3
""",
    "window-4x7-split": """\
players p1 p2 p3 p4
resource F1 1
resource s1 1/2
resource s2 1/2
resource s3 1/2
resource s4 1/2
resource s5 1/2
resource s6 1/2
covets p1 F1 s1 s2
covets p2 s4 s5 s6
covets p3 s1 s2 s3
covets p4 F1 s4 s5
""",
    "window-6x12": """\
players p1 p2 p3 p4 p5 p6
resource F1 1
resource s1 1/2
resource s2 1/2
resource s3 1/2
resource s4 1/2
resource s5 1/2
resource s6 1/2
resource s7 1/2
resource s8 1/2
resource s9 1/2
resource s10 1/2
resource s11 1/2
covets p1 F1 s2 s3 s4
covets p2 s6 s7 s8
covets p3 F1 s1 s11 s2 s3
covets p4 F1 s2 s3 s4
covets p5 F1 s10 s7 s8 s9
covets p6 F1 s7 s8
""",
    "window-8x18-a": """\
players p1 p2 p3 p4 p5 p6 p7 p8
resource F1 1
resource F2 1
resource F3 1
resource F4 1
resource F5 1
resource s1 1/3
resource s2 1/3
resource s3 1/3
resource s4 1/3
resource s5 1/3
resource s6 1/3
resource s7 1/3
resource s8 1/3
resource s9 1/3
resource s10 1/3
resource s11 1/3
resource s12 1/3
resource s13 1/3
covets p1 F1 F2 F5 s9 s10
covets p2 F2 F4 s3 s4
covets p3 F1 F2 F4 F5 s3 s4
covets p4 F4 F5 s13 s1 s2 s3
covets p5 F1 s12 s13 s1 s2
covets p6 F1 F4 F5 s7 s8 s9 s10
covets p7 F3 F4 F5 s4 s5 s6
covets p8 F1 F4 s9 s10 s11
""",
    "window-8x18-b": """\
players p1 p2 p3 p4 p5 p6 p7 p8
resource F1 1
resource F2 1
resource F3 1
resource F4 1
resource F5 1
resource s1 1/3
resource s2 1/3
resource s3 1/3
resource s4 1/3
resource s5 1/3
resource s6 1/3
resource s7 1/3
resource s8 1/3
resource s9 1/3
resource s10 1/3
resource s11 1/3
resource s12 1/3
resource s13 1/3
covets p1 F1 F3 F4 F5 s3 s4
covets p2 F4 s4 s5 s6 s7
covets p3 F5 s3 s4 s5 s6
covets p4 F1 F2 F3 s4 s5 s6
covets p5 F1 F4 s10 s11 s12 s13
covets p6 F1 F4 F5 s12 s13 s1
covets p7 F3 F5 s10 s11
covets p8 F1 F5 s10 s11 s12
""",
}


# T*, OPT and the scan's nodes.
BELOW_T_STAR = {
    "window-4x7-halves": (Fraction(1), Fraction(1, 2), 34),
    "window-4x7-thirds": (Fraction(2, 3), Fraction(1, 3), 18),
    "window-4x7-split": (Fraction(1), Fraction(1, 2), 11),
    "window-6x12": (Fraction(1), Fraction(1, 2), 75),
    "gap-4x6": (Fraction(1), Fraction(1, 2), 12),
    "window-8x18-a": (Fraction(1), Fraction(2, 3), 233),
    "window-8x18-b": (Fraction(1), Fraction(2, 3), 475),
}


@pytest.mark.parametrize("name", BELOW_T_STAR)
def test_opt_below_t_star(name, monkeypatch):
    """OPT < T*: the scan's OPT is the oracle's, and ``exhaustive_opt``'s
    up to 7 resources; its witness validates and reaches OPT; and its node
    count, which the failing searches above OPT make up, is pinned.  The
    oracle, bounded by T*, takes 46,090 and 26,494 nodes on the 8 x 18
    instances."""
    monkeypatch.setattr(oracles, "BRANCH_AND_BOUND_PLAYER_CAP", 8)
    monkeypatch.setattr(oracles, "BRANCH_AND_BOUND_RESOURCE_CAP", 18)
    t_star, opt, nodes = BELOW_T_STAR[name]
    inst = load_instance(GAP_GOLDEN) if name == "gap-4x6" else parse_instance(WINDOW_GAPS[name])
    res = lp_core.compute_t_star(inst)
    got = brute_force_opt(inst, res)
    assert (res.t_star, got.opt_value, got.nodes_explored) == (t_star, opt, nodes)
    assert branch_and_bound_opt(inst, upper_bound=t_star).opt_value == opt
    if len(inst.resources) <= EXHAUSTIVE_RESOURCE_CAP:
        assert exhaustive_opt(inst)[0] == opt
    got.witness.validate(inst)
    assert got.witness.min_value(inst) == opt


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


def _subset_sum_suite():
    """Seeded ``gen_random`` instances on grids of 4 and 12, seeded
    ``gen_two_value`` ones, the window gaps and the 4 x 6 golden."""
    yield from _gap_random_instances(range(6))
    for seed in range(6):
        yield gen_random(5, 10, (Fraction(1, 6), Fraction(1)), 0.6, seed=seed, grid=12)
        yield gen_two_value(
            4, Fraction(1, 5), {"num_fat": 3, "num_thin": 8, "density": 0.7}, seed
        )
    yield from (parse_instance(doc) for doc in WINDOW_GAPS.values())
    yield load_instance(GAP_GOLDEN)


def _list_sum_counts(inst):
    """Each covet list's number of distinct subset sums, 0 included."""
    return [
        1 + len(brute_subset_sums(Instance.build([p], inst.resources, {p: inst.covets[p]})))
        for p in inst.players
    ]


def test_int_subset_sums_match_the_combinations_oracle(monkeypatch):
    """``int_subset_sums`` == ``brute_subset_sums`` on the seeded suites,
    under the default candidate cap and on both sides of the bitset's
    selection: with the cap one above the largest list total, every total
    is below it and the lists are bitsets; with the cap at that total, the
    lists are sets, which raise ``CapError`` exactly when a list has more
    sums than the cap, as the set path always did."""
    answered = raised = 0
    for inst in _subset_sum_suite():
        want = brute_subset_sums(inst)
        assert lp_core.int_subset_sums(inst) == want
        top = max(table.suffix[0] for table in inst.covet_tables.values())
        counts = _list_sum_counts(inst)
        for cap in (top + 1, top):
            with monkeypatch.context() as patch:
                patch.setattr(lp_core, "DEFAULT_CANDIDATE_CAP", cap)
                if max(counts) > cap:
                    with pytest.raises(
                        subsets.CapError, match=f"^more than {cap} subset sums$"
                    ):
                        lp_core.int_subset_sums(inst)
                    raised += 1
                else:
                    assert lp_core.int_subset_sums(inst) == want
                    answered += cap == top
    assert answered > 10 and raised > 3


def test_int_subset_sums_on_a_fine_value_scale():
    """A value of 1/10**9 puts every list total past the candidate cap, so
    the set path answers, and its sums are the oracle's."""
    inst = parse_instance(
        "players p1 p2\nresource a 1/1000000000\nresource b 1/2\n"
        "resource c 2/3\nresource d 1\ncovets p1 a b c\ncovets p2 a c d\n"
    )
    assert all(
        table.suffix[0] >= lp_core.DEFAULT_CANDIDATE_CAP
        for table in inst.covet_tables.values()
    )
    sums = lp_core.int_subset_sums(inst)
    assert sums == brute_subset_sums(inst) and len(sums) == 11


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


def _rational_verify_dual(inst, target, sol):
    """(feasible, violated) from the minimal-configuration scan and, as an
    independent pricing check, the min-cost covering search, on Fraction
    sums."""
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
            return False, lp_core.Configuration(p, tuple(sorted(found[1])))
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
