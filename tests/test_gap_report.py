import json
from fractions import Fraction

import pytest

from conftest import GAP_GOLDEN
from oracles import exhaustive_opt, literal_phase_rows
from santagap import gap_report, lp_core, subsets
from santagap.gap_report import (
    CONVEX_WEIGHTS,
    BatchConfig,
    CoefficientError,
    evaluate_instance,
    generate_batch,
    phase_inequality_coefficients,
    run_gap_experiment,
    t_star_and_opt,
    verify_convex_combination,
)
from santagap.instance import gen_random, load_instance, parse_instance


def test_weights_sum_to_one_exactly():
    assert sum(CONVEX_WEIGHTS, Fraction(0)) == 1
    assert CONVEX_WEIGHTS == (
        Fraction(1, 35),
        Fraction(26, 245),
        Fraction(46, 2205),
        Fraction(38, 45),
    )


def test_combination_at_threshold_is_all_ones():
    cert = verify_convex_combination(Fraction(53, 15), Fraction(1))
    assert cert.weights_sum == 1
    assert all(v == 1 for v in cert.per_variable.values())
    assert cert.all_at_most_one


def test_combination_above_threshold_strictly_below_one():
    cert = verify_convex_combination(Fraction(4), Fraction(1))
    assert all(v < 1 for v in cert.per_variable.values())
    assert cert.all_at_most_one


def test_combination_iff_threshold():
    # scan a rational grid: all coefficients <= 1 iff T >= (53/15) m
    m = Fraction(1)
    for num in range(46, 70):
        t = Fraction(num, 15)
        if t <= 3 * m:
            continue
        cert = verify_convex_combination(t, m)
        assert cert.all_at_most_one == (t >= Fraction(53, 15))


def test_combination_scales_with_m():
    cert = verify_convex_combination(Fraction(53, 30), Fraction(1, 2))
    assert all(v == 1 for v in cert.per_variable.values())


def test_combination_rejects_small_T():
    with pytest.raises(CoefficientError):
        verify_convex_combination(Fraction(3), Fraction(1))


def test_combination_against_independent_oracle():
    """Recombine the raw inequality rows with exact arithmetic, separately."""
    T, m = Fraction(53, 15), Fraction(1)
    rows = phase_inequality_coefficients(T, m)
    expected = [
        sum((w * row[i] for w, row in zip(CONVEX_WEIGHTS, rows)), Fraction(0))
        for i in range(4)
    ]
    cert = verify_convex_combination(T, m)
    assert list(cert.per_variable.values()) == expected == [1, 1, 1, 1]


def test_phase_rows_read_the_driver_table():
    """The rows built from the four-phase driver's ``PHASES`` are the rows
    with 2, 7/3, 5/2 and 3 written out, on a rational grid of (T, m) that
    takes in m = 0 and T just above 3m, and outside the range they raise
    the same ``CoefficientError``."""
    outcomes = set()
    ms = [Fraction(0), Fraction(-1, 3)] + [Fraction(a, b) for a in (1, 2, 5) for b in (1, 3, 7)]
    for m in ms:
        Ts = [3 * m, 3 * m + Fraction(1, 10**9), 3 * m - Fraction(1, 7), Fraction(53, 15) * m]
        Ts += [Fraction(a, b) for a in range(0, 25, 2) for b in (1, 3, 4)]
        for T in Ts:
            try:
                want = literal_phase_rows(T, m)
            except CoefficientError as exc:
                with pytest.raises(CoefficientError) as got:
                    phase_inequality_coefficients(T, m)
                assert str(got.value) == str(exc)
                outcomes.add(str(exc).split(",")[0])
                continue
            assert phase_inequality_coefficients(T, m) == want
            outcomes.add("rows" if m else "rows at m = 0")
    assert outcomes == {"rows", "rows at m = 0", "need m >= 0", "need T > 3m"}


def test_certificate_json_uses_exact_strings():
    cert = verify_convex_combination(Fraction(53, 15), Fraction(1))
    doc = cert.to_json()
    assert doc["T"] == "53/15" and doc["m"] == "1"
    assert doc["per_variable"] == {"n1": "1", "n2": "1", "n3": "1", "n4": "1"}
    json.dumps(doc)  # serializable


# -- experiments ----------------------------------------------------------------

def test_evaluate_instance_gap_one():
    inst = parse_instance(
        "players p1 p2\nresource a 1\nresource b 1\ncovets p1 a b\ncovets p2 a b\n"
    )
    report = evaluate_instance(inst, "unit")
    assert report.t_star == 1 and report.opt == 1
    assert report.gap == 1 and report.bound_respected


def test_gap_golden_4x6():
    """T* = 1 in one LP probe, OPT = 1/2 and a gap of 2 (``f-gap 1/2``).
    The T* witness is fractional and no disjoint choice exists at T*, so
    OPT comes from the scan below T*, which the exhaustive oracle confirms.  At the next candidate, 3/2, the LP's
    Farkas certificate passes ``verify_dual``."""
    inst = load_instance(GAP_GOLDEN)
    res, opt = t_star_and_opt(inst)
    assert (res.t_star, res.probes) == (1, 1)
    assert any(w != 1 for w in res.feasibility_witness.primal.values())
    assert opt.opt_value == Fraction(1, 2) == exhaustive_opt(inst)[0]
    assert opt.nodes_explored > 0
    opt.witness.validate(inst)
    assert opt.witness.min_value(inst) == Fraction(1, 2)
    report = evaluate_instance(inst, "gap-4x6")
    assert (report.t_star, report.opt, report.gap) == (1, Fraction(1, 2), 2)
    assert report.bound_respected
    nxt = min(c for c in lp_core.subset_sum_candidates(inst) if c > res.t_star)
    assert nxt == Fraction(3, 2)
    above = lp_core.clp_feasible(inst, nxt)
    assert not above.feasible
    check = lp_core.verify_dual(inst, nxt, above.infeasibility_certificate)
    assert check.feasible and check.objective > 0


def test_t_star_and_opt_calls_the_search_once(monkeypatch):
    """The module attribute ``brute_force_opt`` is called exactly once per
    instance, with its T*, whether or not the T* witness is integral; an
    integral one is read off with no search, and its support is the OPT
    witness."""
    calls = []
    search = gap_report.brute_force_opt

    def recorded(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(gap_report, "brute_force_opt", recorded)
    halves = parse_instance(
        "players p1 p2\nresource a 1/2\nresource b 1/2\nresource c 1/2\n"
        "resource d 1/2\ncovets p1 a b c d\ncovets p2 a b c d\n"
    )
    for inst, integral in ((halves, True), (load_instance(GAP_GOLDEN), False)):
        calls.clear()
        res, opt = t_star_and_opt(inst)
        ((_, t_star),) = calls
        assert t_star is res
        assert (opt.nodes_explored == 0) == integral
        if integral:
            assert {
                lp_core.Configuration(p, bundle)
                for p, bundle in opt.witness.assignment.items()
            } == set(res.feasibility_witness.primal)


def test_over_node_cap_instance_is_skipped(monkeypatch):
    """An OPT search past the node cap skips the instance: the report
    names the cap and carries no T* and no OPT."""
    monkeypatch.setattr(subsets, "DEFAULT_NODE_CAP", 11)
    report = evaluate_instance(load_instance(GAP_GOLDEN), "gap-4x6")
    assert report.skipped == "more than 11 search nodes"
    assert report.t_star is None and report.opt is None
    assert report.bound_respected is None


def test_experiment_beyond_six_players_is_answered():
    """8 players and 16 resources, the shape of the CI experiment step:
    every row is answered, none skipped."""
    config = BatchConfig(kind="random", count=3, num_players=8, num_resources=16)
    reports = run_gap_experiment(config, seed=0)
    assert [r.skipped for r in reports] == [None] * 3
    assert all(r.opt <= r.t_star and r.bound_respected for r in reports)


def test_evaluate_instance_opt_zero_is_flagged():
    inst = parse_instance("players p1 p2\nresource a 1\ncovets p1 a\n")
    report = evaluate_instance(inst, "degenerate")
    assert report.gap_infinite and report.bound_respected is False
    assert report.instance_doc is not None  # audit artifact
    doc = report.to_json()
    assert doc["gap"] == "inf"


def test_experiment_deterministic():
    config = BatchConfig(kind="random", count=5, num_players=3, num_resources=6)
    a = run_gap_experiment(config, seed=3)
    b = run_gap_experiment(config, seed=3)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    c = run_gap_experiment(config, seed=4)
    assert [r.to_json() for r in a] != [r.to_json() for r in c]


def test_experiment_full_covet_identical_values_gap_one():
    for seed in range(4):
        inst = gen_random(3, 6, (Fraction(1), Fraction(1)), 1.0, seed)
        report = evaluate_instance(inst, f"unit-{seed}")
        assert report.skipped is None
        # unit values + full covets: T* quantizes to the integral split,
        # so the relaxation buys nothing
        assert report.opt == report.t_star == 6 // 3
        assert report.gap == 1 and report.bound_respected


def test_experiment_respects_bound_on_small_batch():
    config = BatchConfig(kind="random", count=10, num_players=3, num_resources=6)
    for report in run_gap_experiment(config, seed=7):
        if report.skipped is None:
            assert report.bound_respected, report.to_json()


def test_batch_generation_is_stable():
    config = BatchConfig(kind="two_value", count=3, eps=Fraction(1, 4))
    a = generate_batch(config, seed=5)
    b = generate_batch(config, seed=5)
    assert a == b
