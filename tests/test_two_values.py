import math
from fractions import Fraction

import pytest

from santagap import two_values
from oracles import (
    branch_and_bound_opt,
    check_obs_crc,
    harmonic_sums,
    limit_bound,
    limit_constants,
    scan_r_c,
)
from santagap.instance import Instance, InstanceError, gen_two_value, parse_instance
from santagap.lp_core import clp_feasible, compute_t_star
from santagap.subsets import CapError
from santagap.two_values import (
    a_coeff,
    analyze_two_value,
    f_gap,
    r_c,
    rc_table,
    reciprocal_sum,
    rescale_small_target,
    two_value_driver,
)

# the published triples (c, r_c) for c = 1..30
RC_TABLE_1_30 = [
    1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6,
    6, 7, 7, 8, 8, 8, 9, 9, 10, 10, 11, 11, 11, 12, 12,
]


# -- a_r(X) -----------------------------------------------------------------

def test_a_coeff_examples():
    assert a_coeff(2, 2) == 3  # 3r - X - 1
    assert a_coeff(2, 3) == Fraction(8, 3)  # 2r - (X+1)/3
    assert a_coeff(2, 5) == Fraction(7, 3)  # (4r-1)/3


def test_a_coeff_rejects_bad_range():
    with pytest.raises(ValueError):
        a_coeff(3, 2)
    with pytest.raises(ValueError):
        a_coeff(0, 1)


def test_a_coeff_branches_partition_integers():
    for r in range(1, 51):
        for X in range(r, 3 * r + 4):
            branches = [
                2 * X <= 3 * r - 1,
                2 * X >= 3 * r and X <= 2 * r,
                X >= 2 * r + 1,
            ]
            assert sum(branches) == 1, (r, X)


def test_a_coeff_non_increasing():
    for r in range(1, 51):
        prev = None
        for X in range(r, 3 * r + 10):
            value = a_coeff(r, X)
            assert value > 0
            if prev is not None:
                assert value <= prev
            prev = value


def test_a_coeff_range_boundaries():
    # the two middle-range endpoints follow the stated inequalities
    for r in range(2, 30):
        lo_end = (3 * r - 1) // 2
        hi_start = math.ceil(3 * r / 2)
        assert a_coeff(r, lo_end) == Fraction(3 * r - lo_end - 1)
        assert a_coeff(r, hi_start) == 2 * r - Fraction(hi_start + 1, 3)
        assert lo_end + 1 == hi_start


# -- r_c ----------------------------------------------------------------------

def test_rc_examples_from_table():
    assert r_c(4) == 2
    assert r_c(11) == 4 and Fraction(11, r_c(11)) == Fraction(11, 4)
    assert r_c(30) == 12


def test_rc_table_matches_published_values():
    rows = rc_table(30)
    assert [row.r_c for row in rows] == RC_TABLE_1_30
    assert [row.c for row in rows] == list(range(1, 31))
    for row in rows:
        assert row.ratio == Fraction(row.c, row.r_c)


def test_rc_is_the_descending_scan_on_the_capped_domain():
    assert two_values.DEFAULT_RC_CAP == 200
    for c in range(1, two_values.DEFAULT_RC_CAP + 1):
        assert r_c(c) == scan_r_c(c), c


def test_rc_maximality_up_to_200():
    for c in range(1, 201):
        r = r_c(c)
        assert reciprocal_sum(r, c) >= 1
        assert reciprocal_sum(r + 1, c) < 1


def test_check_obs_crc():
    assert check_obs_crc(5) == {"i": True, "ii": True, "iii": True}
    assert check_obs_crc(10) == {"i": True, "ii": True, "iii": True}
    assert check_obs_crc(200) == {"i": True, "ii": True, "iii": True}
    for c in range(1, 201):
        obs = check_obs_crc(c)
        assert all(obs.values()), (c, obs)


# -- f ------------------------------------------------------------------------

def test_f_gap_examples():
    assert f_gap(Fraction(1)) == 1
    assert f_gap(Fraction(1, 3)) == 3
    assert f_gap(Fraction(1, 6)) == 3


def test_f_gap_rejects_out_of_range():
    with pytest.raises(ValueError):
        f_gap(Fraction(0))
    with pytest.raises(ValueError):
        f_gap(Fraction(3, 2))


def test_f_gap_exceptional_points_grid():
    for q in range(1, 67):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            value = f_gap(x)
            if x in (Fraction(1, 6), Fraction(1, 3)):
                assert value == 3
            else:
                assert value < 3


def test_f_gap_eleven_quarters_bound():
    union = lambda x: (
        x < Fraction(1, 6)
        or Fraction(2, 11) <= x < Fraction(1, 3)
        or x >= Fraction(4, 11)
    )
    for q in range(1, 67):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            if union(x):
                assert f_gap(x) <= Fraction(11, 4), x


# -- harmonic sums and the limit ----------------------------------------------

def test_harmonic_sums_match_direct_sums():
    for r in range(2, 40):
        c = 3 * r + 2
        sums = harmonic_sums(r, c)
        lo_end = (3 * r - 1) // 2
        hi_start = math.ceil(3 * r / 2)
        direct_A = sum(
            (Fraction(1) / a_coeff(r, X) for X in range(r, lo_end + 1)), Fraction(0)
        )
        direct_B = sum(
            (Fraction(1) / a_coeff(r, X) for X in range(hi_start, 2 * r + 1)),
            Fraction(0),
        )
        direct_C = sum(
            (Fraction(1) / a_coeff(r, X) for X in range(2 * r + 1, c + 1)), Fraction(0)
        )
        assert sums.A_r == direct_A
        assert sums.B_r == direct_B
        assert sums.C_r == direct_C
        assert sums.A_r + sums.B_r + sums.C_r == reciprocal_sum(r, c)


def test_harmonic_sums_empty_tail():
    sums = harmonic_sums(3, 6)  # c = 2r: no constant range yet
    assert sums.C_r == 0


def test_harmonic_limits():
    a200 = harmonic_sums(200, 500).A_r
    assert abs(float(a200) - math.log(4 / 3)) < 0.01
    b200 = harmonic_sums(200, 500).B_r
    assert abs(float(b200) - 3 * math.log(9 / 8)) < 0.01


def test_limit_bound_value():
    bound = limit_bound()
    assert bound < 2.479
    consts = limit_constants()
    assert consts.bound == pytest.approx(bound, abs=1e-12)
    assert consts.A_limit == pytest.approx(math.log(4 / 3), abs=1e-15)
    assert consts.B_limit == pytest.approx(3 * math.log(9 / 8), abs=1e-15)


def test_limit_bound_against_high_precision():
    from decimal import Decimal, getcontext

    getcontext().prec = 40
    hi = (
        Decimal(10) / 3
        - (Decimal(4) / 3) * (Decimal(4) / 3).ln()
        - 4 * (Decimal(9) / 8).ln()
    )
    assert abs(Decimal(limit_bound()) - hi) < Decimal("1e-9")


# -- the driver -----------------------------------------------------------------

SHARED_FAT = """\
players p1 p2
resource f 1
resource t1 1/4
resource t2 1/4
resource t3 1/4
resource t4 1/4
covets p1 f t1 t2 t3 t4
covets p2 f t1 t2 t3 t4
"""


def test_analyze_two_value():
    inst = parse_instance(SHARED_FAT)
    shape = analyze_two_value(inst)
    assert shape.eps == Fraction(1, 4)
    assert shape.fat_ids == frozenset({"f"})
    assert len(shape.thin_ids) == 4
    with pytest.raises(InstanceError):
        analyze_two_value(
            parse_instance("players p\nresource a 1/2\nresource b 1/3\ncovets p a b\n")
        )


def test_driver_trivial_when_thin_part_empty():
    doc = (
        "players p1 p2\nresource f1 1\nresource f2 1\nresource t1 1/4\n"
        "covets p1 f1 t1\ncovets p2 f2 t1\n"
    )
    res = two_value_driver(parse_instance(doc), Fraction(1))
    assert res.outcome == "trivial"
    assert res.notes == ["thin part empty"]
    assert res.alpha == Fraction(1, 2)
    assert res.allocation is not None
    assert set(res.per_U) == {("p1",), ("p2",), ("p1", "p2")}
    for info in res.per_U.values():
        assert info["certified"] and info["how"] == "length" and info["need"] <= 0


def test_driver_empty_thin_part_above_t_star_is_inconclusive():
    # J is empty at T = 1 (t1 alone is below alpha*T = 2/5), and f1 is
    # the only fat resource either player covets: F_U = {f1} for
    # U = {p1, p2}, so Hall's condition on the fat resources fails and no
    # allocation reaches 1.
    inst = Instance.build(
        ["p1", "p2"],
        {"f1": 1, "t1": Fraction(1, 5)},
        {"p1": {"f1"}, "p2": {"f1", "t1"}},
    )
    assert compute_t_star(inst).t_star == Fraction(1, 5)
    res = two_value_driver(inst, Fraction(1))
    assert res.outcome == "inconclusive"
    assert res.allocation is None
    assert res.per_U[("p1", "p2")]["how"] == "ell=0 < need=1"
    for U in (("p1",), ("p2",)):
        assert res.per_U[U]["certified"] and res.per_U[U]["how"] == "length"


def test_driver_thin_hyperedges_have_common_size():
    # eps = 1/4, T = 1: c = 4, r = r_4 = 2, alpha = 1/2, thin size exactly 2
    inst = parse_instance(SHARED_FAT)
    assert clp_feasible(inst, Fraction(1)).feasible
    res = two_value_driver(inst, Fraction(1), search_budget=800)
    assert res.c == 4 and res.r == 2 and res.alpha == Fraction(1, 2)
    from santagap.allocation_graph import build_H, build_J

    j = build_J(build_H(inst, Fraction(1), res.alpha))
    assert j.graph.vertices and all(len(v[1]) == res.r for v in j.graph.vertices)


def test_driver_certifies_and_allocates():
    inst = parse_instance(SHARED_FAT)
    res = two_value_driver(inst, Fraction(1), search_budget=800)
    assert res.outcome == "certified"
    assert res.allocation is not None
    assert res.allocation.min_value(inst) >= res.r * Fraction(1, 4)
    full = res.per_U[("p1", "p2")]
    assert full["certified"]
    assert full["dual_ok"] is True
    # ledger: |W_X| <= n_X a(X) in every phase that ran
    assert all(full["ledger"].checks(res.r).values())


def test_driver_cross_checks_brute_force():
    inst = parse_instance(SHARED_FAT)
    t_star = compute_t_star(inst).t_star
    eps = Fraction(1, 4)
    c = math.ceil(t_star / eps)
    opt = branch_and_bound_opt(inst).opt_value
    assert opt >= r_c(c) * eps
    assert t_star / opt <= f_gap(eps / t_star)


def test_driver_hypothesis_violations(monkeypatch):
    inst = parse_instance(SHARED_FAT)
    with monkeypatch.context() as patch:
        patch.setattr(two_values, "DEFAULT_DRIVER_PLAYER_CAP", 1)
        with pytest.raises(CapError, match="^more than 1 players$"):
            two_value_driver(inst, Fraction(1))
    big_eps = parse_instance(
        "players p\nresource f 1\nresource t 3/4\ncovets p f t\n"
    )
    with pytest.raises(InstanceError):
        two_value_driver(big_eps, Fraction(1))


def test_driver_refuses_c_over_the_rc_cap():
    """eps = 1/201 at T = 1 makes c = 201, one over the r_c cap."""
    tiny_eps = parse_instance(
        "players p\nresource f 1\nresource t 1/201\ncovets p f t\n"
    )
    with pytest.raises(CapError, match="^c = 201 exceeds cap 200$"):
        two_value_driver(tiny_eps, Fraction(1))


def test_driver_additive_regime():
    inst = parse_instance(SHARED_FAT)
    res = two_value_driver(inst, Fraction(2))
    assert res.outcome == "additive-regime"


FIFTH_ASYMMETRIC = """\
players p1 p2
resource f 1
resource t1 1/5
resource t2 1/5
resource t3 1/5
resource t4 1/5
resource t5 1/5
covets p1 f t1 t2 t3 t4 t5
covets p2 f t1 t2 t3
"""


def test_driver_one_fifth_instance():
    # eps = 1/5, T* = 1: c = 5, r = r_5 = 2, guaranteed min-value 2/5
    inst = parse_instance(FIFTH_ASYMMETRIC)
    assert compute_t_star(inst).t_star == 1
    res = two_value_driver(inst, Fraction(1), search_budget=1200)
    assert res.outcome == "certified"
    assert (res.c, res.r, res.alpha) == (5, 2, Fraction(2, 5))
    assert res.allocation.min_value(inst) >= Fraction(2, 5)
    assert branch_and_bound_opt(inst).opt_value >= r_c(5) * Fraction(1, 5)


def test_driver_one_fifth_symmetric_phases():
    # fully shared eps-pool: the full player set certifies by length,
    # running phases X = 5..2 on a 20-vertex thin graph
    doc = FIFTH_ASYMMETRIC.replace("covets p2 f t1 t2 t3", "covets p2 f t1 t2 t3 t4 t5")
    inst = parse_instance(doc)
    res = two_value_driver(inst, Fraction(1), search_budget=2000)
    assert res.outcome == "certified"
    full = res.per_U[("p1", "p2")]
    assert full["how"] == "length" and full["need"] == 1
    assert full["dual_ok"] is True
    assert all(full["ledger"].checks(res.r).values())
    assert res.allocation.min_value(inst) >= Fraction(2, 5)


def test_driver_rescales_small_targets():
    doc = (
        "players p1 p2\nresource t1 1/8\nresource t2 1/8\nresource t3 1/8\n"
        "resource t4 1/8\nresource f 1\n"
        "covets p1 f t1 t2 t3 t4\ncovets p2 f t1 t2 t3 t4\n"
    )
    inst = parse_instance(doc)
    scaled = rescale_small_target(inst, Fraction(1, 2))
    assert analyze_two_value(scaled).eps == Fraction(1, 4)
    res = two_value_driver(inst, Fraction(1, 2), search_budget=800)
    assert any("rescaled" in note for note in res.notes)
    assert res.outcome in ("certified", "trivial", "inconclusive")


@pytest.mark.parametrize("target", [0, -1])
def test_driver_refuses_non_positive_targets(target):
    """Both are refused before the instance is read, by a message that
    names the target."""
    inst = parse_instance(SHARED_FAT)
    with pytest.raises(InstanceError) as got:
        two_value_driver(inst, Fraction(target))
    assert str(got.value) == f"driver needs a positive target, got T={target}"
    with pytest.raises(InstanceError) as got:
        rescale_small_target(inst, Fraction(target))
    assert str(got.value) == f"cannot rescale to a non-positive target, got T={target}"


@pytest.mark.parametrize("target", ["1/3", "1/1000000"])
def test_driver_refusal_names_the_callers_eps_and_target(target):
    """Below T = 1 the bound is eps < T/2, and the refusal names eps and T
    as given, not the rescaled eps/T (3/4 and 250000 here)."""
    with pytest.raises(InstanceError) as got:
        two_value_driver(parse_instance(SHARED_FAT), Fraction(target))
    assert str(got.value) == f"driver needs eps < min(T, 1)/2, got eps=1/4, T={target}"


# gen_two_value (players, eps, pattern) whose runs at T = 1/5, 1/2 and 4/5
# over seeds 0..5 end certified, trivial and inconclusive, and are refused
# with InstanceError (eps >= T/2) and with CapError (7 players; c over the
# r_c cap at eps = 1/600).
RESCALE_SHAPES = (
    (2, Fraction(1, 8), {"num_fat": 1, "num_thin": 4, "density": 0.8}),
    (2, Fraction(1, 10), {"num_fat": 2, "num_thin": 5, "density": 0.6}),
    (3, Fraction(1, 10), {"num_fat": 3, "num_thin": 2, "density": 0.6}),
    (7, Fraction(1, 10), {"num_fat": 7, "num_thin": 2, "density": 0.5}),
    (1, Fraction(1, 600), {"num_fat": 1, "num_thin": 3, "density": 1}),
)


def _run_driver(inst, target):
    """The driver's result, or the type of the error it refuses with."""
    try:
        return two_value_driver(inst, target, search_budget=300)
    except (InstanceError, CapError) as exc:
        return type(exc)


def test_driver_below_one_matches_the_rescaled_run():
    """The driver runs a target T < 1 as it is.  The paper's reference run
    is at T = 1 on the instance with eps rescaled to eps/T: both give the
    same outcome, alpha, r, c, allocation and per-subset record, or the
    same refusal, and the run at T adds the rescale note."""
    seen = set()
    for seed in range(6):
        for shape in RESCALE_SHAPES:
            inst = gen_two_value(*shape, seed)
            eps = shape[1]
            for target in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
                got = _run_driver(inst, target)
                want = _run_driver(rescale_small_target(inst, target), Fraction(1))
                if isinstance(want, type):
                    assert got is want, (seed, shape, target)
                    seen.add(want.__name__)
                    continue
                seen.add(want.outcome)
                key = (seed, shape, target)
                assert (got.outcome, got.alpha, got.r, got.c) == (
                    want.outcome, want.alpha, want.r, want.c
                ), key
                assert got.allocation == want.allocation, key
                assert got.per_U.keys() == want.per_U.keys(), key
                for U, info in got.per_U.items():
                    ref = want.per_U[U]
                    for name in ("need", "certified", "how", "dual_ok"):
                        assert info[name] == ref[name], (key, U, name)
                    assert info["ledger"].entries == ref["ledger"].entries, (key, U)
                note = f"rescaled from T={target} (eps'={eps / target})"
                assert got.notes == [*want.notes, note], key
    assert seen == {"certified", "trivial", "inconclusive", "InstanceError", "CapError"}
