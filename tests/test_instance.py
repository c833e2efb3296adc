import math
import random
from fractions import Fraction

import pytest

from conftest import GAP_GOLDEN
from oracles import branch_and_bound_opt
from santagap import instance, subsets
from santagap.instance import (
    Allocation,
    CovetTable,
    Instance,
    InstanceError,
    ParseError,
    brute_force_opt,
    gen_random,
    gen_two_value,
    load_instance,
    parse_instance,
    parse_instance_json,
)
from santagap.lp_core import compute_t_star
from santagap.subsets import CapError


MINIMAL = """\
players p1 p2
resource a 1
resource b 1
covets p1 a b
covets p2 a b
"""


def test_parse_minimal_document():
    inst = parse_instance(MINIMAL)
    assert inst.players == ("p1", "p2")
    assert set(inst.resource_ids) == {"a", "b"}
    assert inst.covets["p1"] == frozenset({"a", "b"})


def test_parse_dangling_covet_reference():
    bad = "players p1\nresource a 1\ncovets p1 a zz\n"
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "zz" in str(err.value)
    assert err.value.line == 3


def test_parse_fractional_value():
    inst = parse_instance("players p\nresource a 1/3\ncovets p a\n")
    assert inst.resources["a"] == Fraction(1, 3)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("players p\nresource a 0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_instance("players p\nresource a 1\nresource a 2\n")
    with pytest.raises(ParseError):
        parse_instance("resource a 1\n")
    with pytest.raises(ParseError):
        parse_instance("players p p\n")


def test_every_instance_has_a_player():
    """``Instance`` refuses an empty player list, and so does every way of
    making one; the text parser names the line."""
    no_players = "^instance lists no players$"
    with pytest.raises(InstanceError, match=no_players):
        Instance.build([], {"a": 1}, {})
    with pytest.raises(InstanceError, match=no_players):
        parse_instance_json('{"players": [], "resources": {"a": "1"}, "covets": {}}')
    with pytest.raises(InstanceError, match=no_players):
        gen_random(0, 3, (Fraction(1, 2), Fraction(1)), 0.5, 0)
    with pytest.raises(InstanceError, match=no_players):
        gen_two_value(0, Fraction(1, 4), None, 0)
    with pytest.raises(ParseError, match="^line 1: players line lists no players$"):
        parse_instance("players\nresource a 1\n")


def test_comments_and_blank_lines_ignored():
    doc = "# hi\n\nplayers p\n# mid\nresource a 2\ncovets p a\n"
    inst = parse_instance(doc)
    assert inst.resources["a"] == 2


def test_json_mirror_round_trip():
    inst = parse_instance(MINIMAL)
    import json

    again = parse_instance_json(json.dumps(inst.to_json()))
    assert again == inst


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"players": ["p1"], "resources": {"a": "1/2", "a": "1"}, "covets": {"p1": ["a"]}}', "a"),
        ('{"players": ["p1"], "resources": {"a": "1"}, "covets": {"p1": ["a"], "p1": []}}', "p1"),
        ('{"players": ["p1"], "players": ["p2"], "resources": {}, "covets": {}}', "players"),
    ],
    ids=["resource", "covets-entry", "top-level"],
)
def test_json_mirror_rejects_a_repeated_key(text, key):
    """A repeated key is refused, not read as its last value (a = 1, p1
    coveting nothing), as the text format refuses the same documents
    ("duplicate resource id", "duplicate covets line")."""
    with pytest.raises(ParseError, match=f"duplicate key '{key}'"):
        parse_instance_json(text)


def test_serialize_parse_round_trip():
    rng = random.Random(7)
    for seed in range(10):
        inst = gen_random(3, 6, (Fraction(1, 4), Fraction(2)), 0.5, seed)
        assert parse_instance(inst.serialize()) == inst


def test_construction_leaves_callers_covets_unchanged():
    cov = {"p": frozenset({"a"})}
    inst = Instance(("p", "q"), {"a": Fraction(1)}, cov)
    assert cov == {"p": frozenset({"a"})}
    assert inst.covets == {"p": frozenset({"a"}), "q": frozenset()}


def test_instance_keeps_frozen_copies_of_the_covet_lists():
    wants = {"a"}
    inst = Instance(("p",), {"a": Fraction(1)}, {"p": wants})
    wants.add("zzz")
    assert inst.covets == {"p": frozenset({"a"})}
    assert type(inst.covets["p"]) is frozenset
    assert compute_t_star(inst).t_star == 1


def test_build_checks_covet_lists_of_undeclared_players():
    with pytest.raises(InstanceError, match="covet list for undeclared player 'q'"):
        Instance.build(["p"], {"a": 1}, {"q": ["a"]})


def test_instance_keeps_its_own_copy_of_resources():
    res = {"a": Fraction(1), "b": Fraction(1, 2)}
    inst = Instance(("p",), res, {"p": frozenset({"a", "b"})})
    res["a"] = Fraction(-5)
    res["c"] = Fraction(1, 7)
    assert inst.resources == {"a": Fraction(1), "b": Fraction(1, 2)}
    assert inst.value(["a"]) == 1
    assert (inst.scale, inst.int_values) == (2, {"a": 2, "b": 1})


def test_integer_value_table():
    inst = Instance.build(
        ["p"], {"a": Fraction(1, 6), "b": Fraction(4, 9), "c": 2}, {"p": {"a", "b"}}
    )
    assert inst.scale == 18
    assert inst.int_values == {"a": 3, "b": 8, "c": 36}
    for rid, v in inst.int_values.items():
        assert Fraction(v, inst.scale) == inst.resources[rid]
    # The least integer sum that reaches a threshold, on and off the grid.
    assert inst.int_threshold(Fraction(1, 2)) == 9
    assert inst.int_threshold(Fraction(1, 5)) == 4
    assert inst.int_threshold(0) == 0
    assert inst.int_threshold(Fraction(-1, 5)) == -3
    # Each covet list by descending integer value, then id, with suffix
    # sums and the instance's one singleton tuple of each id.
    assert inst.covet_tables == {
        "p": CovetTable(("b", "a"), (8, 3), (11, 3, 0), (("b",), ("a",)))
    }
    # The integer values of the coveted resources, ascending; c is coveted
    # by no one.  Two players coveting one resource count it once.
    assert inst.coveted_values == (3, 8)
    # One bit per resource, in resource order, coveted or not.
    assert inst.resource_bits == {"a": 1, "b": 2, "c": 4}
    shared = Instance.build(
        ["p", "q"], {"a": 1, "b": 2, "c": 2}, {"p": {"a", "b"}, "q": {"b", "c"}}
    )
    assert shared.coveted_values == (1, 2, 2)
    # No resources: scale 1 and empty tables.  No players is refused.
    bare = Instance(("p",), {}, {})
    assert (bare.scale, bare.int_values, bare.coveted_values) == (1, {}, ())
    assert bare.covet_tables == {"p": CovetTable((), (), (0,), ())}
    assert bare.resource_bits == {}
    with pytest.raises(InstanceError, match="^instance lists no players$"):
        Instance((), {}, {})


def test_value_sums_exactly():
    inst = parse_instance("players p\nresource a 1/3\nresource b 1/6\ncovets p a b\n")
    assert inst.value([]) == 0
    assert inst.value(["a", "b"]) == Fraction(1, 2)
    with pytest.raises(InstanceError):
        inst.value(["nope"])


def test_value_is_the_fraction_sum():
    """The integer-table sum over ``scale`` is the Fraction sum of the
    values, on seeded subsets of mixed-denominator instances."""
    rng = random.Random(5)
    for seed in range(20):
        inst = gen_random(3, 9, (Fraction(1, 7), Fraction(5, 3)), 0.7, seed=seed, grid=10)
        for _ in range(10):
            ids = rng.sample(inst.resource_ids, rng.randint(0, 9))
            got = inst.value(ids)
            assert type(got) is Fraction
            assert got == sum((inst.resources[r] for r in ids), Fraction(0))
    with pytest.raises(InstanceError, match="^unknown resource id 'nope'$"):
        inst.value([inst.resource_ids[0], "nope"])


def test_value_of_generated_eps_pool():
    eps = Fraction(1, 5)
    inst = gen_two_value(2, eps, {"num_fat": 0, "num_thin": 7}, seed=3)
    # direct summation oracle over the whole resource set
    expected = sum((inst.resources[r] for r in inst.resource_ids), Fraction(0))
    assert inst.value(inst.resource_ids) == expected == 7 * eps


def test_allocation_validation():
    inst = parse_instance(MINIMAL)
    Allocation({"p1": ("a",), "p2": ("b",)}).validate(inst)
    Allocation({"p1": frozenset({"a"}), "p2": ["b"]}).validate(inst)  # any sequence
    with pytest.raises(InstanceError):
        Allocation({"p1": ("a",), "p2": ("a",)}).validate(inst)
    with pytest.raises(InstanceError):
        Allocation({"p1": ("zz",)}).validate(inst)


def test_allocation_rejects_a_repeated_resource():
    inst = parse_instance(MINIMAL)
    with pytest.raises(InstanceError, match="'p1' allocated resource 'a' twice"):
        Allocation({"p1": ("a", "a")}).validate(inst)
    with pytest.raises(InstanceError, match="allocated resource 'b' twice"):
        Allocation({"p2": ["b", "b"], "p1": ()}).validate(inst)


def test_allocation_min_value_from_integer_sums():
    """The least bundle value is one integer minimum over ``scale``: a
    player left out of the assignment holds 0, an unknown id raises as
    ``Instance.value`` does, and on seeded OPT witnesses it equals the
    least ``Instance.value`` of a bundle."""
    inst = parse_instance(MINIMAL)
    assert Allocation({"p1": ("a",), "p2": ("b",)}).min_value(inst) == 1
    left_out = Allocation({"p1": ("a", "b")}).min_value(inst)
    assert left_out == 0 and type(left_out) is Fraction
    with pytest.raises(InstanceError, match="^unknown resource id 'zz'$"):
        Allocation({"p1": ("a",), "p2": ("zz",)}).min_value(inst)
    for seed in range(20):
        inst = gen_random(4, 8, (Fraction(1, 6), Fraction(5, 4)), 0.7, seed=seed, grid=10)
        alloc = brute_force_opt(inst, compute_t_star(inst)).witness
        got = alloc.min_value(inst)
        assert type(got) is Fraction
        assert got == min(inst.value(alloc.assignment.get(p, ())) for p in inst.players)


# -- OPT ------------------------------------------------------------------------

def _opt(inst):
    """The production OPT scan, once its value equals the branch-and-bound
    oracle's."""
    res = brute_force_opt(inst, compute_t_star(inst))
    assert res.opt_value == branch_and_bound_opt(inst).opt_value
    return res


def test_opt_single_player_single_resource():
    inst = parse_instance("players p\nresource a 5\ncovets p a\n")
    res = _opt(inst)
    assert res.opt_value == 5
    assert res.witness.assignment["p"] == ("a",)


def test_opt_two_players_one_resource():
    inst = parse_instance("players p1 p2\nresource a 1\ncovets p1 a\ncovets p2 a\n")
    assert _opt(inst).opt_value == 0


def test_opt_two_values_six_eps():
    doc = "players p1 p2\n" + "".join(
        f"resource t{i} 1/3\n" for i in range(1, 7)
    )
    doc += "covets p1 t1 t2 t3 t4 t5 t6\ncovets p2 t1 t2 t3 t4 t5 t6\n"
    res = _opt(parse_instance(doc))
    assert res.opt_value == 1  # three eps each
    res.witness.validate(parse_instance(doc))


def test_opt_witness_always_consistent():
    rng = random.Random(11)
    from conftest import random_small_instance

    for _ in range(25):
        inst = random_small_instance(rng)
        for res in (_opt(inst), branch_and_bound_opt(inst)):
            res.witness.validate(inst)
            assert res.witness.min_value(inst) == res.opt_value


def test_opt_uniform_full_covet_is_floor():
    # all values 1, everyone covets everything: OPT = floor(|R| / |P|)
    for num_players in (2, 3):
        for num_resources in (3, 5, 7):
            players = [f"p{i}" for i in range(num_players)]
            resources = {f"r{i}": Fraction(1) for i in range(num_resources)}
            covets = {p: set(resources) for p in players}
            inst = Instance.build(players, resources, covets)
            assert _opt(inst).opt_value == num_resources // num_players


def test_opt_cap_errors():
    """Seven players: the scan has no shape cap and answers, the
    branch-and-bound oracle keeps its 6-player guard."""
    players = [f"p{i}" for i in range(7)]
    resources = {"a": Fraction(1)}
    covets = {p: {"a"} for p in players}
    inst = Instance.build(players, resources, covets)
    assert brute_force_opt(inst, compute_t_star(inst)).opt_value == 0
    with pytest.raises(CapError):
        branch_and_bound_opt(inst)


def test_opt_node_cap_bounds_the_whole_scan(monkeypatch):
    """The 4x6 golden's scan searches 7 nodes at T* = 1 and 5 at OPT =
    1/2.  Each search fits under a cap of 11 nodes, their sum does not,
    and the scan is refused; a cap of 12 lets it through."""
    inst = load_instance(GAP_GOLDEN)
    res = compute_t_star(inst)
    spent = []
    search = instance.first_disjoint_choice

    def recorded(parts, bits, nodes=0):
        choice, total = search(parts, bits, nodes)
        spent.append(total - nodes)
        return choice, total

    monkeypatch.setattr(instance, "first_disjoint_choice", recorded)
    monkeypatch.setattr(subsets, "DEFAULT_NODE_CAP", 12)
    assert brute_force_opt(inst, res).nodes_explored == 12
    assert spent == [7, 5]
    monkeypatch.setattr(subsets, "DEFAULT_NODE_CAP", 11)
    with pytest.raises(CapError, match="^more than 11 search nodes$"):
        brute_force_opt(inst, res)


# -- generators ---------------------------------------------------------------

def test_gen_two_value_values_and_determinism():
    eps = Fraction(1, 4)
    a = gen_two_value(3, eps, {"num_fat": 2, "num_thin": 5}, seed=9)
    b = gen_two_value(3, eps, {"num_fat": 2, "num_thin": 5}, seed=9)
    assert a == b
    assert set(a.resources.values()) <= {Fraction(1), eps}
    assert all(any(r in a.covets[p] for p in a.players) for r in a.resource_ids)


def test_gen_two_value_rejects_bad_eps():
    with pytest.raises(InstanceError):
        gen_two_value(2, Fraction(3, 2), None, 0)
    with pytest.raises(InstanceError):
        gen_two_value(2, Fraction(0), None, 0)


@pytest.mark.parametrize("density", [math.nan, 7, -0.1], ids=["nan", "7", "-0.1"])
def test_generators_reject_density_outside_unit_interval(density):
    """NaN fails both ``rng.random() < density`` and ``density <= 0``, so
    unchecked it would resample a covet row forever."""
    with pytest.raises(InstanceError, match=r"^density must lie in \[0, 1\]"):
        gen_two_value(2, Fraction(1, 4), {"density": density}, 0)
    with pytest.raises(InstanceError, match=r"^density must lie in \[0, 1\]"):
        gen_random(2, 3, (Fraction(1, 2), Fraction(1)), density, 0)


def test_gen_two_value_single_player_single_fat():
    inst = gen_two_value(1, Fraction(1, 2), {"num_fat": 1, "num_thin": 0}, seed=0)
    assert set(inst.resources.values()) <= {Fraction(1), Fraction(1, 2)}
    assert inst.covets["p1"]


def test_gen_random_density_one_covets_everything():
    inst = gen_random(3, 5, (Fraction(1, 2), Fraction(1)), 1.0, seed=4)
    for p in inst.players:
        assert inst.covets[p] == frozenset(inst.resource_ids)


def test_gen_random_every_resource_coveted():
    inst = gen_random(4, 8, (Fraction(1, 3), Fraction(1)), 0.5, seed=12)
    for rid in inst.resource_ids:
        assert any(rid in inst.covets[p] for p in inst.players)


def test_gen_random_deterministic():
    a = gen_random(4, 8, (Fraction(1, 3), Fraction(1)), 0.5, seed=21)
    b = gen_random(4, 8, (Fraction(1, 3), Fraction(1)), 0.5, seed=21)
    assert a == b
    c = gen_random(4, 8, (Fraction(1, 3), Fraction(1)), 0.5, seed=22)
    assert a != c
