"""The outputs of ``four_phase_driver`` (after ``hall_eta_check``) and of
``two_value_driver`` on a few seeded ``gen_two_value`` instances, pinned
in ``golden/drivers.json``.  Every step, cover, ledger entry and end graph
is compared, so a change meant to leave the drivers' answers alone must
reproduce this file exactly, under any ``PYTHONHASHSEED``.

Regenerate (only when an output is meant to change, and say so):

    PYTHONPATH=src python tests/test_driver_golden.py
"""

import json
import os
from collections import Counter
from fractions import Fraction

from santagap import lp_core, topology
from santagap.allocation_graph import build_H, build_J, compute_m
from santagap.graphs import graph_to_json
from santagap.instance import gen_two_value
from santagap.rational import format_rational
from santagap.topology import desequence, drivers
from santagap.two_values import two_value_driver

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "drivers.json")

# gen_two_value arguments: players, eps, pattern, seed.  The four-phase
# cases end edgeless with three and with two phase-1 explosions, and KO
# at once and after eleven steps; the Hall check fails on three of them.
# The two-value cases are all certified: by KO alone and by length, at
# T* = 1 and rescaled from T* = 4/5, and seed 7 has a 20-vertex thin graph.
FOUR_PHASE_CASES = (
    (2, Fraction(1, 4), {"num_fat": 1, "num_thin": 5, "density": 0.6}, 16),
    (3, Fraction(1, 4), {"num_fat": 2, "num_thin": 5, "density": 0.6}, 21),
    (3, Fraction(1, 4), {"num_fat": 2, "num_thin": 4, "density": 0.8}, 37),
    (3, Fraction(1, 4), {"num_fat": 2, "num_thin": 5, "density": 0.6}, 165),
)
TWO_VALUE_PATTERN = {"num_fat": 1, "num_thin": 5, "density": 0.8}
TWO_VALUE_SEEDS = (1, 3, 7, 15)


def _four_phase(players, eps, pattern, seed) -> dict:
    inst = gen_two_value(players, eps, pattern, seed)
    target, alpha = Fraction(1), Fraction(1, 2)
    m = compute_m(inst, target, alpha)
    thin = build_J(build_H(inst, target, alpha))
    hall = topology.hall_eta_check(thin.graph, thin.parts)
    res = topology.four_phase_driver(inst, thin, m, search_budget=400, step_budget=400)
    phases = [res.ledger.entries.get(phase, (0, frozenset())) for phase in (1, 2, 3, 4)]
    return {
        "seed": seed,
        "hall": {"holds": hall.holds, "violating_U": hall.violating_U},
        "outcome": res.outcome,
        "phase_reached": res.phase_reached,
        "counts": [count for count, _ in phases],
        "covers": [sorted(covered) for _, covered in phases],
        "steps": [step.to_json() for step in res.sequence.steps],
        "final": graph_to_json(res.final),
        "notes": res.notes,
    }


def _two_value(seed) -> dict:
    inst = gen_two_value(2, Fraction(1, 5), TWO_VALUE_PATTERN, seed)
    t_star = lp_core.compute_t_star(inst).t_star
    res = two_value_driver(inst, t_star, search_budget=1500)
    per_U = {
        " ".join(U): {
            "need": info["need"],
            "certified": info["certified"],
            "how": info["how"],
            "dual_ok": info["dual_ok"],
            "ledger": {
                str(X): [count, sorted(covered)]
                for X, (count, covered) in sorted(info["ledger"].entries.items())
            },
        }
        for U, info in res.per_U.items()
    }
    allocation = res.allocation
    return {
        "seed": seed,
        "t_star": format_rational(t_star),
        "outcome": res.outcome,
        "alpha": format_rational(res.alpha),
        "r": res.r,
        "c": res.c,
        "allocation": None
        if allocation is None
        else {p: sorted(bundle) for p, bundle in allocation.assignment.items()},
        "per_U": per_U,
        "notes": res.notes,
    }


def driver_outputs() -> str:
    """The golden document, as canonical JSON text."""
    topology.clear_eta_cache()
    doc = {
        "four_phase": [_four_phase(*case) for case in FOUR_PHASE_CASES],
        "two_value": [_two_value(seed) for seed in TWO_VALUE_SEEDS],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_driver_outputs_match_the_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read()
    assert driver_outputs() == want


def test_every_eta_the_drivers_read_through_desequence_is_a_classification(monkeypatch):
    """The benchmark tracer checks eta calls >= 3 x classify_edge calls; on
    the golden runs it holds with equality, as classify_edge reads eta(G),
    eta(G-e) and eta(G*e) and nothing else in desequence reads eta."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(desequence, "eta", counted("eta", desequence.eta))
    classify = counted("classify_edge", desequence.classify_edge)
    monkeypatch.setattr(desequence, "classify_edge", classify)
    monkeypatch.setattr(drivers, "classify_edge", classify)
    driver_outputs()
    assert calls["classify_edge"] > 0
    assert calls["eta"] == 3 * calls["classify_edge"], calls


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(driver_outputs())
