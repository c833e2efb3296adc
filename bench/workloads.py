"""The three benchmark workloads: seeded inputs, queries and output checks.

Every query goes through a module attribute of santagap at call time, so
the tracer's wrappers see it.  Inputs are drawn from ``random.Random``
seeded with a string, which does not depend on the hash seed of the
process, and are stratified by a structural size class with fixed
shares, so that runs with different seeds do the same mix of work.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from santagap import allocation_graph, gap_report, instance, lp_core, topology, two_values


@dataclass
class Query:
    label: str
    inst: instance.Instance
    stratum: object
    data: tuple = ()


def stratified(candidates, shares: dict, n: int) -> list[Query]:
    """The first ``n`` queries, interleaved so every prefix keeps ``shares``.

    ``candidates`` yields queries; one whose stratum is not due yet waits
    in a buffer for its turn, and one of a stratum without a share is
    dropped.
    """
    buffers: dict = {k: [] for k in shares}
    taken = dict.fromkeys(shares, 0)
    out = []
    for i in range(n):
        due = max(shares, key=lambda k: shares[k] * (i + 1) - taken[k])
        while not buffers[due]:
            q = next(candidates)
            if q.stratum in buffers:
                buffers[q.stratum].append(q)
        out.append(buffers[due].pop(0))
        taken[due] += 1
    return out


def _has_matching(inst: instance.Instance) -> bool:
    """Every player can get a distinct coveted resource (so OPT > 0)."""
    owner: dict[str, str] = {}

    def augment(p: str, seen: set) -> bool:
        for r in inst.covet_list(p):
            if r not in seen:
                seen.add(r)
                if r not in owner or augment(owner[r], seen):
                    owner[r] = p
                    return True
        return False

    return all(augment(p, set()) for p in inst.players)


def _value_hall(inst: instance.Instance, target: Fraction) -> bool:
    """Every player set U covets total value >= |U| * target.

    A necessary condition for CLP(target) feasibility that rejects most
    infeasible candidates before the exact LP runs.
    """
    for size in range(1, len(inst.players) + 1):
        for U in itertools.combinations(inst.players, size):
            if inst.value(set().union(*(inst.covets[p] for p in U))) < size * target:
                return False
    return True


class GapRandom:
    """``evaluate_instance`` (exact T* and OPT) on random instances."""

    name = "gap-random"
    # (players, resources, covet density): T*-heavy, then OPT-heavy
    SHAPES = ((4, 7, 0.8), (5, 6, 0.9))
    SHARES = {0: 0.5, 1: 0.5}
    VALUES = (Fraction(1, 6), Fraction(1))
    GRID = 4

    def candidates(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        for i in itertools.count():
            shape = i % len(self.SHAPES)
            players, resources, density = self.SHAPES[shape]
            inst = instance.gen_random(players, resources, self.VALUES, density,
                                       rng.randrange(2**32), grid=self.GRID)
            if _has_matching(inst):
                yield Query(f"{self.name}-{seed}-{i}", inst, shape)

    def answer(self, q: Query):
        # evaluate_instance keeps only the OPT value; keep its witness too,
        # so the check need not search for OPT again.
        found = []
        oracle = gap_report.brute_force_opt

        def keep(*args, **kwargs):
            found.append(oracle(*args, **kwargs))
            return found[-1]

        gap_report.brute_force_opt = keep
        try:
            report = gap_report.evaluate_instance(q.inst, q.label)
        finally:
            gap_report.brute_force_opt = oracle
        return report, found

    def conclusive(self, out) -> bool:
        return True

    def check(self, q: Query, out) -> str | None:
        inst = q.inst
        out, found = out
        if out.skipped is not None:
            return f"skipped: {out.skipped}"
        (opt,) = found
        opt.witness.validate(inst)
        if not opt.witness.min_value(inst) == opt.opt_value == out.opt:
            return f"OPT {out.opt} is not reached by the OPT witness"
        if not out.opt <= out.t_star:
            return f"OPT {out.opt} > T* {out.t_star}"
        if not (out.bound_respected and out.t_star / out.opt <= gap_report.GAP_BOUND):
            return f"gap {out.t_star / out.opt} exceeds 53/15"
        above = [c for c in lp_core.subset_sum_candidates(inst) if c > out.t_star]
        if above:
            nxt = above[0]
            res = lp_core.clp_feasible(inst, nxt)
            cert = res.infeasibility_certificate
            if res.feasible or cert.objective <= 0:
                return f"CLP({nxt}) has no infeasibility certificate above T*"
            if not lp_core.verify_dual(inst, nxt, cert).feasible:
                return f"infeasibility certificate at {nxt} fails verify_dual"
        return None


class TwoValue:
    """``two_value_driver`` at T* on (1, 1/5) instances with two players."""

    name = "two-value"
    EPS = Fraction(1, 5)
    PATTERN = {"num_fat": 1, "num_thin": 5, "density": 0.8}
    MAX_THIN_VERTICES = 16
    # Shares by thin-graph vertex count.  The ten distinct 16-vertex graphs
    # cost about 1.5 s each on first sight and recur across queries, later
    # sightings cost 30-45 ms.  16-vertex graphs are 41% of the candidates
    # of seeds 1001-1003; at 65% a batch sees nearly all ten, and the
    # median query falls among the later sightings rather than on the
    # step between them and the 12-vertex graphs.  The smaller counts keep
    # their relative shares; counts rarer than 1% are left out.
    SHARES = {7: 0.02, 9: 0.09, 11: 0.03, 12: 0.1, 13: 0.11, 16: 0.65}

    def candidates(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        for i in itertools.count():
            inst = instance.gen_two_value(2, self.EPS, self.PATTERN, rng.randrange(2**32))
            t_star = lp_core.compute_t_star(inst).t_star
            # two_value_driver's hypotheses, on the instance it works on
            work, target, eps = inst, t_star, self.EPS
            if t_star < 1:
                work = two_values.rescale_small_target(inst, t_star)
                target, eps = Fraction(1), self.EPS / t_star
            if not (target < 2 and math.ceil(target / eps) >= 4):
                continue
            alpha = two_values.r_c(math.ceil(target / eps)) * eps / target
            thin = allocation_graph.build_J(allocation_graph.build_H(work, target, alpha))
            n = thin.vertex_count()
            if n <= self.MAX_THIN_VERTICES:
                yield Query(f"{self.name}-{seed}-{i}", inst, n, (t_star,))

    def answer(self, q: Query):
        (t_star,) = q.data
        return two_values.two_value_driver(q.inst, t_star, search_budget=1500)

    def conclusive(self, out) -> bool:
        return out.outcome != "inconclusive"

    def check(self, q: Query, out) -> str | None:
        if out.outcome not in ("certified", "trivial", "inconclusive"):
            return f"unexpected outcome {out.outcome}"
        if out.outcome != "inconclusive":
            if out.allocation is None:
                return f"{out.outcome} without an allocation"
            out.allocation.validate(q.inst)
            if out.allocation.min_value(q.inst) < out.r * self.EPS:
                return f"allocation below r*eps = {out.r * self.EPS}"
        for U, info in out.per_U.items():
            if not all(info["ledger"].checks(out.r).values()):
                return f"phase-X ledger check fails for {U}"
        return None


class FourPhase:
    """``hall_eta_check`` then ``four_phase_driver`` on small thin graphs."""

    name = "four-phase"
    TARGET = Fraction(1)
    ALPHA = Fraction(1, 2)
    # Graphs of more than 12 vertices are left out: they are rare and
    # their cost varies tenfold with their shape, so a few of them would
    # decide the batch time.
    MAX_THIN_VERTICES = 12
    # Share of each (vertex count, edge count) of J among the candidates of
    # seeds 1001-1003; pairs rarer than 2% share the key None.  Cost follows
    # the pair closely, so fixed shares keep both the batch time and the
    # median query the same from seed to seed.
    SHARES = {
        (0, 0): 0.03, (1, 0): 0.101, (2, 1): 0.11, (3, 0): 0.022, (4, 0): 0.032,
        (4, 3): 0.034, (5, 4): 0.039, (6, 9): 0.071, (7, 5): 0.026, (8, 16): 0.078,
        (9, 11): 0.039, (9, 15): 0.054, (10, 0): 0.027, (11, 10): 0.027, (12, 24): 0.031,
        (12, 30): 0.143, None: 0.134,
    }

    def candidates(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        for i in itertools.count():
            inst = instance.gen_two_value(
                rng.randint(2, 3),
                rng.choice((Fraction(1, 4), Fraction(1, 5))),
                {
                    "num_fat": rng.randint(1, 2),
                    "num_thin": rng.randint(3, 5),
                    "density": rng.choice((0.6, 0.8, 1.0)),
                },
                rng.randrange(2**32),
            )
            if not _value_hall(inst, self.TARGET):
                continue
            m = allocation_graph.compute_m(inst, self.TARGET, self.ALPHA)
            if m.m == 0:
                continue
            thin = allocation_graph.build_J(
                allocation_graph.build_H(inst, self.TARGET, self.ALPHA))
            if thin.vertex_count() > self.MAX_THIN_VERTICES:
                continue
            if lp_core.clp_feasible(inst, self.TARGET).feasible:
                pair = (thin.vertex_count(), len(thin.graph.edges))
                stratum = pair if pair in self.SHARES else None
                yield Query(f"{self.name}-{seed}-{i}", inst, stratum, (thin, m))

    def answer(self, q: Query):
        thin, m = q.data
        hall = topology.hall_eta_check(thin.graph, thin.parts)
        return hall, topology.four_phase_driver(
            q.inst, thin, m, search_budget=400, step_budget=400)

    def conclusive(self, out) -> bool:
        return out[1].outcome != "inconclusive"

    def check(self, q: Query, out) -> str | None:
        thin, m = q.data
        res = out[1]
        if not all(res.ledger.checks(q.inst, m.m).values()):
            return "phase ledger check fails"
        replay = topology.execute_sequence(res.sequence.start, res.sequence)
        if not (replay.valid and replay.eta_start >= replay.eta_final + replay.ell):
            return "executed sequence does not replay as valid"
        profile = topology.homology_profile(thin.graph)
        if topology.eta(thin.graph) != topology.eta_from_profile(profile):
            return "eta(J) differs from the homology-profile oracle"
        return None


WORKLOADS = {w.name: w for w in (GapRandom(), TwoValue(), FourPhase())}
