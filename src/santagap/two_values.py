"""(1, eps)-restricted machinery: phase coefficients, r_c, f, the driver.

In the two-values regime every thin resource has value eps, so cover
accounting is pure cardinality.  The phase coefficient a_r(X) is the
piecewise function

    a_r(X) = 3r - X - 1        for r <= X <= (3r-1)/2
             2r - (X+1)/3      for 3r/2 <= X <= 2r
             (4r-1)/3          for X >= 2r + 1

and r_c is the largest r whose reciprocal sum over X = r..c reaches 1.
The resulting integrality-gap bound is f(x) = 1/(x * r_ceil(1/x)).  The
driver reads a target T only through eps/T, so it runs at T as given.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .allocation_graph import (
    build_H,
    build_J,
    compute_fat,
    find_independent_transversal,
    transversal_to_allocation,
)
from .instance import Instance, InstanceError
from .lp_core import build_dual, fat_for_players, verify_dual
from .subsets import CapError
from .topology import CoverLedger, all_deletions, is_gamma, player_sets, search_de_sequence

# two_value_driver certifies every nonempty player subset, 2^players - 1.
DEFAULT_DRIVER_PLAYER_CAP = 6
# c of r_c(c), which bisects r over 1..c at O(c) terms a step; it also
# bounds the cache of r_c.
DEFAULT_RC_CAP = 200


@dataclass(frozen=True)
class RcEntry:
    c: int
    r_c: int
    ratio: Fraction


def a_coeff(r: int, X: int) -> Fraction:
    """The phase coefficient a_r(X); exact, and positive for X >= r >= 1."""
    if not (isinstance(r, int) and isinstance(X, int)):
        raise TypeError("a_coeff takes integers")
    if r < 1 or X < r:
        raise ValueError(f"need X >= r >= 1, got r={r}, X={X}")
    if 2 * X <= 3 * r - 1:
        return Fraction(3 * r - X - 1)
    if 2 * X >= 3 * r and X <= 2 * r:
        return 2 * r - Fraction(X + 1, 3)
    return Fraction(4 * r - 1, 3)


def reciprocal_sum(r: int, c: int) -> Fraction:
    """Sum of 1/a_r(X) for X = r..c (empty sums are 0)."""
    return sum((Fraction(1) / a_coeff(r, X) for X in range(r, c + 1)), Fraction(0))


def r_c(c: int) -> int:
    """Largest r with reciprocal_sum(r, c) >= 1; r = 1 always qualifies.

    c above ``DEFAULT_RC_CAP`` raises ``CapError``, checked before the
    cache is read.
    """
    if c < 1:
        raise ValueError("c must be a positive integer")
    if c > DEFAULT_RC_CAP:
        raise CapError(f"c = {c} exceeds cap {DEFAULT_RC_CAP}")
    return _r_c(c)


@lru_cache(maxsize=None)
def _r_c(c: int) -> int:
    # reciprocal_sum(r, c) falls as r grows: the range X = r..c shrinks,
    # and a_r(X) does not fall as r grows.  So the first r in 1..c whose
    # sum is below 1 is r_c + 1, found by bisection; r = 1 sums to c >= 1.
    return bisect.bisect_left(
        range(1, c + 1), True, key=lambda r: reciprocal_sum(r, c) < 1
    )


def rc_table(max_c: int) -> list[RcEntry]:
    if max_c < 1:
        raise ValueError("max_c must be >= 1")
    r_c(max_c)  # over the cap, fail before computing the rows below it
    return [RcEntry(c, r_c(c), Fraction(c, r_c(c))) for c in range(1, max_c + 1)]


def f_gap(x: Fraction) -> Fraction:
    """The two-values integrality-gap bound f(x) = 1/(x * r_ceil(1/x))."""
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    c = math.ceil(Fraction(1) / x)
    return Fraction(1) / (x * r_c(c))


# ---------------------------------------------------------------------------
# (1, eps) instance analysis and the phase-X driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoValueShape:
    eps: Fraction
    fat_ids: frozenset[str]
    thin_ids: frozenset[str]


def analyze_two_value(inst: Instance) -> TwoValueShape:
    """Check the instance uses only the values 1 and eps and split it.

    The values are read as ``Instance.int_values``, in which 1 is
    ``Instance.scale``, so every comparison is of integers and gives the
    same exact answer as comparing the Fraction values.
    """
    one = inst.scale
    ints = set(inst.int_values.values())
    others = ints - {one}
    if len(others) > 1:
        values = sorted(set(inst.resources.values()))
        raise InstanceError(f"more than two distinct values: {values}")
    if not others and ints:
        raise InstanceError("no eps-valued resource present")
    eps = min(others, default=one)
    fats = frozenset(r for r, v in inst.int_values.items() if v == one)
    thins = frozenset(r for r, v in inst.int_values.items() if v == eps)
    return TwoValueShape(Fraction(eps, one), fats, thins)


def rescale_small_target(inst: Instance, t_star: Fraction) -> Instance:
    """The paper's T* < 1 normalisation, every eps bumped to eps/T* for
    target 1: the reference the driver's tests compare with; T* <= 0 is refused."""
    if t_star <= 0:
        raise InstanceError(f"cannot rescale to a non-positive target, got T={t_star}")
    shape = analyze_two_value(inst)
    resources = dict.fromkeys(shape.fat_ids, Fraction(1))
    resources.update(dict.fromkeys(shape.thin_ids, shape.eps / t_star))
    return Instance.build(inst.players, resources, inst.covets)


class PhaseXLedger(CoverLedger):
    """The cover ledger keyed by phase X."""

    __slots__ = ()

    def checks(self, r: int) -> dict[int, bool]:
        """|W_X| <= n_X * a_r(X) in every phase X that recorded explosions."""
        return {
            X: is_gamma(covered, count, a_coeff(r, X))
            for X, (count, covered) in self.entries.items()
        }


@dataclass(slots=True)
class TwoValueResult:
    # "trivial" is "certified" with an empty thin part; both carry an allocation.
    outcome: str  # "certified" | "trivial" | "additive-regime" | "inconclusive"
    alpha: Fraction | None = None
    r: int | None = None
    c: int | None = None
    allocation: object = None
    per_U: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def two_value_driver(
    inst: Instance,
    target: Fraction,
    *,
    search_budget: int = 1500,
) -> TwoValueResult:
    """Run the descending phase-X process and certify an allocation.

    For each player subset U the process dismantles the thin graph J|U
    with DE-sequences based in one player's thin pool, average cover cost
    at most a(X) in Phase X.  A subset is certified by a KO-sequence or
    by total explosion count >= |U| - |F_U|; when every subset certifies,
    an independent transversal (hence an allocation of min-value r * eps)
    must exist and is returned.  An empty J runs no search, so a subset
    certifies exactly when |F_U| >= |U|, Hall's condition on the fat
    resources, and the outcome is "trivial", with its allocation.  A
    target above T* may end "inconclusive".

    Its hypotheses (T > 0, eps < min(T, 1)/2, ceil(T/eps) >= 4, the
    player cap) are checked once, on the caller's T and eps; T < 1 runs as given.
    """
    target = Fraction(target)
    if target <= 0:
        raise InstanceError(f"driver needs a positive target, got T={target}")
    eps = analyze_two_value(inst).eps
    if 2 * eps >= min(target, 1):
        raise InstanceError(f"driver needs eps < min(T, 1)/2, got eps={eps}, T={target}")
    if target >= 2:
        return TwoValueResult(
            "additive-regime",
            notes=["target >= 2: assignment-LP rounding bounds the gap by 2"],
        )
    c = math.ceil(target / eps)
    if c < 4:
        raise InstanceError(f"driver needs ceil(T/eps) >= 4, got c={c}")
    if len(inst.players) > DEFAULT_DRIVER_PLAYER_CAP:
        raise CapError(f"more than {DEFAULT_DRIVER_PLAYER_CAP} players")
    r = r_c(c)
    alpha = r * eps / target
    notes = [f"rescaled from T={target} (eps'={eps/target})"] if target < 1 else []
    H = build_H(inst, target, alpha)
    J = build_J(H)
    fat = compute_fat(inst, target, alpha)
    # The pools a phase-X search may be based in: each player's thin
    # pool, where it alone reaches the target.
    least = inst.int_threshold(target)
    thin_pools = ((p, inst.covets[p] - fat) for p in inst.players)
    pools = {p: pool for p, pool in thin_pools if inst.int_value(pool) >= least}
    per_U = {
        U: _certify_subset(inst, sub, U, fat, pools, target, eps, c, r, search_budget)
        for U, sub in player_sets(J.graph, J.parts, inst.players)
    }
    if not all(info["certified"] for info in per_U.values()):
        return TwoValueResult("inconclusive", alpha, r, c, None, per_U, notes)
    transversal = find_independent_transversal(H)
    if transversal is None:
        # Certification says a transversal exists; failing to find one
        # would mean an implementation bug, not a hard instance.
        raise AssertionError("all subsets certified but no transversal found")
    allocation = transversal_to_allocation(inst, transversal)
    if J.graph.vertices:
        return TwoValueResult("certified", alpha, r, c, allocation, per_U, notes)
    notes.insert(0, "thin part empty")
    return TwoValueResult("trivial", alpha, r, c, allocation, per_U, notes)


def _based_in(owner: str, based: frozenset[str], edge: tuple) -> bool:
    """An endpoint of ``edge`` is owned by ``owner`` and its resources lie in ``based``."""
    return any(v.owner == owner and based.issuperset(v.resources) for v in edge)


def _certify_subset(inst, g, U, fat, pools, target, eps, c, r, search_budget):
    """Certify U on g = J|U."""
    f_u = fat_for_players(inst, U, fat)
    need = len(U) - len(f_u)
    ledger = PhaseXLedger()
    info = {
        "need": need,
        "ledger": ledger,
        "certified": False,
        "how": None,
        "dual_ok": None,
    }

    g, _ = all_deletions(g)
    for X in range(c, r - 1, -1):
        while True:
            if g.has_isolated_vertex():
                info.update(certified=True, how="ko")
                return info
            for p in U:
                based = pools.get(p, frozenset()) - ledger.cover
                if len(based) >= X:
                    break
            else:
                break  # no pool keeps X uncovered resources: the phase ends
            found = search_de_sequence(
                g,
                "cover",
                budget=search_budget,
                max_explosions=4,
                accept=partial(is_gamma, gamma=a_coeff(r, X)),
                explodes=partial(_based_in, p, based),
            )
            if not found.found:
                info.update(how=f"search failed in phase {X}")
                return info
            ledger.add(X, found.sequence.ell, found.cover)
            g, _ = all_deletions(found.end)
        W = ledger.cover
        if W:
            # W holds only thin resources: J's vertices are non-fat minimal
            # configurations at alpha*T, so none contains a fat resource.
            c_dual = eps * (c - X + 1)
            sol = build_dual(inst, U, W, c_dual, fat)
            if verify_dual(inst, target, sol).feasible:
                ok = inst.value(W) >= c_dual * need
                info["dual_ok"] = bool(ok) if info["dual_ok"] in (None, True) else False

    # Each phase ends on a break just after g showed no isolated vertex,
    # and g has not changed since, so no KO is left to find here.
    if ledger.ell >= need:
        info.update(certified=True, how="length")
    else:
        info.update(how=f"ell={ledger.ell} < need={need}")
    return info
