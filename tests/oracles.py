"""Slow reference implementations that the fast exact kernels are checked against.

``dense_phase1_simplex`` is the rational-tableau phase-1 simplex that
``lp_core._phase1_simplex`` replaced: same crash start and pivot rules,
every entry a ``Fraction``, every column of the tableau updated at every
pivot.
``rational_max_value_below`` is a ``Fraction`` branch-and-bound for the
best subset value below a threshold, the m that ``compute_m`` reads off
the T* candidates.
``brute_subset_sums`` lists the T* candidates, every covet list's
subset sums, by ``itertools.combinations``, which ``int_subset_sums``
grows as a bitset or as a set.
``rational_min_cost_subset_reaching`` is a min-cost covering search over a
covet list, the pricing check that ``verify_dual``'s scan is compared
against.  ``hypothesis_holds_basic`` and ``hypothesis_holds_refined`` scan
the thin configurations (``thin_configurations``) for the hypotheses of
``build_dual`` without and with ``d``, which ``verify_dual`` decides on
the built dual alone.  ``exhaustive_opt`` tries every
assignment of every coveted resource, with no pruning.
``branch_and_bound_opt`` is the resource-by-resource search that
``instance.brute_force_opt`` replaced with a descending scan of disjoint
configuration choices, and
``backtrack_transversal`` is the search of H's adjacency that
``find_independent_transversal`` replaced with the same choice search.
``pairwise_build_H`` is ``build_H`` from pairs of vertices that share a
resource, before it built adjacency masks from per-resource holder
masks.  ``scan_r_c`` is the descending scan over r that ``two_values.r_c``
replaced with a bisection.  ``check_obs_crc``, ``harmonic_sums`` and
``limit_bound`` (with ``limit_constants``) check the paper's three r_c
observations, the exact partial sums of the reciprocal sum, and its
eps -> 0 limit, which nothing in the package reads; ``limit_bound`` is a
float.  ``bisection_t_star`` is the T* search that
probes every bisection candidate with the LP, with no capped-value
filter, and ``capped_value_violation`` evaluates that filter's
capped-value dual at one target, which ``lp_core.capped_value_bound``
replaced with a closed form over all targets.  ``fat_count_dual`` builds
the dual that
``lp_core.fat_count_violation`` prices by counts, from its definition on
``Fraction`` values.  ``induced``, ``delete_edge`` and ``explode_edge``
build J|U, G-e and G*e from scratch with ``Graph(...)``, from the
parent's labels and edge list, for the graphs ``player_sets`` and
``classify_edge`` derive from vertex positions.  ``classify_all_deletions``
is the ``all_deletions`` loop that classified every edge in full and
rebuilt each smaller graph, and ``induced_hall_eta_check`` the
``hall_eta_check`` that built each J|U by ``induced``.
``basic_cover`` replays a DE-sequence for the end graph
and basic cover that ``search_de_sequence`` returns with a found one.
``independence_complex`` lists the facets of Ind(G), the maximal
independent sets, by Bron-Kerbosch; nothing in the package needs them,
since eta works on chain groups.  ``has_edge`` and ``neighbors`` read a
graph's adjacency off its ``masks`` for the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from santagap import allocation_graph
from santagap.allocation_graph import AllocationGraph, alpha_threshold
from santagap.graphs import Graph, GraphError
from santagap.instance import Allocation, Instance, OptResult
from santagap.lp_core import (
    Configuration,
    DualSolution,
    TStarResult,
    clp_feasible,
    int_subset_sums,
    minimal_configurations,
)
from santagap.subsets import CapError
from santagap.topology import (
    DELETE,
    EXPLODE,
    DeSequence,
    DeStep,
    HallResult,
    classify_edge,
    eta_at_least,
    vertex_resources,
)
from santagap.two_values import r_c, reciprocal_sum

EXHAUSTIVE_RESOURCE_CAP = 7
# branch_and_bound_opt exhausts its tree when no bound stops it early.
BRANCH_AND_BOUND_PLAYER_CAP = 6
BRANCH_AND_BOUND_RESOURCE_CAP = 14


def dense_phase1_simplex(
    nrows: int,
    columns: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Minimize the artificial sum of {Ax = 1, x >= 0} given sparse columns.

    Each column is (row indices, coefficients), as ``_phase1_simplex``
    takes it.  Returns (optimum, x values for the given columns, dual
    prices pi).

    The same start and rules as ``_phase1_simplex``.  A row with a unit
    column starts with the first one basic.  Each other row, in row
    order, pivots in the first column whose entry there is 1 and whose
    other entries are 1 on rows still on their unit column at tableau
    rhs 1; a row with none keeps its artificial.  Every artificial that
    is not basic is barred.  The entering column has the most negative
    reduced cost, ties to the lowest index, or after a degenerate pivot
    the first negative one; the leaving row has the least ratio, ties to
    the lowest basic column.
    """
    one = Fraction(1)
    columns = [[(i, Fraction(c)) for i, c in zip(*col)] for col in columns]
    ncols = len(columns)
    art0 = ncols
    total = ncols + nrows
    # Dense tableau: rows x (total + rhs); artificial j occupies art0 + j.
    rows = [[Fraction(0)] * (total + 1) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, coef in col:
            rows[i][j] = coef
    for i in range(nrows):
        rows[i][art0 + i] = one
        rows[i][total] = one
    basis = list(range(art0, total))
    banned = [False] * total
    for j, col in enumerate(columns):
        if len(col) == 1 and col[0][1] == 1 and basis[col[0][0]] >= art0:
            basis[col[0][0]] = j
            banned[art0 + col[0][0]] = True
    unit = [bj < art0 for bj in basis]
    # Reduced-cost row for cost = 1 on artificials: subtract each row
    # whose basic variable is its artificial.
    obj = [Fraction(0)] * (total + 1)
    for j in range(art0, total):
        obj[j] = one
    for i in range(nrows):
        if basis[i] >= art0:
            for j in range(total + 1):
                obj[j] -= rows[i][j]

    def pivot(leave: int, enter: int) -> None:
        if basis[leave] >= art0:
            banned[basis[leave]] = True
        prow = rows[leave]
        piv = prow[enter]
        if piv != 1:
            inv = one / piv
            for j in range(total + 1):
                if prow[j]:
                    prow[j] *= inv
        for row in (*rows, obj):
            if row is prow:
                continue
            factor = row[enter]
            if factor:
                for j in range(total + 1):
                    if prow[j]:
                        row[j] -= factor * prow[j]
        basis[leave] = enter

    for i in range(nrows):
        if unit[i]:
            continue
        for j, col in enumerate(columns):
            if (i, 1) in col and all(
                c == 1 and (k == i or (unit[k] and rows[k][total] == 1)) for k, c in col
            ):
                pivot(i, j)
                break

    degenerate = False
    while True:
        improving = [j for j in range(total) if not banned[j] and obj[j] < 0]
        if not improving:
            break
        if degenerate:
            enter = improving[0]
        else:
            enter = min(improving, key=lambda j: obj[j])
        leave = -1
        best_ratio = None
        for i in range(nrows):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][total] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective unbounded below (impossible)")
        degenerate = best_ratio == 0
        pivot(leave, enter)

    optimum = -obj[total]
    x = [Fraction(0)] * ncols
    for i, bj in enumerate(basis):
        if bj < ncols:
            x[bj] = rows[i][total]
    # pi_i = cost(artificial_i) - reduced_cost(artificial_i)
    pi = [one - obj[art0 + i] for i in range(nrows)]
    return optimum, x, pi


def rational_max_value_below(items: dict[str, Fraction], threshold: Fraction) -> Fraction:
    """Largest subset value strictly below ``threshold`` (0 for the empty set)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    order = sorted(items, key=lambda rid: (-items[rid], rid))
    values = [items[rid] for rid in order]
    suffix = [Fraction(0)] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    best = Fraction(0)

    def dfs(i: int, total: Fraction) -> None:
        nonlocal best
        take_all = total + suffix[i]
        if take_all < threshold:
            if take_all > best:
                best = take_all
            return
        if take_all <= best:
            return
        if i == len(order):
            return
        if total + values[i] < threshold:
            dfs(i + 1, total + values[i])
        dfs(i + 1, total)

    dfs(0, Fraction(0))
    return best


def rational_min_cost_subset_reaching(
    items: dict[str, Fraction],
    costs: dict[str, Fraction],
    threshold: Fraction,
) -> tuple[Fraction, frozenset[str]] | None:
    """Minimize total cost over subsets with value >= threshold; None when
    even the full set falls short."""
    order = sorted(items, key=lambda rid: (costs[rid], -items[rid], rid))
    values = [items[rid] for rid in order]
    cost_of = [costs[rid] for rid in order]
    suffix = [Fraction(0)] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    if suffix[0] < threshold:
        return None
    best_cost: Fraction | None = None
    best_set: frozenset[str] = frozenset()
    chosen: list[str] = []

    def dfs(i: int, total: Fraction, cost: Fraction) -> None:
        nonlocal best_cost, best_set
        if best_cost is not None and cost >= best_cost and total < threshold:
            return
        if total >= threshold:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_set = frozenset(chosen)
            return
        if i == len(order) or total + suffix[i] < threshold:
            return
        chosen.append(order[i])
        dfs(i + 1, total + values[i], cost + cost_of[i])
        chosen.pop()
        dfs(i + 1, total, cost)

    dfs(0, Fraction(0), Fraction(0))
    assert best_cost is not None
    return best_cost, best_set


def thin_configurations(
    inst: Instance, player: str, target: Fraction, fat_set
) -> list[Configuration]:
    """The minimal configurations of ``player`` at ``target`` that avoid
    ``fat_set``: exactly the minimal configurations of the thin pool."""
    return [
        cfg for cfg in minimal_configurations(inst, player, target)
        if fat_set.isdisjoint(cfg.resources)
    ]


def hypothesis_holds_basic(
    inst: Instance, target: Fraction, U, Y, c: Fraction, fat_set
) -> bool:
    """Scan: v(Y n S) >= c for every thin configuration S of players in U."""
    Y = set(Y)
    for p in U:
        for cfg in thin_configurations(inst, p, target, fat_set):
            if inst.value(Y.intersection(cfg.resources)) < c:
                return False
    return True


def hypothesis_holds_refined(
    inst: Instance, target: Fraction, U, Y, c: Fraction, d: Fraction, fat_set
) -> bool:
    """Scan of the refined hypothesis on thin configurations.

    Checking minimal configurations suffices: enlarging S grows both
    Y_{>d} n S and v(Y_{<=d} n S), so the requirement only gets easier.
    """
    Y = set(Y)
    y_hi = {r for r in Y if inst.resources[r] > d}
    y_lo = Y - y_hi
    for p in U:
        for cfg in thin_configurations(inst, p, target, fat_set):
            hi = len(y_hi.intersection(cfg.resources))
            if hi > 1:
                continue
            need = c if hi == 0 else c - d
            if inst.value(y_lo.intersection(cfg.resources)) < need:
                return False
    return True


def brute_subset_sums(inst: Instance) -> list[int]:
    """Every distinct sum of the ``int_values`` of a non-empty subset of one
    covet list, ascending: ``itertools.combinations`` of each size over
    each list's values."""
    sums: set[int] = set()
    for p in inst.players:
        values = [inst.int_values[r] for r in inst.covet_list(p)]
        for k in range(1, len(values) + 1):
            sums.update(map(sum, itertools.combinations(values, k)))
    return sorted(sums)


def capped_value_violation(inst: Instance, target: Fraction) -> tuple[str, ...] | None:
    """A player set whose capped-value dual proves CLP(target) infeasible,
    the oracle of ``lp_core.capped_value_bound``.

    With t = ``inst.int_threshold(target)``, returns the first player
    whose coveted values, each capped at t, sum to less than t; failing
    that, all players when the capped values of every coveted resource,
    each counted once, sum to less than |players| * t; else None.  For
    the returned set P, y = 1 on P and z_r = min(int_values[r], t) / t on
    the resources P covets is a feasible DCLP(target) solution with
    positive objective.
    """
    t = inst.int_threshold(target)
    int_values = inst.int_values
    coveted: set[str] = set()
    for p in inst.players:
        wants = inst.covets[p]
        if sum(min(int_values[r], t) for r in wants) < t:
            return (p,)
        coveted |= wants
    if sum(min(int_values[r], t) for r in coveted) < len(inst.players) * t:
        return inst.players
    return None


def bisection_t_star(inst: Instance) -> TStarResult:
    """T* by binary search on the subset-sum candidates, one LP per step."""
    sums, scale = int_subset_sums(inst), inst.scale
    if not sums or not inst.players:
        return TStarResult(Fraction(0), sums, scale, clp_feasible(inst, Fraction(0)), 1)
    lo, hi = 0, len(sums) - 1
    best, probes, results = None, 0, {}
    while lo <= hi:
        mid = (lo + hi) // 2
        results[mid] = clp_feasible(inst, Fraction(sums[mid], scale))
        probes += 1
        if results[mid].feasible:
            best, lo = mid, mid + 1
        else:
            hi = mid - 1
    if best is None:
        witness = clp_feasible(inst, Fraction(0))
        return TStarResult(Fraction(0), sums, scale, witness, probes + 1)
    return TStarResult(Fraction(sums[best], scale), sums, scale, results[best], probes)


def fat_count_dual(inst: Instance, target: Fraction) -> DualSolution:
    """The fat-count dual of CLP(target), target > 0: y = 1 on every
    player, z = 1 on the coveted resources worth at least target (F), and
    z = 1/kappa on the other coveted ones (R), or 0 when kappa is
    infinite.  kappa is the least, over players and over subsets of a
    player's resources worth less than target whose values sum to at least
    target, of the subset's size, found by trying every subset."""
    coveted = set().union(*inst.covets.values())
    fat = {r for r in coveted if inst.resources[r] >= target}
    kappa = None
    for p in inst.players:
        below = sorted(inst.covets[p] - fat)
        for k in range(1, len(below) + 1):
            if kappa is not None and k >= kappa:
                break
            if any(inst.value(combo) >= target for combo in itertools.combinations(below, k)):
                kappa = k
                break
    thin = Fraction(0) if kappa is None else Fraction(1, kappa)
    y = {p: Fraction(1) for p in inst.players}
    z = {
        r: Fraction(1) if r in fat else thin if r in coveted else Fraction(0)
        for r in inst.resource_ids
    }
    return DualSolution(y, z)


def exhaustive_opt(inst: Instance) -> tuple[Fraction, Allocation]:
    """OPT and one optimal allocation, from every assignment of the coveted
    resources to a coveter or to nobody."""
    if len(inst.resources) > EXHAUSTIVE_RESOURCE_CAP:
        raise ValueError(f"more than {EXHAUSTIVE_RESOURCE_CAP} resources")
    rids = [
        r for r in inst.resource_ids if any(r in inst.covets[p] for p in inst.players)
    ]
    choices = [
        [p for p in inst.players if r in inst.covets[p]] + [None] for r in rids
    ]
    best_value, best = None, None
    for owners in itertools.product(*choices):
        assignment = {p: frozenset() for p in inst.players}
        for r, owner in zip(rids, owners):
            if owner is not None:
                assignment[owner] |= {r}
        alloc = Allocation(assignment)
        value = alloc.min_value(inst) if inst.players else Fraction(0)
        if best_value is None or value > best_value:
            best_value, best = value, alloc
    return best_value, best


class _BoundReached(Exception):
    """Ends ``branch_and_bound_opt``'s search at an allocation that meets its bound."""


def branch_and_bound_opt(inst: Instance, *, upper_bound: Fraction | None = None) -> OptResult:
    """Exact OPT by assigning each resource to a coveter or to nobody, with
    branch-and-bound pruning.

    The search is pruned with the optimistic bound min_p(value_p +
    remaining potential of p), and adds and compares the instance's
    integer value table (every value times ``inst.scale``).

    ``upper_bound`` is a proven upper bound on OPT, such as T*.  OPT is a
    sum of table values, so it is at most floor(upper_bound * scale) /
    scale, and the search stops at the first allocation that reaches
    that; with no bound it exhausts the tree, which proves optimality on
    its own.  An allocation found above the bound shows that it was no
    bound, and raises ``AssertionError``.  The witness is the first
    optimal allocation in search order; a bound changes only
    ``nodes_explored``.  More than ``BRANCH_AND_BOUND_PLAYER_CAP`` players
    or ``BRANCH_AND_BOUND_RESOURCE_CAP`` resources raise ``CapError``.
    """
    if (
        len(inst.players) > BRANCH_AND_BOUND_PLAYER_CAP
        or len(inst.resources) > BRANCH_AND_BOUND_RESOURCE_CAP
    ):
        raise CapError(
            f"{len(inst.players)} players, {len(inst.resources)} resources; caps "
            f"{BRANCH_AND_BOUND_PLAYER_CAP}/{BRANCH_AND_BOUND_RESOURCE_CAP}"
        )
    bound = None if upper_bound is None else math.floor(Fraction(upper_bound) * inst.scale)
    best_value = -1
    players = inst.players
    pidx = {p: i for i, p in enumerate(players)}
    # Only resources somebody covets can matter; order by descending value.
    relevant = [
        (rid, inst.int_values[rid], [pidx[p] for p in players if rid in inst.covets[p]])
        for rid in inst.resource_ids
        if any(rid in inst.covets[p] for p in players)
    ]
    relevant.sort(key=lambda t: (-t[1], t[0]))
    n = len(relevant)
    ints = [val for _, val, _ in relevant]
    # potential[i][p] = scaled total value of resources i.. coveted by p
    potential = [[0] * len(players) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        coveters = relevant[i][2]
        potential[i] = [
            later + (ints[i] if p in coveters else 0)
            for p, later in enumerate(potential[i + 1])
        ]
    best_choice: list[int | None] | None = None
    choice: list[int | None] = [None] * n
    values = [0] * len(players)
    nodes = 0

    def dfs(i: int) -> None:
        nonlocal best_value, best_choice, nodes
        nodes += 1
        # Optimistic bound: min over p of value_p + remaining potential of p.
        if min(map(add, values, potential[i])) <= best_value:
            return
        if i == n:
            current = min(values)
            if current > best_value:
                best_value = current
                best_choice = choice[:]
                if bound is not None and current >= bound:
                    raise _BoundReached
            return
        val = ints[i]
        for p in relevant[i][2]:
            values[p] += val
            choice[i] = p
            dfs(i + 1)
            values[p] -= val
        choice[i] = None
        dfs(i + 1)

    if players:
        try:
            dfs(0)
        except _BoundReached:
            pass
    else:
        best_value = 0
    if bound is not None and best_value > bound:
        raise AssertionError(
            f"OPT >= {Fraction(best_value, inst.scale)} beats the upper bound {upper_bound}"
        )
    bundles: dict[str, list[str]] = {p: [] for p in players}
    for i, owner in enumerate(best_choice or ()):
        if owner is not None:
            bundles[players[owner]].append(relevant[i][0])
    witness = Allocation({p: tuple(sorted(b)) for p, b in bundles.items()})
    witness.validate(inst)
    opt = Fraction(max(best_value, 0), inst.scale)
    if players and witness.min_value(inst) != opt:
        raise AssertionError("oracle witness does not achieve its optimum")
    return OptResult(opt, witness, nodes)


def pairwise_build_H(inst: Instance, target, alpha) -> AllocationGraph:
    """H as ``build_H`` built it from pairs: every two vertices of distinct
    owners that share a resource make an edge, the edge set checked
    against ``allocation_graph.DEFAULT_EDGE_CAP`` as it grows, and the
    graph is ``Graph(vertices, edges)``."""
    threshold = alpha_threshold(alpha, target)
    parts = {
        p: tuple(minimal_configurations(inst, p, threshold)) for p in inst.players
    }
    by_resource: dict[str, list[tuple]] = {}
    for vs in parts.values():
        for v in vs:
            for rid in v[1]:
                by_resource.setdefault(rid, []).append(v)
    cap = allocation_graph.DEFAULT_EDGE_CAP
    edges = set()
    for touching in by_resource.values():
        for i in range(len(touching)):
            for j in range(i + 1, len(touching)):
                u, v = touching[i], touching[j]
                if u[0] != v[0]:
                    edges.add((u, v) if u < v else (v, u))
            if len(edges) > cap:
                raise CapError(f"more than {cap} edges")
    graph = Graph((v for vs in parts.values() for v in vs), edges)
    return AllocationGraph(Fraction(alpha), Fraction(target), parts, graph)


def scan_r_c(c: int) -> int:
    """r_c by scanning r down from c to the first r whose reciprocal sum
    reaches 1."""
    for r in range(c, 0, -1):
        if reciprocal_sum(r, c) >= 1:
            return r
    raise AssertionError("unreachable: r = 1 gives a sum of c >= 1")


@dataclass(frozen=True)
class HarmonicSums:
    A_r: Fraction
    B_r: Fraction
    C_r: Fraction


@dataclass(frozen=True)
class LimitConstants:
    A_limit: float
    B_limit: float
    bound: float


def check_obs_crc(c: int) -> dict[str, bool]:
    """The three r_c observations, vacuously true below their thresholds:
    (i) r_c >= c/4 for c >= 4, (ii) c >= 2 r_c + 1 for c >= 5,
    (iii) c >= 2 r_c + 2 for c >= 10."""
    r = r_c(c)
    return {
        "i": c < 4 or Fraction(r) >= Fraction(c, 4),
        "ii": c < 5 or c >= 2 * r + 1,
        "iii": c < 10 or c >= 2 * r + 2,
    }


def harmonic_number(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def harmonic_sums(r: int, c: int) -> HarmonicSums:
    """The three exact partial sums A_r, B_r, C_r of the reciprocal sum.

    A_r = H_{2r-1} - H_{ceil((3r-1)/2)-1} covers the first coefficient
    range, B_r = 3(H_{floor(9r/2)-1} - H_{4r-2}) the second, and
    C_r = 3(c-2r)/(4r-1) the constant tail (0 when c < 2r+1).
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    A = harmonic_number(2 * r - 1) - harmonic_number(math.ceil(Fraction(3 * r - 1, 2)) - 1)
    B = 3 * (harmonic_number((9 * r) // 2 - 1) - harmonic_number(4 * r - 2))
    C = Fraction(3 * (c - 2 * r), 4 * r - 1) if c >= 2 * r + 1 else Fraction(0)
    return HarmonicSums(A, B, C)


def limit_constants() -> LimitConstants:
    a = math.log(4 / 3)
    b = 3 * math.log(9 / 8)
    return LimitConstants(a, b, 10 / 3 - (4 / 3) * a - (4 / 3) * b)


def limit_bound() -> float:
    """10/3 - (4/3) ln(4/3) - 4 ln(9/8), the eps -> 0 gap bound (< 2.479)."""
    return limit_constants().bound


def has_edge(g: Graph, u, v) -> bool:
    """Whether ``u`` and ``v`` are vertices of ``g`` joined by an edge, read
    off ``g.masks``."""
    vs = g.vertices
    return u in vs and v in vs and bool((g.masks[vs.index(u)] >> vs.index(v)) & 1)


def neighbors(g: Graph, v) -> frozenset:
    """The neighbours of the vertex ``v`` of ``g``, read off ``g.masks``."""
    mask = g.masks[g.vertices.index(v)]
    return frozenset(u for j, u in enumerate(g.vertices) if (mask >> j) & 1)


def backtrack_transversal(g: AllocationGraph) -> dict[str, Configuration] | None:
    """One vertex per part of H, pairwise non-adjacent in ``g.graph``, by
    backtracking over the parts in increasing size order; None when there
    is none."""
    order = sorted(g.parts, key=lambda p: (len(g.parts[p]), p))
    if any(not g.parts[p] for p in order):
        return None
    graph = g.graph
    chosen: list = []

    def dfs(k: int) -> bool:
        if k == len(order):
            return True
        for v in g.parts[order[k]]:
            if all(not has_edge(graph, v, u) for u in chosen):
                chosen.append(v)
                if dfs(k + 1):
                    return True
                chosen.pop()
        return False

    if not dfs(0):
        return None
    return {v.owner: v for v in chosen}


def induced(g: Graph, keep) -> Graph:
    """The subgraph of ``g`` on the labels of ``keep`` that it has."""
    keep = set(keep)
    return Graph(
        [v for v in g.vertices if v in keep],
        [(u, v) for u, v in g.edges if u in keep and v in keep],
    )


def _edge_of(g: Graph, e) -> tuple:
    """``g``'s own pair for the edge ``e``, given in either orientation."""
    u, v = e
    for pair in ((u, v), (v, u)):
        if pair in g.edges:
            return pair
    raise GraphError(f"edge {e!r} not present")


def delete_edge(g: Graph, e) -> Graph:
    """G-e: the edge removed, both ends kept."""
    edge = _edge_of(g, e)
    return Graph(g.vertices, [f for f in g.edges if f != edge])


def explode_edge(g: Graph, e) -> Graph:
    """G*e: both ends of the edge and all of their neighbours removed."""
    u, v = _edge_of(g, e)
    gone = {u, v} | neighbors(g, u) | neighbors(g, v)
    return induced(g, [w for w in g.vertices if w not in gone])


def classify_all_deletions(g: Graph) -> tuple[Graph, list[DeStep]]:
    """Delete the first edge that ``classify_edge`` calls deletable, in edge
    order, until none is; each smaller graph is built from scratch."""
    steps: list[DeStep] = []
    while True:
        for edge in g.edges:
            if classify_edge(g, edge).deletable:
                steps.append(DeStep(DELETE, edge))
                g = delete_edge(g, edge)
                break
        else:
            return g, steps


def induced_hall_eta_check(graph: Graph, parts: dict) -> HallResult:
    """``hall_eta_check`` building each J|U by ``induced`` from the union of
    its parts' labels."""
    names = sorted(parts)
    for size in range(1, len(names) + 1):
        for U in itertools.combinations(names, size):
            sub = induced(graph, {v for p in U for v in parts[p]})
            if not eta_at_least(sub, len(U)):
                return HallResult(False, U)
    return HallResult(True, None)


def basic_cover(seq: DeSequence) -> tuple[Graph, frozenset[str]]:
    """Replay ``seq`` without legality checks: its end graph and its basic
    cover, the union of e u f over the exploded edges e = (u, v)."""
    g = seq.start
    cover: set[str] = set()
    for step in seq.steps:
        if step.op == EXPLODE:
            u, v = step.edge
            cover |= vertex_resources(u) | vertex_resources(v)
            g = explode_edge(g, step.edge)
        else:
            g = delete_edge(g, step.edge)
    return g, frozenset(cover)


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets (maximal simplices)."""

    vertices: tuple
    facets: tuple[frozenset, ...]


def independence_complex(g: Graph) -> SimplicialComplex:
    """Facets = maximal independent sets, via pivoting Bron-Kerbosch on
    the complement graph."""
    n = len(g.vertices)
    if n == 0:
        return SimplicialComplex((), ())
    full = (1 << n) - 1
    comp = [full & ~g.masks[i] & ~(1 << i) for i in range(n)]
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.append(r)
            return
        # pivot on the vertex of p | x with the most complement neighbours in p
        pivot = max(
            (u for u in range(n) if ((p | x) >> u) & 1),
            key=lambda u: bin(p & comp[u]).count("1"),
        )
        cand = p & ~comp[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            expand(r | bit, p & comp[v], x & comp[v])
            p &= ~bit
            x |= bit
            cand ^= bit

    expand(0, full, 0)
    labels = g.vertices
    facets = [frozenset(labels[i] for i in range(n) if (mask >> i) & 1) for mask in found]
    facets.sort(key=lambda f: tuple(sorted(f)))
    return SimplicialComplex(labels, tuple(facets))
