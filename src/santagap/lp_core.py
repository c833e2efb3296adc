"""Configuration-LP core: exact feasibility, T*, and dual certificates.

The configuration LP for target T has one column per (player, minimal
configuration) pair, a covering constraint per player and a packing
constraint per resource.  Restricting columns to inclusion-minimal
configurations is valid: shrinking a configuration only relaxes packing
constraints, and every configuration contains a minimal one.

Everything up to the returned values is integer arithmetic.  Columns
come from one search per player (``minimal_configurations``) over the
tables the instance builds once: its coveted ids by descending integer
value, their values and suffix sums (``Instance.covet_tables``, every
value times ``Instance.scale``), against a threshold T rounded up to
``Instance.int_threshold(T)``.  A model keeps them grouped by player, as
the integral search reads them.  T* candidates are the subset sums of
each table's values (``int_subset_sums``): a big-int bitset per list
when every list's integer total is below the candidate cap, else a set
per list.  A probe first looks for an integral allocation among its
columns, one per player and pairwise disjoint, in a search of at most as
many nodes as the LP has rows; such an allocation is a 0/1 primal and
proves feasibility.
Otherwise feasibility is decided by a revised, fraction-free phase-1
simplex.  It starts from a triangular crash basis, each resource row on
its slack and each player row on its first configuration disjoint from
those chosen before it, enters the column of largest pricing weight, or
Bland's smallest improving index right after a degenerate pivot, and
keeps only den * B^-1 (m x m, for m players plus resources), the
right-hand side and the prices of the rows over one common denominator,
pricing the sparse columns on demand.  Its pivot sequence is that of a
dense rational tableau, so identical inputs always pivot identically,
and only the values it returns are Fractions.

When the LP is infeasible the phase-1 dual prices form a feasible dual
solution with strictly positive objective, which is returned as the
infeasibility certificate: the surplus columns price out, so y >= 0, the
slacks do, so z >= 0, and the objective is the phase-1 optimum.

T* is the first feasible candidate of a descending scan
(``compute_t_star``) over the integer subset sums, each candidate times
``Instance.scale``; a candidate becomes a Fraction only where a
certificate or a probe needs it.  Three cheaper certificates spare most
LP probes.  The first is the capped-value dual.  With
t = ``Instance.int_threshold(T)`` and every integer value
V_r = ``Instance.int_values[r]`` capped at t, CLP(T) is infeasible
when a set P of players, one player or all of them, has coveted capped
values summing to less than |P| * t: y = 1 on P and z_r = min(V_r, t) / t
on the resources P covets satisfy every DCLP constraint (a configuration
of value at least T has an integer value at least t, so it holds a
resource with z_r = 1 or its z-weight is its integer value over t, at
least 1) and have objective |P| - sum z_r > 0.  It rules out exactly the
sums above one integer, which ``capped_value_bound`` computes in closed
form, so the scan starts below it.  The second is the fat-count dual
(``fat_count_violation``), the paper's fat/thin split priced by count:
y = 1 on every player, z = 1 on the coveted resources of integer value
at least t and 1/kappa on the other coveted ones, where kappa is the
fewest values below t that reach t in any one covet list.  It is not
monotone in T, so the scan asks it at each candidate, on the integer
sum.  The third is the Farkas certificate of the last infeasible probe,
re-checked at each lower candidate with ``verify_dual``.

The witness of T* is the primal of the probe at T*: the integral
allocation when the search found one, else the simplex's solution, which
may be fractional.  When every weight is 1, the support holds a
configuration per player, pairwise disjoint and each worth at least
T* >= OPT, so ``instance.brute_force_opt`` reads OPT = T* and its
witness off it with no search.  Otherwise it orders each player's
columns by their weight and looks for OPT there first.

The pool, column and candidate caps are this module's constants.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, neg
from typing import NamedTuple

from .instance import Instance
from .subsets import BudgetSpent, CapError, first_disjoint_choice

# Coveted resources per player: the covet lists that
# minimal_configurations searches, and whose subset sums are the T*
# candidates.
DEFAULT_POOL_CAP = 20
# Configurations from one minimal_configurations call, and the columns of
# one CLP model.
DEFAULT_COLUMN_CAP = 100_000
# Distinct subset sums of one covet list, the T* candidates.
DEFAULT_CANDIDATE_CAP = 200_000


class Configuration(NamedTuple):
    """A player's inclusion-minimal coveted set whose value reaches a threshold.

    At threshold T it is a column of CLP(T); at alpha*T it is an
    alpha-hyperedge, and itself the vertex of the allocation graph H: a
    tuple (owner, sorted resources), equal to and hashed as that plain
    pair.
    """

    owner: str
    resources: tuple[str, ...]


@dataclass
class ClpModel:
    """CLP(target): ``by_player`` holds each player's columns, the players
    in order, as ``minimal_configurations`` returns them."""

    target: Fraction
    by_player: list[list[Configuration]]
    players: tuple[str, ...]
    resource_ids: tuple[str, ...]

    @property
    def columns(self) -> list[Configuration]:
        """Every column, player by player: the LP's column order."""
        return [cfg for part in self.by_player for cfg in part]

    def player_columns(
        self, primal: dict[Configuration, Fraction] | None = None
    ) -> list[list[Configuration]]:
        """Each player's columns, the players in order: the support of
        ``primal`` first, by descending weight, then the other columns in
        column order.  Without a primal it is ``by_player`` itself, which
        the caller must not change."""
        if not primal:
            return self.by_player
        parts: dict[str, list[Configuration]] = {p: [] for p in self.players}
        for cfg in sorted(primal, key=primal.get, reverse=True):
            parts[cfg.owner].append(cfg)
        for part, cols in zip(parts.values(), self.by_player):
            part.extend(cfg for cfg in cols if cfg not in primal)
        return list(parts.values())


@dataclass
class DualSolution:
    """DCLP variables: y per player, z per resource, objective sum(y)-sum(z).

    Entries are Fractions or ints.  The objective is one integer sum, every
    entry times the lcm of all the y and z denominators, divided by that
    lcm once: the same exact value as a sum of Fractions.
    """

    y: dict[str, Fraction]
    z: dict[str, Fraction]

    @property
    def objective(self) -> Fraction:
        scale, y, z = _dual_integers(self)
        return Fraction(sum(y.values()) - sum(z.values()), scale)


def _dual_integers(sol: DualSolution) -> tuple[int, dict[str, int], dict[str, int]]:
    """The lcm of every y and z denominator, and y and z times it."""
    scale = math.lcm(
        *(v.denominator for v in sol.y.values()),
        *(v.denominator for v in sol.z.values()),
    )
    y = {p: v.numerator * (scale // v.denominator) for p, v in sol.y.items()}
    z = {r: v.numerator * (scale // v.denominator) for r, v in sol.z.items()}
    return scale, y, z


@dataclass
class LpFeasibilityResult:
    feasible: bool
    primal: dict[Configuration, Fraction] | None
    infeasibility_certificate: DualSolution | None
    model: ClpModel | None = field(repr=False, default=None)


@dataclass
class TStarResult:
    t_star: Fraction
    sums: list[int]  # int_subset_sums, ascending: the candidates times scale
    scale: int
    feasibility_witness: LpFeasibilityResult
    probes: int = 0

    @property
    def candidates_examined(self) -> int:
        return len(self.sums)


@dataclass
class DualCheck:
    feasible: bool
    objective: Fraction
    violated: Configuration | None


# ---------------------------------------------------------------------------
# Column enumeration
# ---------------------------------------------------------------------------

def minimal_configurations(
    inst: Instance, player: str, threshold: Fraction
) -> list[Configuration]:
    """All minimal configurations of a player at ``threshold``.

    A search over the player's ``Instance.covet_tables`` entry, the
    resources by descending integer value: a branch adds resources in
    table order and is recorded, and closed, where its sum first reaches
    ``inst.int_threshold(threshold)``, and is cut where the rest of the
    table cannot reach it.  For positive values this yields exactly the
    inclusion-minimal sets, each once: dropping any resource of a
    recorded set leaves a sum no larger than the one before its last
    resource, which fell short.  A threshold <= 0 gives the one empty
    configuration.  More than ``DEFAULT_POOL_CAP`` coveted resources, or
    more than ``DEFAULT_COLUMN_CAP`` configurations, raise ``CapError``.

    Sorted by (size, resources): the order fixes the simplex's crash
    basis and pivot sequence over CLP columns and the transversal search
    over the parts of H.  A single-resource configuration holds the
    table's ``singles`` tuple, the same object on every call.
    """
    ids, values, suffix, singles = inst.covet_tables[player]
    n = len(ids)
    if n > DEFAULT_POOL_CAP:
        raise CapError(f"{n} items exceeds cap {DEFAULT_POOL_CAP}")
    need = inst.int_threshold(threshold)
    if need <= 0:
        return [Configuration(player, ())]
    cap = DEFAULT_COLUMN_CAP
    found: list[tuple[str, ...]] = []
    # Open branches: (next table index, integer value still needed, chosen).
    # Each takes ids[j] for every j from its index while the rest of the
    # table can still reach the need; suffix falls with j, so once it
    # falls short every later j does.  Taking ids[j] either closes the
    # branch or opens one that continues after j.
    branches = [(0, need, ())]
    while branches:
        i, need, chosen = branches.pop()
        for j in range(i, n):
            if suffix[j] < need:
                break
            if values[j] >= need:
                found.append(tuple(sorted(chosen + (ids[j],))) if chosen else singles[j])
            else:
                branches.append((j + 1, need - values[j], chosen + (ids[j],)))
        if len(found) > cap:
            raise CapError(f"more than {cap} minimal subsets")
    found.sort()
    found.sort(key=len)
    # tuple.__new__ builds each named tuple without a Python-level __new__.
    return [tuple.__new__(Configuration, (player, resources)) for resources in found]


def build_clp_model(inst: Instance, target: Fraction) -> ClpModel:
    by_player = [minimal_configurations(inst, p, target) for p in inst.players]
    count = sum(map(len, by_player))
    if count > DEFAULT_COLUMN_CAP:
        raise CapError(f"{count} columns exceeds cap {DEFAULT_COLUMN_CAP}")
    return ClpModel(Fraction(target), by_player, inst.players, inst.resource_ids)


# ---------------------------------------------------------------------------
# Exact phase-1 simplex
# ---------------------------------------------------------------------------

def _phase1_simplex(
    nrows: int,
    columns: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Minimize the artificial sum of {Ax = 1, x >= 0} given sparse integer columns.

    Each column is (row indices, coefficients), two tuples of one length,
    so that a dot product is one C-level ``sum(map(mul, ...))``.  Returns
    (optimum, x values for the given columns, dual prices pi).

    The start is a triangular crash basis.  A row that has a unit column
    (its only entry a 1 in that row, such as a packing row's slack)
    starts with the first one basic.  Then each row still on its
    artificial, in row order, starts on the first column whose entry
    there is 1 and whose other entries are 1 on rows still on their unit
    column at rhs 1; those rows drop to rhs 0.  On a CLP this puts each
    player row on its first configuration disjoint from those chosen
    before it.  With N the off-diagonal entries of the crash columns,
    B = I + N and N^2 = 0 (N's rows are unit rows, its columns crash
    rows), so det B = 1, B^-1 = I - N, the rhs is 0/1 and the prices are
    c_B: every start value is an exact integer.  Every other row starts
    on an artificial variable, appended internally.  Artificials are
    barred from entering, so one that leaves never returns, and a row
    that starts on a given column has none to enter.

    Pricing takes the column of largest pricing weight, ties to the
    lowest index (Dantzig), except right after a degenerate pivot (the
    leaving row's rhs 0), where it takes the first column with a positive
    weight (Bland).  The leaving row is always Bland's: the least ratio,
    ties to the lowest basic column, artificials last.  So the simplex
    terminates.  A pivot that is not degenerate lowers the objective, so
    a cycle would be made of degenerate pivots only, each of which
    follows a degenerate pivot and is therefore chosen by Bland's rule;
    no artificial can leave inside it, as it could not re-enter; and
    Bland's theorem (Math. OR 1977) excludes such a cycle.

    A revised, fraction-free simplex (Edmonds 1967; Bareiss 1968).  With
    ``den`` the previous pivot element (det B = 1 at the start), it keeps
    three integer arrays: ``inv`` = den * B^-1 (m x m, the artificial
    block of the full tableau), ``rhs`` = den * B^-1 * 1, and ``obj`` =
    den times the reduced costs of the artificials, whose prices give
    every other reduced cost: den * rc_j = -sum_i (den - obj[i]) * a_ij.
    A row that starts on a given column counts as having a barred
    artificial of cost 1, so its ``obj`` starts at den and its price at
    0.  The pricing weight of column j is den * -rc_j, and the entering
    column is inv * a_j.  Pivoting on p in row l keeps row l and turns
    every other row r into (p*r - d_r*row l) / den, where d is the
    entering column; every division is exact.  These are the integers a
    dense tableau over all columns would hold, so the pivot sequence and
    every returned value are those of a rational tableau.
    """
    ncols = len(columns)
    inv = [[0] * nrows for _ in range(nrows)]
    for i in range(nrows):
        inv[i][i] = 1
    rhs = [1] * nrows
    obj = [0] * nrows
    # basis[i] is the column basic in row i; artificial i is ncols + i.
    basis = list(range(ncols, ncols + nrows))
    for j, (rows, coefs) in enumerate(columns):
        if coefs == (1,) and basis[rows[0]] >= ncols:
            basis[rows[0]] = j
            obj[rows[0]] = 1
    # The crash candidates of each row on its artificial: columns of ones
    # whose every other row starts on its unit column.
    candidates: list[list[int]] = [[] for _ in range(nrows)]
    for j, (rows, coefs) in enumerate(columns):
        if coefs.count(1) == len(coefs):
            open_rows = [i for i in rows if basis[i] >= ncols]
            if len(open_rows) == 1:
                candidates[open_rows[0]].append(j)
    for i, found in enumerate(candidates):
        for j in found:
            rows = columns[j][0]
            if all(rhs[k] for k in rows if k != i):
                basis[i] = j
                obj[i] = 1
                for k in rows:
                    if k != i:
                        rhs[k] = 0
                        inv[k][i] = -1
                break
    den = 1

    bland = False
    while True:
        # Dantzig: the largest pricing weight, ties to the lowest index;
        # right after a degenerate pivot, Bland: the first positive one.
        # Basic artificials price at 0 and the others are barred, so only
        # the given columns can enter.
        price = [den - o for o in obj].__getitem__
        enter = -1
        if bland:
            for j, (rows, coefs) in enumerate(columns):
                weight = sum(map(mul, map(price, rows), coefs))
                if weight > 0:
                    enter = j
                    break
        else:
            weights = [sum(map(mul, map(price, rows), coefs)) for rows, coefs in columns]
            weight = max(weights, default=0)
            if weight > 0:
                enter = weights.index(weight)
        if enter < 0:
            break
        f = -weight
        rows, coefs = columns[enter]
        d = [sum(map(mul, map(row.__getitem__, rows), coefs)) for row in inv]
        # Ratio test b_i / d_i over d_i > 0, compared by cross-multiplying.
        leave = -1
        for i in range(nrows):
            a = d[i]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = rhs[i] * d[leave]
                rhs_leave = rhs[leave] * a
                if lhs < rhs_leave or (lhs == rhs_leave and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective unbounded below (impossible)")
        piv = d[leave]
        prow, pb = inv[leave], rhs[leave]
        bland = pb == 0
        for i in range(nrows):
            if i == leave:
                continue
            g = d[i]
            if g:
                inv[i] = [(a * piv - g * b) // den for a, b in zip(inv[i], prow)]
                rhs[i] = (rhs[i] * piv - g * pb) // den
            elif piv != den:
                inv[i] = [a * piv // den for a in inv[i]]
                rhs[i] = rhs[i] * piv // den
        obj = [(a * piv - f * b) // den for a, b in zip(obj, prow)]
        den = piv
        basis[leave] = enter

    # The phase-1 optimum is c_B B^-1 1 = sum_i pi_i over the unit rhs.
    optimum = Fraction(sum(den - o for o in obj), den)
    x = [Fraction(0)] * ncols
    for i, bj in enumerate(basis):
        if bj < ncols:
            x[bj] = Fraction(rhs[i], den)
    # pi_i = cost(artificial_i) - reduced_cost(artificial_i)
    pi = [Fraction(den - o, den) for o in obj]
    return optimum, x, pi


def clp_feasible(inst: Instance, target: Fraction) -> LpFeasibilityResult:
    """Exact feasibility of CLP(target); certificate on either outcome.

    Feasible: a primal solution satisfying every covering and packing
    constraint exactly.  Infeasible: a feasible dual solution with
    strictly positive objective (the phase-1 Farkas certificate).

    An integral allocation is tried first (``_integral_primal``): one
    column per player, pairwise disjoint, is a 0/1 primal and proves
    feasibility with no LP.  Only when that search finds none, or gives
    up, does the phase-1 simplex decide (``_simplex_feasible``), so every
    infeasible answer and every certificate is the simplex's, while a
    feasible answer's primal may be either.
    """
    model = build_clp_model(inst, target)
    primal = _integral_primal(model, inst.resource_bits)
    if primal is None:
        return _simplex_feasible(inst, model)
    _check_primal(inst, model, primal)
    return LpFeasibilityResult(True, primal, None, model)


def _integral_primal(
    model: ClpModel, bits: dict[str, int]
) -> dict[Configuration, Fraction] | None:
    """Weight 1 on one column per player, the columns pairwise disjoint.

    The choice is ``subsets.first_disjoint_choice`` over
    ``model.player_columns()`` with the resource bits ``bits`` (the
    instance's ``resource_bits``), within as many search nodes as the LP
    has rows (players plus resources): enough for a choice found with
    little backtracking, and small beside the simplex.  None when no
    choice exists or the search spends that budget.
    """
    try:
        choice, _ = first_disjoint_choice(
            model.player_columns(),
            bits,
            budget=len(model.players) + len(model.resource_ids),
        )
    except BudgetSpent:
        return None
    if choice is None:
        return None
    return {cfg: Fraction(1) for cfg in choice}


def _simplex_feasible(inst: Instance, model: ClpModel) -> LpFeasibilityResult:
    """CLP feasibility of ``model`` decided by ``_phase1_simplex`` alone."""
    players = model.players
    resource_ids = model.resource_ids
    prow = {p: i for i, p in enumerate(players)}
    rrow = {r: len(players) + i for i, r in enumerate(resource_ids)}
    nrows = len(players) + len(resource_ids)

    configurations = model.columns
    columns: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for cfg in configurations:
        rows = (prow[cfg.owner], *map(rrow.__getitem__, cfg.resources))
        columns.append((rows, (1,) * len(rows)))
    columns += [((prow[p],), (-1,)) for p in players]  # surplus for covering rows
    columns += [((rrow[r],), (1,)) for r in resource_ids]  # slack for packing rows

    optimum, x, pi = _phase1_simplex(nrows, columns)
    if optimum == 0:
        primal = {
            cfg: x[j] for j, cfg in enumerate(configurations) if x[j] != 0
        }
        _check_primal(inst, model, primal)
        return LpFeasibilityResult(True, primal, None, model)
    y = {p: pi[prow[p]] for p in players}
    z = {r: -pi[rrow[r]] for r in resource_ids}
    certificate = DualSolution(y, z)
    if certificate.objective <= 0:
        raise AssertionError("infeasibility certificate has non-positive objective")
    return LpFeasibilityResult(False, None, certificate, model)


def _check_primal(
    inst: Instance, model: ClpModel, primal: dict[Configuration, Fraction]
) -> None:
    """Weights >= 0, covering >= 1 and packing <= 1, exactly: one pass over
    the support adds the weights times the lcm of their denominators."""
    scale = math.lcm(*(w.denominator for w in primal.values()))
    covered = dict.fromkeys(model.players, 0)
    packed = dict.fromkeys(model.resource_ids, 0)
    for cfg, weight in primal.items():
        w = weight.numerator * (scale // weight.denominator)
        if w < 0:
            raise AssertionError("negative primal weight")
        covered[cfg.owner] += w
        for r in cfg.resources:
            packed[r] += w
    for p, total in covered.items():
        if total < scale:
            raise AssertionError(f"covering constraint violated for {p}")
    for r, total in packed.items():
        if total > scale:
            raise AssertionError(f"packing constraint violated for {r}")


# ---------------------------------------------------------------------------
# T*
# ---------------------------------------------------------------------------

def subset_sum_candidates(inst: Instance) -> list[Fraction]:
    """Distinct positive subset-sum values of the covet lists, ascending.

    CLP(T) feasibility changes only where some configuration family
    changes, i.e. at these thresholds, so T* is always one of them
    (or 0 when none is feasible).
    """
    return [Fraction(s, inst.scale) for s in int_subset_sums(inst)]


def int_subset_sums(inst: Instance) -> list[int]:
    """``subset_sum_candidates`` on the integer value table, ascending.

    Each covet list's sums are grown one value at a time from its
    ``CovetTable.values``, in one of two ways chosen from the input.  When
    every list's integer total (``CovetTable.suffix[0]``) is below
    ``DEFAULT_CANDIDATE_CAP``, a list's sums are the set bits of one big
    int (``acc |= acc << v``), at most total + 1 bits wide; the lists are
    ORed together and the set bits read once.  Such a list has at most
    total + 1 <= ``DEFAULT_CANDIDATE_CAP`` sums, so no count is checked.
    Otherwise each list's sums are a set, which is as large as the number
    of distinct sums whatever their size (one value of 1/10**9 makes a
    total past 10**9), and a list of more than ``DEFAULT_CANDIDATE_CAP``
    sums raises ``CapError``.
    """
    tables = inst.covet_tables
    bitset = all(table.suffix[0] < DEFAULT_CANDIDATE_CAP for table in tables.values())
    bits = 1
    sums: set[int] = set()
    for p, table in tables.items():
        if len(table.values) > DEFAULT_POOL_CAP:
            raise CapError(f"covet list of {p!r} exceeds cap {DEFAULT_POOL_CAP}")
        if bitset:
            acc = 1
            for v in table.values:
                acc |= acc << v
            bits |= acc
        else:
            found = {0}
            for v in table.values:
                found |= {s + v for s in found}
                if len(found) > DEFAULT_CANDIDATE_CAP:
                    raise CapError(f"more than {DEFAULT_CANDIDATE_CAP} subset sums")
            sums |= found
    if bitset:
        return [s for s, bit in enumerate(f"{bits:b}"[-2::-1], 1) if bit == "1"]
    sums.discard(0)
    return sorted(sums)


def capped_value_bound(inst: Instance) -> int:
    """The largest integer t at which the capped-value dual rules out no
    target: a target whose ``int_threshold`` is t passes exactly when
    t <= this bound.  ``Instance`` refuses an empty player list, so it exists.

    The dual is priced at t, a target's ``int_threshold``.  For a set P
    of players, either one player or all of them, y = 1 on P and
    z_r = min(V_r, t) / t on the resources P covets (V the integer value
    table ``inst.int_values``) is DCLP-feasible, and its objective is
    positive exactly when the capped values min(V_r, t) of what P covets,
    each resource once, sum to less than |P| * t.  Priced at t, not at T,
    this holds for any target: z_r = min(v_r, T) / T is feasible only
    when T is a multiple of 1 / scale.  The oracle,
    ``tests/oracles.capped_value_violation``, sums the capped values at
    one t and names such a P.

    The bound is the lower of two bounds, one per kind of set.  A player's
    coveted values, each capped at t, sum to at least t exactly when t is
    at most their uncapped total V(C_p): if some value reaches t, its
    term alone is t, and otherwise the terms are the values.  For all n
    players, with V_1 <= ... <= V_m the coveted values (each resource
    once) and S_k the sum of the k smallest, the capped sum is the least
    of S_k + (m - k) * t over k = 0..m, so
    g(t) = sum of min(V_r, t) - n * t is at least 0 exactly when every
    S_k + (m - k - n) * t is.  A term of slope >= 0 is, for every t >= 0;
    one of negative slope is up to S_k // (n + k - m).  One pass over the
    sorted values takes the least of these.  Integer sums only.
    """
    value = inst.int_values.__getitem__
    wants = [inst.covets[p] for p in inst.players]
    bound = min(sum(map(value, w)) for w in wants)
    values = sorted(map(value, set().union(*wants)))
    n, m = len(wants), len(values)
    for k, s_k in enumerate(itertools.accumulate(values, initial=0)):
        if n + k > m:
            bound = min(bound, s_k // (n + k - m))
    return bound


def fat_count_violation(inst: Instance, t: int) -> bool:
    """Whether the fat-count dual proves CLP infeasible at the integer
    threshold t, ``inst.int_threshold(T)`` of a target T.

    Let F be the coveted resources of integer value at least t, R the
    other coveted ones, and kappa the fewest values below t of one
    player's covet list that together reach t (the least over players;
    infinite when no list's values below t reach t).  Every configuration
    of value at least T holds a resource of F, or at least kappa
    resources below t, so y = 1 on every player, z = 1 on F and
    z = 1/kappa on R (0 when kappa is infinite) is DCLP(T)-feasible.  Its
    objective n - |F| - |R|/kappa is positive exactly when
    (n - |F|) * kappa > |R|, or n > |F| when kappa is infinite.  |R| is
    one bisection of ``inst.coveted_values`` at t, and |F| the rest.  A
    player's kappa is read off its ``CovetTable``: bisecting the values
    finds the first one below t, and bisecting the suffix sums from there
    the fewest that reach t.  At t <= 0 the empty set reaches t, so
    kappa = 0 and nothing is ruled out.  Integer counts and sums only.
    Not monotone in t, so it is no bound: it must be asked at each
    threshold.
    """
    coveted = inst.coveted_values
    thin = bisect.bisect_left(coveted, t)
    slack = len(inst.players) - (len(coveted) - thin)
    if slack <= 0:
        return False
    for _, values, suffix, _ in inst.covet_tables.values():
        # Both tables fall, so bisect their negations.  From index i on
        # the values are below t, and the k largest of them reach t
        # exactly when suffix[i + k] <= suffix[i] - t.
        i = bisect.bisect_right(values, -t, key=neg)
        reach = suffix[i] - t
        if reach >= 0 and (bisect.bisect_left(suffix, -reach, i, key=neg) - i) * slack <= thin:
            return False
    return True


def compute_t_star(inst: Instance) -> TStarResult:
    """Exact T* = max{T : CLP(T) feasible} by a descending scan of candidates.

    Feasibility is monotone: a configuration at T is one at every T' < T,
    so CLP(T) feasible makes CLP(T') feasible.  The first feasible
    candidate from the top is therefore T*, and its ``clp_feasible``
    result is the witness: an integral allocation where one is found
    within the probe's search budget, else the simplex's primal.  The
    scan walks the integer sums (``int_subset_sums``) and builds the
    candidate ``Fraction(s, inst.scale)`` only for a sum that passes
    step 2.

    1. Capped-value filter.  The capped-value dual, y = 1 on a player
       set P of size k (one player or all of them; an instance has at
       least one) and z_r = min(V_r, t) / t on the resources P covets,
       rules a candidate out when
       f(t) = sum over the resources P covets of min(V_r, t) - k*t < 0 at
       t = ``int_threshold(T)``, the sum s itself.  Each f is concave (a
       sum of concave terms) with f(0) = 0, so for 0 < t < t',
       f(t) >= (t/t') f(t') + (1 - t/t') f(0) = (t/t') f(t'): f(t) < 0
       makes f(t') < 0.  The filter thus passes exactly the sums up to a
       bound, which ``capped_value_bound`` gives in closed form (its
       oracle, ``tests/oracles.capped_value_violation``, evaluates f at
       one t); every candidate above it is infeasible and is not looked
       at again.
    2. Fat-count dual.  From there down, ``fat_count_violation`` on the
       sum s itself rules out a candidate with integer counts alone, no
       Fraction and no LP.  It is not monotone in T (at a higher T
       fat resources turn thin, and joining the thin ones can bring kappa
       down), so it passes no closed-form set of sums and is asked at
       every candidate the scan reaches, first because it is the
       cheapest.
    3. Certificate reuse.  The Farkas certificate of the last infeasible
       probe is kept.  A candidate where ``verify_dual`` accepts it is
       infeasible by weak duality (its objective is positive whatever
       the target), and no LP is built.  Going down, the dual
       constraints only grow (a configuration at T' contains a minimal
       one at T < T', and z >= 0 weighs it at least as much), so once
       the certificate fails it would fail at every lower candidate: an
       older certificate is never worth trying.  A candidate ruled out
       in step 2 leaves the kept certificate as it is.
    4. Otherwise ``clp_feasible`` decides the candidate; ``probes`` counts
       those calls, whether the integral search or the simplex answered.
       Every infeasible probe runs the simplex, so each certificate kept
       in step 3 is a phase-1 Farkas certificate.

    Every skip is exact, so T*, ``candidates_examined`` and the witness
    are those of a plain bisection that probes every step.
    """
    sums = int_subset_sums(inst)
    scale = inst.scale
    probes = 0
    top = bisect.bisect_right(sums, capped_value_bound(inst))
    certificate: DualSolution | None = None
    for s in reversed(sums[:top]):
        if fat_count_violation(inst, s):
            continue
        target = Fraction(s, scale)
        if certificate is not None:
            check = verify_dual(inst, target, certificate)
            if check.feasible and check.objective > 0:
                continue
        res = clp_feasible(inst, target)
        probes += 1
        if res.feasible:
            return TStarResult(target, sums, scale, res, probes)
        certificate = res.infeasibility_certificate
    witness = clp_feasible(inst, Fraction(0))
    return TStarResult(Fraction(0), sums, scale, witness, probes + 1)


# ---------------------------------------------------------------------------
# Dual constructions and verification
# ---------------------------------------------------------------------------

def build_dual(
    inst: Instance,
    U: frozenset[str] | set[str],
    Y: frozenset[str] | set[str],
    c: Fraction,
    fat_set: frozenset[str] | set[str],
    d: Fraction | None = None,
) -> DualSolution:
    """Dual solution with y = c on U, z = c on F_U, z = v_r on Y, or
    z = min(v_r, d) on Y when ``d`` is given (the refined form, which
    needs c <= 2d).

    Without ``d`` it is feasible exactly when every thin configuration
    (one avoiding the fat set) of a player in U meets Y with value at
    least c: a configuration holding a fat resource holds one of F_U,
    priced c.  Then weak duality gives v(Y) >= c(|U|-|F_U|).
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be non-negative")
    if d is not None:
        d = Fraction(d)
        if c > 2 * d:
            raise ValueError(f"need c <= 2d, got c={c}, d={d}")
    if set(Y) & set(fat_set):
        raise ValueError("Y intersects the fat set")
    f_u = fat_for_players(inst, U, fat_set)
    zero = Fraction(0)
    y = {p: (c if p in U else zero) for p in inst.players}
    z = {}
    for rid, v in inst.resources.items():
        if rid in f_u:
            z[rid] = c
        elif rid in Y:
            z[rid] = v if d is None else min(v, d)
        else:
            z[rid] = zero
    return DualSolution(y, z)


def fat_for_players(
    inst: Instance, U, fat_set
) -> frozenset[str]:
    """F_U: fat resources coveted by at least one player of U."""
    coveted = set()
    for p in U:
        coveted |= inst.covets[p]
    return frozenset(set(fat_set) & coveted)


def verify_dual(inst: Instance, target: Fraction, sol: DualSolution) -> DualCheck:
    """Exact feasibility check of a DCLP(target) solution.

    Non-negativity plus, for every player with y_p > 0, the constraint
    y_p <= sum of z over each minimal configuration, the first violated one
    in ``minimal_configurations`` order reported.  This one pricing scan
    decides the whole constraint family: every configuration contains a
    minimal one, and with z >= 0 it weighs at least as much.

    The check runs on integers, y and z times the lcm of all their
    denominators (as ``DualSolution.objective`` sums them), which keeps
    every sign and every comparison of the rationals, so it gives the same
    exact answer and objective.
    """
    # covets has one key per player
    if sol.y.keys() != inst.covets.keys() or sol.z.keys() != inst.resources.keys():
        raise ValueError("dual solution dimensions do not match the instance")
    scale, y, z = _dual_integers(sol)
    objective = Fraction(sum(y.values()) - sum(z.values()), scale)
    if min(y.values(), default=0) < 0 or min(z.values(), default=0) < 0:
        return DualCheck(False, objective, None)
    weight = z.__getitem__
    for p in inst.players:
        yp = y[p]
        if yp == 0:
            continue
        for cfg in minimal_configurations(inst, p, target):
            if sum(map(weight, cfg.resources)) < yp:
                return DualCheck(False, objective, cfg)
    return DualCheck(True, objective, None)
