"""Problem instances: players (at least one), valued resources, covet lists.

An instance is immutable after construction and safe to share across
threads.  Player and resource ids are strings; every ordered view is
lexicographic so that all downstream computations are deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .graphs import unique_keys
from .rational import format_rational, parse_rational
from .subsets import first_disjoint_choice


class InstanceError(ValueError):
    """Raised when instance data violates the model invariants."""


class ParseError(InstanceError):
    """Raised on malformed instance documents; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _exact(value) -> Fraction:
    """``value`` as a Fraction, without a second conversion of one."""
    return value if type(value) is Fraction else Fraction(value)


class CovetTable(NamedTuple):
    """One player's covet list as the configuration search walks it."""

    ids: tuple[str, ...]  # the coveted resources by descending value, then id
    values: tuple[int, ...]  # their ``Instance.int_values``
    suffix: tuple[int, ...]  # suffix[i] = sum(values[i:]); suffix[-1] = 0
    singles: tuple[tuple[str], ...]  # the instance's one (ids[i],) tuple, per i


@dataclass(frozen=True)
class Instance:
    """A restricted max-min allocation instance (players, resources, covets).

    Construction derives the tables every exact search reads:

    - ``scale``, the lcm of the value denominators;
    - ``int_values``, every value times ``scale``;
    - ``covet_tables``, one ``CovetTable`` per player in player order,
      which ``lp_core.minimal_configurations`` walks, whose ``singles``
      it returns as the resources of a single-resource configuration
      (one ``(rid,)`` tuple per resource, shared by every player's
      table), and whose values ``lp_core.int_subset_sums`` sums;
    - ``coveted_values``, the ``int_values`` of the resources some player
      covets, ascending, in which ``lp_core.fat_count_violation`` counts
      the fat ones by bisection;
    - ``resource_bits``, each resource id's own bit, ``1 << i`` for the
      i-th resource in resource order, from which
      ``subsets.first_disjoint_choice`` builds its masks for
      ``lp_core.clp_feasible`` and ``brute_force_opt``.

    They are built once, here, and never checked against a cap: the
    searches that read them enforce the caps.
    """

    players: tuple[str, ...]
    resources: dict[str, Fraction]
    covets: dict[str, frozenset[str]]
    scale: int = field(init=False, repr=False, compare=False)
    int_values: dict[str, int] = field(init=False, repr=False, compare=False)
    covet_tables: dict[str, CovetTable] = field(init=False, repr=False, compare=False)
    coveted_values: tuple[int, ...] = field(init=False, repr=False, compare=False)
    resource_bits: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.players:
            raise InstanceError("instance lists no players")
        if len(set(self.players)) != len(self.players):
            raise InstanceError("duplicate player id")
        resources = dict(self.resources)  # later edits by the caller do not reach it
        for rid, value in resources.items():
            if value <= 0:
                raise InstanceError(f"resource {rid!r} has non-positive value {value}")
        # Frozen copies: later edits to the caller's dict or sets do not reach it.
        covets = {pid: frozenset(wants) for pid, wants in self.covets.items()}
        for pid, wants in covets.items():
            if pid not in self.players:
                raise InstanceError(f"covet list for undeclared player {pid!r}")
            missing = wants - resources.keys()
            if missing:
                raise InstanceError(
                    f"covet list of {pid!r} references undeclared resource "
                    f"{sorted(missing)[0]!r}"
                )
        for pid in self.players:
            covets.setdefault(pid, frozenset())
        exact = [_exact(value) for value in resources.values()]
        scale = math.lcm(*(value.denominator for value in exact))
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "covets", covets)
        object.__setattr__(self, "scale", scale)
        int_values = {
            rid: v.numerator * (scale // v.denominator)
            for rid, v in zip(resources, exact)
        }
        object.__setattr__(self, "int_values", int_values)
        value = int_values.__getitem__
        single = {rid: (rid,) for rid in resources}.__getitem__
        tables = {}
        for pid in self.players:
            ids = sorted(covets[pid])
            ids.sort(key=value, reverse=True)  # stable: equal values stay in id order
            values = tuple(map(value, ids))
            suffix = [*itertools.accumulate(reversed(values), initial=0)]
            suffix.reverse()
            tables[pid] = CovetTable(
                tuple(ids), values, tuple(suffix), tuple(map(single, ids))
            )
        object.__setattr__(self, "covet_tables", tables)
        coveted = set().union(*covets.values())
        object.__setattr__(self, "coveted_values", tuple(sorted(map(value, coveted))))
        bits = {rid: 1 << i for i, rid in enumerate(resources)}
        object.__setattr__(self, "resource_bits", bits)

    @staticmethod
    def build(players, resources, covets) -> "Instance":
        """Construct a canonical (sorted) instance from loose mappings."""
        players = tuple(sorted(players))
        res = {rid: _exact(v) for rid, v in sorted(dict(resources).items())}
        cov = dict.fromkeys(players, ())
        cov.update(covets)  # a list for an undeclared player meets the check
        return Instance(players, res, cov)

    @property
    def resource_ids(self) -> tuple[str, ...]:
        return tuple(self.resources)

    def covet_list(self, player: str) -> tuple[str, ...]:
        return tuple(sorted(self.covets[player]))

    def int_threshold(self, threshold) -> int:
        """ceil(threshold * scale), the least integer sum of ``int_values``
        that reaches ``threshold``: an integer sum s reaches it exactly when
        s >= this, and falls short exactly when s < this."""
        t = _exact(threshold)
        return -(-t.numerator * self.scale // t.denominator)

    def int_value(self, ids) -> int:
        """The sum of the ``int_values`` of a set of resource ids, its
        exact total value times ``scale``."""
        try:
            return sum(map(self.int_values.__getitem__, ids))
        except KeyError as exc:
            raise InstanceError(f"unknown resource id {exc.args[0]!r}") from None

    def value(self, ids) -> Fraction:
        """Exact total value of a set of resource ids: ``int_value`` over
        ``scale``."""
        return Fraction(self.int_value(ids), self.scale)

    def serialize(self) -> str:
        """Render the canonical text document for this instance."""
        lines = ["players " + " ".join(self.players)]
        for rid, value in self.resources.items():
            lines.append(f"resource {rid} {format_rational(value)}")
        for pid in self.players:
            wants = self.covet_list(pid)
            if wants:
                lines.append(f"covets {pid} " + " ".join(wants))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "players": list(self.players),
            "resources": {r: format_rational(v) for r, v in self.resources.items()},
            "covets": {p: list(self.covet_list(p)) for p in self.players},
        }


@dataclass(frozen=True, slots=True)
class Allocation:
    """A disjoint assignment of coveted resources to players.

    Each bundle is a sorted tuple of resource ids, as the resources of a
    ``Configuration`` are; ``validate`` and ``min_value`` accept any
    sequence of ids.  A player left out of ``assignment`` holds nothing.
    """

    assignment: dict[str, tuple[str, ...]]

    def min_value(self, inst: Instance) -> Fraction:
        """The least bundle value over ``inst.players``: the least
        ``Instance.int_value`` of a bundle, over ``scale``."""
        least = min(inst.int_value(self.assignment.get(p, ())) for p in inst.players)
        return Fraction(least, inst.scale)

    def validate(self, inst: Instance) -> None:
        """Every bundle names a declared player's coveted resources, each
        once, and no resource is in two bundles."""
        seen: set[str] = set()
        for pid, got in self.assignment.items():
            if pid not in inst.players:
                raise InstanceError(f"allocation names unknown player {pid!r}")
            bundle = set(got)
            if len(bundle) != len(got):
                twice = min(r for r in bundle if got.count(r) > 1)
                raise InstanceError(f"{pid!r} allocated resource {twice!r} twice")
            if not bundle <= inst.covets[pid]:
                extra = sorted(bundle - inst.covets[pid])[0]
                raise InstanceError(f"{pid!r} allocated uncoveted resource {extra!r}")
            overlap = seen & bundle
            if overlap:
                raise InstanceError(f"resource {sorted(overlap)[0]!r} allocated twice")
            seen |= bundle


@dataclass(frozen=True, slots=True)
class OptResult:
    """Exact optimum of an instance with a witnessing allocation."""

    opt_value: Fraction
    witness: Allocation
    nodes_explored: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance document format.

    Format::

        players p1 p2 ...
        resource <id> <value as integer or a/b>
        covets <player-id> <resource-id> ...

    Lines starting with ``#`` are comments.
    """
    players: list[str] | None = None
    resources: dict[str, Fraction] = {}
    covets: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "players":
            if players is not None:
                raise ParseError("duplicate players line", lineno)
            players = tokens[1:]
            if not players:
                raise ParseError("players line lists no players", lineno)
            if len(set(players)) != len(players):
                raise ParseError("duplicate player id", lineno)
        elif kind == "resource":
            if len(tokens) != 3:
                raise ParseError("expected: resource <id> <value>", lineno)
            rid, value_text = tokens[1], tokens[2]
            if rid in resources:
                raise ParseError(f"duplicate resource id {rid!r}", lineno)
            try:
                value = parse_rational(value_text)
            except ValueError:
                raise ParseError(f"bad value {value_text!r}", lineno) from None
            if value <= 0:
                raise ParseError(f"non-positive value for resource {rid!r}", lineno)
            resources[rid] = value
        elif kind == "covets":
            if len(tokens) < 2:
                raise ParseError("expected: covets <player-id> <resource-id>...", lineno)
            pid = tokens[1]
            if players is None or pid not in players:
                raise ParseError(f"covets line for undeclared player {pid!r}", lineno)
            if pid in covets:
                raise ParseError(f"duplicate covets line for player {pid!r}", lineno)
            wants = tokens[2:]
            for rid in wants:
                if rid not in resources:
                    raise ParseError(
                        f"covet list of {pid!r} references undeclared resource {rid!r}",
                        lineno,
                    )
            covets[pid] = set(wants)
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if players is None:
        raise ParseError("missing players line")
    return Instance.build(players, resources, covets)


def _is_id(item) -> bool:
    """An id as the text format spells it: a non-empty string without whitespace."""
    return isinstance(item, str) and item.split() == [item]


def parse_instance_json(text: str) -> Instance:
    """Parse the JSON mirror of the instance document: an object with a
    ``players`` list, a ``resources`` object of id to value (a number or an
    integer/``a/b`` string) and a ``covets`` object of player to id list.
    An object that repeats a key is refused, as the text format refuses a
    repeated resource or covets line.  Only the JSON shape and the ids are
    checked here; ``Instance`` refuses a duplicate player, a non-positive
    value and a covet list of an undeclared player or resource."""
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for key in ("players", "resources", "covets"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    players = doc["players"]
    if not isinstance(players, list) or not all(map(_is_id, players)):
        raise ParseError("'players' must be a list of ids")
    for key in ("resources", "covets"):
        if not isinstance(doc[key], dict):
            raise ParseError(f"{key!r} must be an object")
    resources = {}
    for rid, value in doc["resources"].items():
        if not _is_id(rid):
            raise ParseError(f"bad resource id {rid!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ParseError(f"bad value for resource {rid!r}: {value!r}")
        try:
            resources[rid] = parse_rational(str(value))
        except ValueError:
            raise ParseError(f"bad value for resource {rid!r}: {value!r}") from None
    covets = {}
    for pid, wants in doc["covets"].items():
        if not isinstance(wants, list) or not all(map(_is_id, wants)):
            raise ParseError(f"covet list of {pid!r} must be a list of ids")
        covets[pid] = set(wants)
    return Instance.build(players, resources, covets)


def load_instance(path: str) -> Instance:
    """Load an instance from a file; .json selects the JSON mirror format."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    if path.endswith(".json"):
        return parse_instance_json(text)
    return parse_instance(text)


# ---------------------------------------------------------------------------
# Optimum
# ---------------------------------------------------------------------------

def brute_force_opt(inst: Instance, t_star) -> OptResult:
    """Exact OPT, read off a 0/1 T* witness or found by a descending scan:
    the first candidate t from the top at which every player can get a
    minimal configuration at t, these pairwise disjoint.

    ``t_star`` is ``lp_core.compute_t_star(inst)``.  OPT <= T* (the LP is
    a relaxation).  When every weight of the T* witness is 1, no search
    runs: packing makes its columns pairwise disjoint, covering gives
    each player one, and each is worth at least T*, so giving every
    player its first column of the witness is an allocation worth T*,
    and OPT = T* with ``nodes_explored`` 0.

    Otherwise OPT >= t exactly when such a choice exists: every bundle of
    an allocation worth t holds one, and the choice is an allocation
    worth t.  OPT is 0 or a subset sum of a covet list, so the scan tries
    T*, then each lower value of 0 and the candidates (``t_star.sums``
    over ``t_star.scale``), with ``subsets.first_disjoint_choice`` over
    the players in order.  At T* each player's choices are its columns
    of the witness LP, the support first by descending weight; below T*
    they are ``minimal_configurations``.  Where OPT < T*, the exhausted
    searches above OPT are the proof, and ``nodes_explored`` counts the
    nodes of every search.  The count runs on through the scan, so one
    answer costs at most ``subsets.DEFAULT_NODE_CAP`` nodes; past it,
    ``subsets.CapError``.  The witness gives each player the
    configuration the search chose for it.
    """
    # lp_core imports this module, so the import waits for the call.
    from .lp_core import minimal_configurations

    players = inst.players
    witness = t_star.feasibility_witness

    def levels():
        yield t_star.t_star, witness.model.player_columns(witness.primal)
        top = inst.int_threshold(t_star.t_star)
        for s in reversed([s for s in (0, *t_star.sums) if s < top]):
            t = Fraction(s, t_star.scale)
            yield t, [minimal_configurations(inst, p, t) for p in players]

    nodes = 0
    if all(w == 1 for w in witness.primal.values()):
        first: dict = {}
        for cfg in witness.primal:
            first.setdefault(cfg.owner, cfg)
        t, choice = t_star.t_star, [first[p] for p in players]
    else:
        for t, parts in levels():
            choice, nodes = first_disjoint_choice(parts, inst.resource_bits, nodes)
            if choice is not None:
                break
    alloc = Allocation({cfg.owner: cfg.resources for cfg in choice})
    alloc.validate(inst)
    if alloc.min_value(inst) != t:
        raise AssertionError("OPT witness does not reach OPT")
    return OptResult(t, alloc, nodes)


# ---------------------------------------------------------------------------
# Generators (deterministic under seed)
# ---------------------------------------------------------------------------

def _sample_covets(
    rng: random.Random,
    players: list[str],
    resource_ids: list[str],
    density: float,
) -> dict[str, set[str]]:
    """Sample covet rows; resample so that no player row and no resource
    column comes out empty (when the shape makes that possible).

    ``density`` must lie in [0, 1]: NaN fails every ``rng.random() <
    density`` and every ``density <= 0``, and would resample forever."""
    if not 0 <= density <= 1:
        raise InstanceError(f"density must lie in [0, 1], got {density}")
    covets: dict[str, set[str]] = {}
    for pid in players:
        row = {rid for rid in resource_ids if rng.random() < density}
        while resource_ids and not row:
            row = {rid for rid in resource_ids if rng.random() < density}
            if density <= 0:
                row = {rng.choice(resource_ids)}
        covets[pid] = row
    for rid in resource_ids:
        if players and not any(rid in covets[p] for p in players):
            covets[rng.choice(players)].add(rid)
    return covets


def gen_two_value(
    num_players: int,
    eps: Fraction,
    covet_pattern: dict | None = None,
    seed: int = 0,
) -> Instance:
    """Generate a (1, eps)-restricted instance: every value is 1 or eps.

    ``covet_pattern`` keys (all optional): ``num_fat`` (unit-value
    resources, default 1 per player), ``num_thin`` (eps-value resources,
    default 2 per player), ``density`` (covet probability, default 0.75).
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InstanceError(f"eps must lie in (0, 1), got {eps}")
    pattern = dict(covet_pattern or {})
    num_fat = pattern.get("num_fat", num_players)
    num_thin = pattern.get("num_thin", 2 * num_players)
    density = pattern.get("density", 0.75)
    rng = random.Random(seed)
    players = [f"p{i+1}" for i in range(num_players)]
    resources: dict[str, Fraction] = {}
    for i in range(num_fat):
        resources[f"f{i+1}"] = Fraction(1)
    for i in range(num_thin):
        resources[f"t{i+1}"] = eps
    covets = _sample_covets(rng, players, sorted(resources), density)
    return Instance.build(players, resources, covets)


def gen_random(
    num_players: int,
    num_resources: int,
    value_range: tuple[Fraction, Fraction],
    covet_density: float,
    seed: int = 0,
    *,
    grid: int = 12,
) -> Instance:
    """Generate a random instance with values on a rational grid.

    Values are lo + (hi-lo)*k/grid for k in 0..grid, kept strictly
    positive; small grids keep subset sums (and so the T* candidate set)
    desk-sized.
    """
    lo, hi = Fraction(value_range[0]), Fraction(value_range[1])
    if lo <= 0 or hi < lo:
        raise InstanceError(f"bad value range [{lo}, {hi}]")
    if num_resources == 0 and covet_density > 0:
        raise InstanceError("cannot covet among zero resources")
    rng = random.Random(seed)
    players = [f"p{i+1}" for i in range(num_players)]
    resources = {
        f"r{i+1}": lo + (hi - lo) * Fraction(rng.randint(0, grid), grid)
        for i in range(num_resources)
    }
    covets = _sample_covets(rng, players, sorted(resources), covet_density)
    return Instance.build(players, resources, covets)
