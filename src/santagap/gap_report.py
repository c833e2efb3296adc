"""Integrality-gap experiments and the convex-combination certificate.

Every report carries exact rationals rendered as "a/b"; decimals are
annotations only.  An instance whose gap exceeded the claimed bound is
a loud event: the report embeds the full instance document so the case
can be audited independently (a true exceedance would falsify the
implementation, not the theory).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import (
    Instance,
    OptResult,
    brute_force_opt,
    gen_random,
    gen_two_value,
)
from .lp_core import TStarResult, compute_t_star
from .rational import format_rational
from .subsets import CapError

SCHEMA = "santa-gap/1"

CONVEX_WEIGHTS = (
    Fraction(1, 35),
    Fraction(26, 245),
    Fraction(46, 2205),
    Fraction(38, 45),
)

GAP_BOUND = Fraction(53, 15)


class CoefficientError(ValueError):
    pass


@dataclass(frozen=True)
class CoefficientCertificate:
    """The four weighted phase inequalities combined, per explosion counter."""

    T: Fraction
    m: Fraction
    weights: tuple[Fraction, Fraction, Fraction, Fraction]
    per_variable: dict[str, Fraction]
    weights_sum: Fraction
    all_at_most_one: bool

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "T": format_rational(self.T),
            "m": format_rational(self.m),
            "weights": [format_rational(w) for w in self.weights],
            "per_variable": {
                k: format_rational(v) for k, v in self.per_variable.items()
            },
            "weights_sum": format_rational(self.weights_sum),
            "all_at_most_one": self.all_at_most_one,
        }


def phase_inequality_coefficients(T: Fraction, m: Fraction) -> list[tuple[Fraction, ...]]:
    """Right-hand-side coefficient vectors (n1..n4) of the four phase
    inequalities derived from the dual snapshots.  They need m >= 0, as
    every m(alpha) is, and T > 3m."""
    T, m = Fraction(T), Fraction(m)
    if m < 0:
        raise CoefficientError(f"need m >= 0, got m={m}")
    if T <= 3 * m:
        raise CoefficientError(f"need T > 3m, got T={T}, m={m}")
    zero = Fraction(0)
    return [
        (2 * m / (T - 3 * m), Fraction(7, 3), zero, zero),
        (m / (T - 3 * m), Fraction(7, 6), Fraction(5, 4), zero),
        (
            2 * m / (T - 2 * m),
            7 * m / (3 * (T - 2 * m)),
            5 * m / (2 * (T - 2 * m)),
            zero,
        ),
        (
            2 * m / (T - m),
            7 * m / (3 * (T - m)),
            5 * m / (2 * (T - m)),
            3 * m / (T - m),
        ),
    ]


def verify_convex_combination(T: Fraction, m: Fraction) -> CoefficientCertificate:
    """Combine the four phase inequalities with the fixed convex weights.

    At T = (53/15) m every combined coefficient is exactly 1; above it
    they are all below 1, which is what turns the cover ledger into the
    lower bound ell >= |U| - |F_U|.
    """
    T, m = Fraction(T), Fraction(m)
    rows = phase_inequality_coefficients(T, m)
    combined = [
        sum((w * row[i] for w, row in zip(CONVEX_WEIGHTS, rows)), Fraction(0))
        for i in range(4)
    ]
    per_variable = dict(zip(("n1", "n2", "n3", "n4"), combined))
    return CoefficientCertificate(
        T,
        m,
        CONVEX_WEIGHTS,
        per_variable,
        sum(CONVEX_WEIGHTS, Fraction(0)),
        all(cv <= 1 for cv in combined),
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class GapReport:
    """T* and OPT of one instance, or why they were skipped; the gap and
    the bound verdict are derived from them."""

    instance_id: str
    t_star: Fraction | None = None
    opt: Fraction | None = None
    bound_claimed: Fraction = GAP_BOUND
    skipped: str | None = None
    instance_doc: str | None = None

    @property
    def gap_infinite(self) -> bool:
        """OPT = 0, degenerate but representable (some player covets nothing)."""
        return self.skipped is None and self.opt == 0

    @property
    def gap(self) -> Fraction | None:
        """T* / OPT; None when skipped or infinite."""
        if self.skipped is not None or self.gap_infinite:
            return None
        return self.t_star / self.opt

    @property
    def bound_respected(self) -> bool | None:
        """gap <= bound_claimed (False when infinite); None when skipped."""
        if self.skipped is not None:
            return None
        return not self.gap_infinite and self.gap <= self.bound_claimed

    def to_json(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "instance": self.instance_id,
            "bound_claimed": format_rational(self.bound_claimed),
        }
        if self.skipped is not None:
            doc["skipped"] = self.skipped
            return doc
        gap = self.gap  # None exactly when infinite, once not skipped
        doc["t_star"] = format_rational(self.t_star)
        doc["opt"] = format_rational(self.opt)
        doc["gap"] = "inf" if gap is None else format_rational(gap)
        doc["gap_decimal"] = None if gap is None else round(float(gap), 6)
        doc["bound_respected"] = self.bound_respected
        if self.instance_doc is not None:
            doc["instance_doc"] = self.instance_doc
        return doc

    def to_tsv_row(self) -> str:
        if self.skipped is not None:
            return f"{self.instance_id}\tskipped\t{self.skipped}"
        gap = self.gap
        shown = "inf" if gap is None else format_rational(gap)
        return (
            f"{self.instance_id}\t{format_rational(self.t_star)}"
            f"\t{format_rational(self.opt)}\t{shown}\t{self.bound_respected}"
        )


TSV_HEADER = "instance\tt_star\topt\tgap\tbound_respected"


def t_star_and_opt(inst: Instance) -> tuple[TStarResult, OptResult]:
    """Exact T* and OPT from one LP pass and at most one OPT scan.

    ``brute_force_opt`` reads a 0/1 T* witness as OPT's witness, with
    OPT = T* and no search; otherwise its scan starts at T* on the
    witness LP's columns.  An OPT search past its node cap raises
    ``CapError`` after T* is known.
    """
    res = compute_t_star(inst)
    return res, brute_force_opt(inst, res)


def evaluate_instance(
    inst: Instance, instance_id: str, bound: Fraction = GAP_BOUND
) -> GapReport:
    """Exact T* and OPT for one instance; loud artifact on exceedance."""
    report = GapReport(instance_id, bound_claimed=bound)
    try:
        res, opt_res = t_star_and_opt(inst)
    except CapError as exc:
        report.skipped = str(exc)
        return report
    report.t_star = res.t_star
    report.opt = opt_res.opt_value
    if not report.bound_respected:
        report.instance_doc = inst.serialize()
    return report


# A random batch draws values on a grid of RANDOM_GRID steps in
# [RANDOM_VALUE_LO, RANDOM_VALUE_HI]; a two-value batch has TWO_VALUE_FAT
# unit resources and TWO_VALUE_THIN resources worth eps.
RANDOM_VALUE_LO = Fraction(1, 6)
RANDOM_VALUE_HI = Fraction(1)
RANDOM_GRID = 6
TWO_VALUE_FAT = 3
TWO_VALUE_THIN = 6


@dataclass(frozen=True)
class BatchConfig:
    """Deterministic experiment batch description.  ``num_resources`` is
    read by random batches only, ``eps`` by two-value batches only."""

    kind: str = "random"  # "random" | "two_value"
    count: int = 10
    num_players: int = 3
    num_resources: int = 7
    density: float = 0.6
    eps: Fraction = Fraction(1, 4)


def generate_batch(config: BatchConfig, seed: int) -> list[tuple[str, Instance]]:
    out = []
    for i in range(config.count):
        sub_seed = seed * 100_003 + i
        if config.kind == "random":
            inst = gen_random(
                config.num_players,
                config.num_resources,
                (RANDOM_VALUE_LO, RANDOM_VALUE_HI),
                config.density,
                sub_seed,
                grid=RANDOM_GRID,
            )
        elif config.kind == "two_value":
            inst = gen_two_value(
                config.num_players,
                config.eps,
                {
                    "num_fat": TWO_VALUE_FAT,
                    "num_thin": TWO_VALUE_THIN,
                    "density": config.density,
                },
                sub_seed,
            )
        else:
            raise ValueError(f"unknown batch kind {config.kind!r}")
        out.append((f"{config.kind}-{seed}-{i}", inst))
    return out


def run_gap_experiment(
    config: BatchConfig, bound: Fraction = GAP_BOUND, seed: int = 0
) -> list[GapReport]:
    """Evaluate a deterministic batch; order-stable by instance id."""
    reports = [
        evaluate_instance(inst, instance_id, bound)
        for instance_id, inst in generate_batch(config, seed)
    ]
    reports.sort(key=lambda r: r.instance_id)
    return reports
