"""Classification pipelines: single pairs and batch runs.

A pair (g, h) runs through: build, isotropy weights, symmetry test, Wolf
recognition, splitting search, case analysis and, on an irreducible g
other than G2, the constraint values; a verdict is then assigned with
precedence

  not_eligible > no_splitting > wolf_space > so7_u3 > s2xs2_type
  > symmetric_candidate

Weight-level positives that the classification excludes only by non-weight
arguments are surfaced honestly as symmetric_candidate.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import catalog
from .catalog import build_sum, parse_label_sum
from .linalg import Vector
from .rootcore import CartanLabel, ClosedSubsystem, RootsplitError, RootSystem
from .splitting import (
    CaseTag,
    ConstraintReport,
    EmptyWeights,
    SplittingCertificate,
    case_analysis,
    check_constraints,
    find_splittings,
)
from .subalgebra import (
    closed_subsystem,
    enumerate_closed_subsystems,
    is_symmetric_pair,
    is_wolf_pair,
    isotropy_weights,
)

SCHEMA_VERSION = 1

VERDICTS = (
    "not_eligible",
    "no_splitting",
    "wolf_space",
    "s2xs2_type",
    "so7_u3",
    "symmetric_candidate",
)


class ParseError(RootsplitError):
    """Unparseable g or h specification string."""


class InvariantViolation(RootsplitError):
    """A report is inconsistent with its own invariants (exit code 2)."""


class PairReport(NamedTuple):
    g_label: str
    h_description: str
    dim_M: int
    quaternionic_n: Fraction
    eligible: bool
    symmetric: bool
    is_wolf: bool
    certificates: tuple[SplittingCertificate, ...]
    verdict: str
    cases: tuple[CaseTag, ...]
    constraints: tuple[ConstraintReport, ...]


class ClassificationReport(NamedTuple):
    """The pairs of one batch, sorted, and what the batch visited; it
    holds no timing, so two runs of one batch give equal reports (the CLI
    times classify_all itself)."""

    max_rank: int
    pairs: tuple[PairReport, ...]
    systems_visited: int
    subsystems_enumerated: int


def check_report_invariants(report: PairReport) -> None:
    """Raise InvariantViolation if verdict and fields disagree."""
    v = report.verdict
    if v not in VERDICTS:
        raise InvariantViolation(f"unknown verdict {v}")
    if len(report.cases) != len(report.certificates):
        raise InvariantViolation("one case tag per certificate required")
    if v == "no_splitting" and report.certificates:
        raise InvariantViolation("no_splitting with certificates present")
    if v == "wolf_space" and not (report.is_wolf and report.certificates):
        raise InvariantViolation("wolf_space requires is_wolf and certificates")
    if v == "so7_u3":
        if report.symmetric or not report.certificates:
            raise InvariantViolation("so7_u3 must be non-symmetric with certificates")
        if not any(t.tag == "case_d3" for t in report.cases):
            raise InvariantViolation("so7_u3 requires a case_d3 tag")
    if v == "symmetric_candidate" and report.is_wolf:
        raise InvariantViolation("symmetric_candidate cannot be a Wolf pair")


def _sorted_labels(text: str) -> list[CartanLabel]:
    try:
        return sorted(parse_label_sum(text))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_g_spec(g_spec: str) -> RootSystem:
    """Build g from a direct-sum label string such as 'B3' or 'A1+A1', its
    factors in sorted order, the order of g.name."""
    return build_sum(_sorted_labels(g_spec))


def parse_root_list(text: str) -> list[Vector]:
    """A JSON list of root vectors of one length, each a JSON list of
    rationals as numbers or 'p/q' strings."""
    try:
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("expected a JSON list of lists")
        roots = [tuple(Fraction(str(c)) for c in row) for row in rows]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad root list: {exc}") from exc
    if len({len(r) for r in roots}) > 1:
        raise ParseError("bad root list: rows have different lengths")
    return roots


def parse_h_spec(g: RootSystem, h_spec: str) -> ClosedSubsystem:
    """Resolve an h specification against the parent g.

    Grammar: 'torus' (the empty subsystem, h = maximal torus), 'wolf'
    (highest-root normalizer), 'TYPE#k' (k-th Weyl class with that
    component type, e.g. 'A2#0'), or a JSON list of root vectors with
    rationals as 'p/q' strings.
    """
    h_spec = h_spec.strip()
    if h_spec == "torus":
        return closed_subsystem(g, ())
    if h_spec == "wolf":
        return g.wolf
    if h_spec.startswith("["):
        return closed_subsystem(g, parse_root_list(h_spec))
    if "#" in h_spec:
        type_part, _, idx_part = h_spec.rpartition("#")
        if not idx_part.isdigit():
            raise ParseError(f"bad subsystem index in {h_spec!r}")
        wanted = tuple(_sorted_labels(type_part))
        matches = [
            h for h in enumerate_closed_subsystems(g, dedup=True)
            if h.positions and g.types_of(h.positions, h.base) == wanted
        ]
        k = int(idx_part)
        if k >= len(matches):
            raise ParseError(
                f"no subsystem {h_spec!r}: only {len(matches)} classes of type {type_part}"
            )
        return matches[k]
    raise ParseError(f"cannot parse subsystem spec {h_spec!r}")


def describe_subsystem(h: ClosedSubsystem) -> str:
    """Deterministic human-readable description: component types plus the
    central torus rank, e.g. 'A1+A1+T1' or 'torus(T3)'. The types are read
    on the parent's lattice keys from the simple roots that h was built
    with (RootSystem.types_of), so they are not found again."""
    if not h.positions:
        return f"torus(T{h.torus_corank})"
    parts = [str(t) for t in h.parent.types_of(h.positions, h.base)]
    if h.torus_corank:
        parts.append(f"T{h.torus_corank}")
    return "+".join(parts)


def classify_subsystem(h: ClosedSubsystem) -> PairReport:
    """Full pipeline for one equal-rank pair (g, h), g = h.parent."""
    g = h.parent
    w = isotropy_weights(h)
    if w.dim_M == 0:
        raise EmptyWeights("h = g: the quotient is a point")

    eligible = w.dim_M % 4 == 0
    symmetric = is_symmetric_pair(w)
    wolf = g.irreducible and is_wolf_pair(h)

    certificates: tuple[SplittingCertificate, ...] = ()
    cases: tuple[CaseTag, ...] = ()
    constraints: tuple[ConstraintReport, ...] = ()
    if eligible:
        certificates = tuple(find_splittings(w))
        cases = tuple(case_analysis(w, c) for c in certificates)
        if certificates and g.irreducible and g.name != "G2":
            constraints = tuple(check_constraints(g, c) for c in certificates)

    verdict = _assign_verdict(eligible, symmetric, wolf, certificates, cases, h)
    report = PairReport(
        g.name,
        describe_subsystem(h),
        w.dim_M,
        w.quaternionic_n,
        eligible,
        symmetric,
        wolf,
        certificates,
        verdict,
        cases,
        constraints,
    )
    check_report_invariants(report)
    return report


def _assign_verdict(eligible, symmetric, wolf, certificates, cases, h):
    g = h.parent
    if not eligible:
        return "not_eligible"
    if not certificates:
        return "no_splitting"
    if wolf:
        return "wolf_space"
    if g.irreducible:
        if not symmetric and g.name == "B3" and any(t.tag == "case_d3" for t in cases):
            return "so7_u3"
        if symmetric:
            return "symmetric_candidate"
        raise InvariantViolation(
            "non-symmetric splitting on an irreducible pair outside the "
            "classification; weights falsify an internal invariant"
        )
    # reducible g: only (A1+A1, torus) is a confirmed product positive
    if g.name == "A1+A1" and not h.positions:
        return "s2xs2_type"
    return "symmetric_candidate"


def classify_pair(g_spec: str, h_spec: str) -> PairReport:
    """Classify one pair given CLI spec strings."""
    g = parse_g_spec(g_spec)
    return classify_subsystem(parse_h_spec(g, h_spec))


def _product_labels(max_rank: int, series) -> list[tuple[CartanLabel, ...]]:
    """The factors of each product of rank <= max_rank, in sorted order."""
    simples = catalog.simple_labels_up_to(max_rank - 1, series)
    return [
        combo
        for size in range(2, max_rank + 1)
        for combo in itertools.combinations_with_replacement(simples, size)
        if sum(l.rank for l in combo) <= max_rank
    ]


def classify_all(
    max_rank: int,
    series: Iterable[str] | None = None,
    include_products: bool = False,
) -> ClassificationReport:
    """Classify every equal-rank pair over the catalog up to max_rank.

    Simple g by default; products of total rank <= max_rank when
    requested. Subsystems are enumerated up to Weyl equivalence, so the
    rank cap of the Weyl machinery applies.
    """
    if max_rank > catalog.WEYL_RANK_CAP:
        raise ValueError(f"classify_all is capped at rank {catalog.WEYL_RANK_CAP}")
    if max_rank < 1:
        raise ValueError(f"max rank {max_rank} is below 1")
    unknown = sorted(
        {s for s in series or () if len(s) != 1 or s.upper() not in catalog.SERIES}
    )
    if unknown:
        raise ValueError(f"unknown series {', '.join(unknown)}: the series are {catalog.SERIES}")
    groups = [catalog.build(lab) for lab in catalog.simple_labels_up_to(max_rank, series)]
    if include_products:
        groups += map(build_sum, _product_labels(max_rank, series))

    pairs = []
    n_subsystems = 0
    for g in groups:
        subsystems = enumerate_closed_subsystems(g)
        n_subsystems += len(subsystems)
        for h in subsystems:
            w_size = len(g.ints) - len(h.positions)
            if w_size == 0 or w_size % 4:  # h = g, or not eligible
                continue
            pairs.append(classify_subsystem(h))

    pairs.sort(key=lambda p: (p.g_label, p.h_description, p.dim_M))
    return ClassificationReport(max_rank, tuple(pairs), len(groups), n_subsystems)

