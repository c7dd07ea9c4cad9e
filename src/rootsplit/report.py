"""Deterministic report serialization: json, table and csv.

Rationals are serialized as exact strings ('3/4', '-1', ...). Timing is
never part of the emitted bytes, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json

from .linalg import format_rational, format_vector
from .pipeline import (
    SCHEMA_VERSION,
    ClassificationReport,
    InvariantViolation,
    PairReport,
    check_report_invariants,
)
from .splitting import SplittingCertificate

FORMATS = ("json", "table", "csv")


def certificate_dict(cert: SplittingCertificate, case: str | None = None) -> dict:
    d = {
        "beta": format_vector(cert.beta, cert.scale),
        "alphas": [format_vector(a, cert.scale) for a in cert.alphas],
        "n": cert.n,
    }
    if case is not None:
        d["case"] = case
    return d


def pair_dict(p: PairReport) -> dict:
    d = {
        "g": p.g_label,
        "h": p.h_description,
        "dim_M": p.dim_M,
        "quaternionic_n": format_rational(p.quaternionic_n),
        "eligible": p.eligible,
        "symmetric": p.symmetric,
        "is_wolf": p.is_wolf,
        "verdict": p.verdict,
        "certificates": [
            certificate_dict(c, t.tag) for c, t in zip(p.certificates, p.cases)
        ],
    }
    if p.constraints:
        d["constraints"] = [
            {
                "pairings": [format_rational(x) for x in r.pairings],
                "beta_norm2": format_rational(r.beta_norm2),
                "ok": r.ok,
            }
            for r in p.constraints
        ]
    return d


def _pair_row(p: PairReport) -> list[str]:
    return [
        p.g_label,
        p.h_description,
        str(p.dim_M),
        format_rational(p.quaternionic_n),
        "yes" if p.eligible else "no",
        "yes" if p.symmetric else "no",
        "yes" if p.is_wolf else "no",
        str(len(p.certificates)),
        ";".join(t.tag for t in p.cases),
        p.verdict,
    ]


_COLUMNS = ["g", "h", "dim_M", "n", "eligible", "symmetric", "wolf",
            "certs", "cases", "verdict"]


def _render_table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in [_COLUMNS] + rows) for i in range(len(_COLUMNS))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(_COLUMNS, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def emit(report: PairReport | ClassificationReport,
         format: str = "json") -> tuple[bytes, int]:
    """Serialize a report. Returns (bytes, exit_code); exit code 2 flags an
    internal invariant violation detected at emit time."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    pairs = report.pairs if isinstance(report, ClassificationReport) else (report,)
    code = 0
    try:
        for p in pairs:
            check_report_invariants(p)
    except InvariantViolation:
        code = 2

    if format == "json":
        if isinstance(report, ClassificationReport):
            doc = {
                "schema_version": SCHEMA_VERSION,
                "kind": "classification",
                "max_rank": report.max_rank,
                "systems_visited": report.systems_visited,
                "subsystems_enumerated": report.subsystems_enumerated,
                "pairs": [pair_dict(p) for p in report.pairs],
            }
        else:
            doc = {"schema_version": SCHEMA_VERSION, "kind": "pair", **pair_dict(report)}
        data = (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode()
    elif format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for p in pairs:
            writer.writerow(_pair_row(p))
        data = buf.getvalue().encode()
    else:
        data = _render_table([_pair_row(p) for p in pairs]).encode()
    return data, code
