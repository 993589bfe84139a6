"""Verification report: rows per identity/law, JSON round-trip, tables.

Reports carry no timestamp, so two runs with the same configuration are
byte-identical -- determinism is part of the contract, not an aspiration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

TOOL_VERSION = "0.1.0"


@dataclass
class ReportRow:
    id: str
    family: str
    eq: str
    max_residual: float | None
    tol: float | None
    status: str  # "pass" | "fail" | "skipped(<reason>)"

    def as_dict(self) -> dict:
        """The row's fields in order; they hold no containers, so none is
        copied."""
        return {"id": self.id, "family": self.family, "eq": self.eq,
                "max_residual": self.max_residual, "tol": self.tol,
                "status": self.status}


@dataclass
class VerificationReport:
    tool_version: str
    geometry: str
    geometry_hash: str
    dim: int
    jet_order: int
    seed: int
    points: int
    rows: list[ReportRow] = field(default_factory=list)

    @classmethod
    def for_geometry(cls, geometry, seed: int, points: int,
                     rows: list[ReportRow]) -> "VerificationReport":
        """The report of ``rows``, verified on ``geometry`` at ``points``
        sample points drawn with ``seed``."""
        return cls(TOOL_VERSION, geometry.name,
                   geometry_hash(geometry.spec.to_json()), geometry.dim,
                   geometry.config.order, seed, points, rows)

    @property
    def overall(self) -> str:
        return "fail" if any(r.status == "fail" for r in self.rows) else "pass"

    def to_json(self) -> str:
        doc = {
            "tool_version": self.tool_version,
            "geometry": self.geometry,
            "geometry_hash": self.geometry_hash,
            "dim": self.dim,
            "jet_order": self.jet_order,
            "seed": self.seed,
            "points": self.points,
            "rows": [r.as_dict() for r in self.rows],
            "overall": self.overall,
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        doc = json.loads(text)
        rep = VerificationReport(
            tool_version=doc["tool_version"],
            geometry=doc["geometry"],
            geometry_hash=doc["geometry_hash"],
            dim=doc["dim"],
            jet_order=doc["jet_order"],
            seed=doc["seed"],
            points=doc["points"],
            rows=[ReportRow(**{k: v for k, v in r.items()}) for r in doc["rows"]],
        )
        if doc.get("overall") != rep.overall:
            raise ValueError("inconsistent overall status in report JSON")
        return rep

    def table(self) -> str:
        head = f"{'id':38} {'family':7} {'eq':34} {'residual':>12} {'tol':>9} status"
        lines = [head, "-" * len(head)]
        for r in self.rows:
            res = "-" if r.max_residual is None else f"{r.max_residual:.3e}"
            tol = "-" if r.tol is None else f"{r.tol:.1e}"
            lines.append(f"{r.id:38} {r.family:7} {r.eq:34} {res:>12} {tol:>9} {r.status}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines)


def geometry_hash(spec_json: str) -> str:
    return hashlib.sha256(spec_json.encode()).hexdigest()[:12]
