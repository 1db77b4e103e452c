"""One benchmark op and the oracle that checks its result.

An op takes one generated document through the stages its item names:
load, ``verify_bd_triad``, ``reduce_triad``, ``synthesize_tet`` and
``save_tet_module``.  Every library call goes through the module attribute,
so the tracer's rebinding sees it.  ``check`` compares the outcome with the
expectation the generator stored next to the document and returns every
mismatch; an op fails when it raised unexpectedly or any check fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from triadtet import bdverify, io, reduction, synthesis
from triadtet.linalg import RMatrix


@dataclass
class Outcome:
    """Everything an op produced, for the oracle to judge."""

    verdict: object = None
    reduced: object = None
    witnesses: tuple = ()
    synthesis: object = None
    saved_matches: bool | None = None
    error: BaseException | None = None


def load_candidate(path) -> tuple[RMatrix, RMatrix, RMatrix]:
    """Three matrices of possibly unequal size, entries parsed by the library."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return tuple(
        RMatrix([[io.parse_rational(v) for v in row] for row in data[key]])
        for key in ("A", "Aprime", "Adprime")
    )


def execute(item) -> Outcome:
    """Run one op; an exception is caught and kept in the outcome."""
    out = Outcome()
    try:
        if item.loader == "triad":
            matrices = io.load_triad(item.path).matrices()
        else:
            matrices = load_candidate(item.path)
        out.verdict = bdverify.verify_bd_triad(*matrices)
        if not out.verdict or "reduce" not in item.stages:
            return out
        out.reduced, out.witnesses = reduction.reduce_triad(out.verdict)
        if "synthesize" not in item.stages:
            return out
        out.synthesis = synthesis.synthesize_tet(out.reduced)
        target = item.path.with_suffix(".module.json")
        io.save_tet_module(
            io.TetModuleDocument.from_module(out.synthesis.module), target
        )
        saved = io.load_tet_module(target).to_module()
        out.saved_matches = saved == out.synthesis.module
    except Exception as exc:  # the oracle decides whether this was expected
        out.error = exc
    return out


def _sequences(cert) -> list[list[str]]:
    return [[io.format_rational(v) for v in seq] for seq in cert.sequences]


def check(item, out: Outcome) -> list[str]:
    """Every way ``out`` differs from ``item.expected``; empty when correct."""
    exp = item.expected
    kind = exp["outcome"]
    if kind == "raises":
        if type(out.error).__name__ != exp["exception"]:
            return [f"expected {exp['exception']}, got {out.error!r} / {out.verdict}"]
        return []
    if out.error is not None:
        return [f"raised {out.error!r}"]
    verdict = out.verdict
    if kind == "refutation":
        if not isinstance(verdict, bdverify.Refutation):
            return [f"expected refutation ({exp['clause']}), got {verdict!r}"]
        if verdict.clause != exp["clause"]:
            return [f"expected clause {exp['clause']}, got {verdict.clause}"]
        return []

    if not isinstance(verdict, bdverify.TriadCertificate):
        return [f"expected a certificate, got {verdict}"]
    d = exp["diameter"]
    bad = []
    for name in ("diameter", "thin", "reduced"):
        if getattr(verdict, name) != exp[name]:
            bad.append(f"{name}: expected {exp[name]}, got {getattr(verdict, name)}")
    if _sequences(verdict) != exp["sequences"]:
        bad.append(f"sequences: expected {exp['sequences']}, got {_sequences(verdict)}")
    canonical = [Fraction(2 * i - d) for i in range(d + 1)]
    if exp["reduce"]:
        red = out.reduced
        if not isinstance(red, bdverify.TriadCertificate):
            bad.append(f"reduction returned {red!r}")
        elif not (red.reduced and red.thin and red.diameter == d):
            bad.append("reduced certificate is not thin, reduced, of diameter d")
        for (r, s), seq in zip(out.witnesses, exp["sequences"]):
            if [r * io.parse_rational(v) + s for v in seq] != canonical:
                bad.append(f"witness ({r}, {s}) does not map {seq} to 2i - d")
        if len(out.witnesses) != 3:
            bad.append(f"expected 3 witnesses, got {len(out.witnesses)}")
    if exp["synthesize"]:
        res = out.synthesis
        if res is None:
            return bad + ["no synthesis result"]
        if not res.report.passed:
            bad.append("module fails its 54 relations")
        if res.diameter != d or res.algebra_dimension != (d + 1) ** 2:
            bad.append(
                f"diameter {res.diameter}, algebra dimension {res.algebra_dimension}"
            )
        corners = res.corner_certificates
        if len(corners) != 4 or not all(
            c.reduced and c.diameter == d for c in corners
        ):
            bad.append("corner triads are not four reduced certificates")
        if out.saved_matches is not True:
            bad.append("saved module document does not reload to the module")
    return bad

