"""Command-line front end.

Exit codes: 0 when verification or construction succeeds, 1 when a check is
refuted (the refutation is printed), 2 on input or usage errors, which
includes inputs outside the exact-rational scope of the toolkit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from triadtet.bdverify import Refutation, verify_bd_triad
from triadtet.fixtures import fixture_counterexample, fixture_vd_triad
from triadtet.io import (
    DocumentFormatError,
    TetModuleDocument,
    TriadDocument,
    format_rational,
    load_tet_module,
    load_triad,
    parse_rational,
    save_named_matrix,
    save_tet_module,
    save_triad,
)
from triadtet.linalg import IrrationalSpectrum
from triadtet.reduction import NoWitness, reduce_triad
from triadtet.synthesis import SynthesisError, synthesize_tet
from triadtet.tet import (
    CornerTriadRefuted,
    corner_triads_are_bd_triads,
    verify_tet_relations,
)


def _corner_arg(text: str) -> tuple[int, int, int, int]:
    if sorted(text) != ["0", "1", "2", "3"]:
        raise argparse.ArgumentTypeError(
            f"corner must be a permutation of 0123, got {text!r}"
        )
    return tuple(int(ch) for ch in text)


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except DocumentFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        print(human)


def _shape_list(cert) -> list[int]:
    return list(cert.shape)


def _cert_payload(cert) -> dict:
    return {
        "verified": True,
        "diameter": cert.diameter,
        "shape": _shape_list(cert),
        "thin": cert.thin,
        "reduced": cert.reduced,
        "eigenvalues": [
            [format_rational(v) for v in ordering.eigenvalues]
            for ordering in cert.orderings
        ],
    }


def _cert_human(cert) -> str:
    lines = [
        f"verified: reduced triad of diameter {cert.diameter}"
        if cert.reduced
        else f"verified: triad of diameter {cert.diameter}",
        f"shape: {tuple(cert.shape)}",
        f"thin: {'yes' if cert.thin else 'no'}",
        f"reduced: {'yes' if cert.reduced else 'no'}",
    ]
    return "\n".join(lines)


def _refutation_payload(payload: dict, failure: object) -> dict:
    """`payload` plus the clause, transformation and index of a Refutation."""
    if isinstance(failure, Refutation):
        payload["clause"] = failure.clause
        payload["transformation"] = failure.transformation
        payload["index"] = failure.index
    return payload


def _refused(args: argparse.Namespace, failure: object) -> int:
    """Report a Refutation or a refusing exception; exit code 1."""
    if args.json:
        payload = {"verified": False, "refutation": str(failure)}
        print(json.dumps(_refutation_payload(payload, failure), indent=1))
    else:
        print(f"refuted: {failure}")
    return 1


def cmd_triad_verify(args: argparse.Namespace) -> int:
    doc = load_triad(args.file)
    cert = verify_bd_triad(*doc.matrices())
    if not cert:
        return _refused(args, cert)
    _emit(args, _cert_payload(cert), _cert_human(cert))
    return 0


def cmd_triad_reduce(args: argparse.Namespace) -> int:
    doc = load_triad(args.file)
    cert = verify_bd_triad(*doc.matrices())
    if not cert:
        return _refused(args, cert)
    try:
        reduced, witnesses = reduce_triad(cert)
    except NoWitness as exc:
        return _refused(args, exc)
    labels = ("A", "Aprime", "Adprime")
    out_doc = TriadDocument(
        dim=doc.dim,
        a=reduced.matrices[0],
        a_prime=reduced.matrices[1],
        a_dprime=reduced.matrices[2],
        metadata={
            "source": "reduction",
            "witnesses": {
                label: [format_rational(r), format_rational(s)]
                for label, (r, s) in zip(labels, witnesses)
            },
        },
    )
    save_triad(out_doc, args.output)
    payload = {
        "reduced": True,
        "diameter": reduced.diameter,
        "witnesses": out_doc.metadata["witnesses"],
        "output": str(args.output),
    }
    human_witnesses = ", ".join(
        f"{label}: ({format_rational(r)}, {format_rational(s)})"
        for label, (r, s) in zip(labels, witnesses)
    )
    _emit(
        args,
        payload,
        f"reduced triad written to {args.output}\nwitnesses: {human_witnesses}",
    )
    return 0


def cmd_triad_synthesize(args: argparse.Namespace) -> int:
    doc = load_triad(args.file)
    cert = verify_bd_triad(*doc.matrices())
    if not cert:
        return _refused(args, cert)
    try:
        result = synthesize_tet(cert, corner_assignment=args.corner)
    except SynthesisError as exc:
        return _refused(args, exc)
    module_doc = TetModuleDocument.from_module(result.module)
    save_tet_module(module_doc, args.output)
    payload = {
        "synthesized": True,
        "diameter": result.diameter,
        "corner": "".join(str(v) for v in result.corner_assignment),
        "algebra_dimension": result.algebra_dimension,
        "irreducible": result.irreducible,
        "b_solution_space_dim": result.b_solution_space_dim,
        "output": str(args.output),
    }
    human = "\n".join(
        [
            f"module written to {args.output}",
            f"diameter: {result.diameter}",
            f"corner assignment: {payload['corner']}",
            f"generated algebra dimension: {result.algebra_dimension}",
            "irreducibility: certified",
        ]
    )
    _emit(args, payload, human)
    return 0


def cmd_tet_verify(args: argparse.Namespace) -> int:
    module = load_tet_module(args.file).to_module()
    report = verify_tet_relations(module)
    if not report:
        ids = [identifier for identifier, _ in report.violations]
        if args.json:
            print(
                json.dumps(
                    {"verified": False, "violations": ids}, indent=1
                )
            )
        else:
            print(f"refuted: {len(ids)} relation(s) violated")
            for identifier in ids:
                print(f"  {identifier}")
        return 1
    payload = {
        "verified": True,
        "antisymmetry": report.antisymmetry_ok,
        "corner": report.corner_ok,
        "dolan_grady": report.dolan_grady_ok,
    }
    _emit(args, payload, "verified: all 54 defining relations hold")
    return 0


def cmd_tet_corners(args: argparse.Namespace) -> int:
    module = load_tet_module(args.file).to_module()
    try:
        certs = corner_triads_are_bd_triads(module)
    except CornerTriadRefuted as exc:
        if args.json:
            payload = {
                "verified": False,
                "vertex": exc.vertex,
                "refutation": str(exc.refutation),
            }
            print(json.dumps(_refutation_payload(payload, exc.refutation), indent=1))
        else:
            print(f"refuted at corner {exc.vertex}: {exc.refutation}")
        return 1
    payload = {
        "verified": True,
        "corners": [
            {
                "vertex": vertex,
                "diameter": cert.diameter,
                "shape": _shape_list(cert),
                "thin": cert.thin,
                "reduced": cert.reduced,
            }
            for vertex, cert in enumerate(certs)
        ],
    }
    human = "\n".join(
        f"corner {vertex}: reduced triad, diameter {cert.diameter}, "
        f"shape {tuple(cert.shape)}"
        for vertex, cert in enumerate(certs)
    )
    _emit(args, payload, human)
    return 0


def cmd_fixture_vd(args: argparse.Namespace) -> int:
    try:
        doc = fixture_vd_triad(args.d, args.beta, args.gamma)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_triad(doc, args.output)
    _emit(
        args,
        {"written": str(args.output), "dim": doc.dim},
        f"triad written to {args.output}",
    )
    return 0


def cmd_fixture_counterexample(args: argparse.Namespace) -> int:
    doc, x02 = fixture_counterexample()
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    triad_path = out_dir / "triad.json"
    x02_path = out_dir / "x02.json"
    save_triad(doc, triad_path)
    save_named_matrix(x02_path, "X02", x02)
    _emit(
        args,
        {"triad": str(triad_path), "x02": str(x02_path)},
        f"triad written to {triad_path}\ncandidate X02 written to {x02_path}",
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triadtet",
        description="Verify, reduce, and extend triads of exact-rational matrices.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    triad = top.add_parser("triad", help="operations on triad documents")
    triad_sub = triad.add_subparsers(dest="command", required=True)

    p = triad_sub.add_parser("verify", help="check the triad axioms")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_triad_verify)

    p = triad_sub.add_parser("reduce", help="shift to eigenvalues 2i-d")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_triad_reduce)

    p = triad_sub.add_parser(
        "synthesize", help="extend a thin reduced triad to a full module"
    )
    p.add_argument("file")
    p.add_argument("--corner", type=_corner_arg, default=(0, 1, 2, 3))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_triad_synthesize)

    tet = top.add_parser("tet", help="operations on module documents")
    tet_sub = tet.add_subparsers(dest="command", required=True)

    p = tet_sub.add_parser("verify", help="check the 54 defining relations")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tet_verify)

    p = tet_sub.add_parser("corners", help="verify all four corner triads")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tet_corners)

    fixture = top.add_parser("fixture", help="generate built-in inputs")
    fixture_sub = fixture.add_subparsers(dest="command", required=True)

    p = fixture_sub.add_parser("vd-triad", help="thin reduced triad of diameter d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=_rational_arg, required=True)
    p.add_argument("--gamma", type=_rational_arg, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixture_vd)

    p = fixture_sub.add_parser(
        "counterexample",
        help="6-dimensional non-thin triad with its impossible X02",
    )
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixture_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DocumentFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IrrationalSpectrum as exc:
        print(f"error: out of scope: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
