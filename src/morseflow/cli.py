"""Command-line interface: JSON reports and DOT export over ``.scx``/OFF files.

All JSON is deterministic: keys sorted, simplex lists in canonical order, a
top-level ``"schema": 1`` marker.  Exit codes: 0 success, 1 domain error
(with a machine-readable error object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .collapse import collapses_to, level_subcomplex, verify_dmt_a
from .complexes import (
    DEFAULT_ENUM_BOUND,
    SimplicialComplex,
    betti_numbers_mod2,
    euler_characteristic,
)
from .errors import MissingValue, MorseflowError, PreconditionViolated, UnreadableInput
from .flow import FlowOperator, check_flow_matrix, flow_matrix
from .minmax import (
    check_minmax_data,
    dgcat,
    ls_bound_check,
    ls_instance,
    ls_minmax,
    mountain_pass,
)
from .morse import (
    MorseFunction,
    critical_cells,
    critical_values,
    gradient_field,
    random_morse,
)
from .scxio import emit_scx, parse_off, parse_scx

SCHEMA = 1


def _cells(simplices) -> list[list[int]]:
    return [list(s) for s in sorted(simplices, key=lambda s: (len(s), tuple(s)))]


def _load(args) -> tuple[SimplicialComplex, MorseFunction | None]:
    try:
        text = Path(args.infile).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {args.infile}: {exc}") from None
    fmt = args.format
    if fmt == "auto":
        fmt = "off" if args.infile.lower().endswith(".off") else "scx"
    if fmt == "off":
        return parse_off(text), None
    return parse_scx(text)


def _need_function(f: MorseFunction | None) -> MorseFunction:
    if f is None:
        raise MissingValue("this command needs simplex values in the input file")
    return f


def _cmd_validate(args):
    complex, f = _load(args)
    f = _need_function(f)
    return {
        "valid": True,
        "simplexCount": len(complex),
        "dim": complex.dim,
        "criticalCount": len(critical_cells(f)),
        "injective": f.is_injective(),
    }


def _cmd_critical(args):
    _, f = _load(args)
    f = _need_function(f)
    return {"critical": _cells(critical_cells(f)), "values": critical_values(f)}


def _cmd_gradient(args):
    _, f = _load(args)
    f = _need_function(f)
    field = gradient_field(f)
    return {
        "pairs": [[list(a), list(b)] for a, b in sorted(field.pairs)],
        "critical": _cells(field.critical),
        # validate rejects a field with a closed path, so none is left to find.
        "hasClosedPath": False,
    }


def _cmd_flow(args):
    complex, f = _load(args)
    f = _need_function(f)
    operator = FlowOperator(f)
    dims = []
    for p in range(complex.dim + 1):
        check_flow_matrix(operator, p)
        rows = flow_matrix(operator, p)
        cells = list(complex.cells_of_dim(p))
        index = {c: i for i, c in enumerate(cells)}
        entries = sorted(
            [index[s], index[t], coef]
            for s, row in rows.items()
            for t, coef in row.items()
        )
        dims.append({"dim": p, "cells": _cells(cells), "entries": entries})
    return {"dims": dims, "check": "ok"}


def _cmd_levels(args):
    _, f = _load(args)
    f = _need_function(f)
    level = level_subcomplex(f, args.level)
    out = {
        "threshold": args.level,
        "sublevel": _cells(level.sublevel),
        "closure": _cells(level.complex.simplices),
    }
    if args.to is not None:
        seq = verify_dmt_a(f, args.level, args.to)
        out["collapse"] = {
            "to": args.to,
            "pairs": [[list(a), list(b)] for a, b in seq.pairs],
            "end": _cells(seq.end.simplices),
        }
    return out


def _cmd_collapse(args):
    complex, f = _load(args)
    for vertex in complex.cells_of_dim(0):
        seq = collapses_to(complex, SimplicialComplex([vertex]), f, args.max_enum)
        if seq is not None:
            return {
                "collapsible": True,
                "vertex": list(vertex),
                "steps": [[list(a), list(b)] for a, b in seq.pairs],
            }
    return {"collapsible": False}


def _cmd_homology(args):
    complex, _ = _load(args)
    return {
        "euler": euler_characteristic(complex),
        "betti": betti_numbers_mod2(complex),
    }


def _cmd_mountain_pass(args):
    _, f = _load(args)
    f = _need_function(f)
    result = mountain_pass(f, (args.min1,), (args.min0,))
    return {
        "c": result.value,
        "edge": list(result.edge),
        "witness": {
            "start": list(result.witness.start),
            "edges": [list(e) for e in result.witness.edges],
        },
        "pathCount": len(result.paths),
    }


def _cmd_lscat(args):
    complex, f = _load(args)
    f = _need_function(f)
    result = dgcat(complex, max_enum=args.max_enum)
    return {
        "dgcat": result.category,
        "values": [[k, v] for k, v in ls_minmax(f, args.max_enum)],
        "criticalCount": len(critical_cells(f)),
        "boundHolds": ls_bound_check(f, args.max_enum),
    }


def _cmd_minmax_check(args):
    _, f = _load(args)
    f = _need_function(f)
    if (args.min0 is None) != (args.min1 is None):
        raise PreconditionViolated("give both --min0 and --min1, or neither")
    if args.min0 is not None and args.min1 is not None:
        result = mountain_pass(f, (args.min1,), (args.min0,))
        instance = result.instance
        kind = "paths"
    else:
        instance = ls_instance(f, 1, args.max_enum)
        kind = "category"
    report = check_minmax_data(instance)
    return {
        "instance": kind,
        "familySize": len(instance.family),
        "closureChecked": report.closure_checked,
        "epsilon": report.epsilon,
        "deformation": [[a, name] for a, name in sorted(report.deformation.items())],
        "ok": True,
    }


def _cmd_random(args):
    complex, _ = _load(args)
    f = random_morse(complex, args.seed)
    return {"scx": emit_scx(complex, f)}


def _cmd_export_dot(args):
    _, f = _load(args)
    f = _need_function(f)
    field = gradient_field(f)
    lines = ["digraph gradient {"]
    for cell in f.complex:
        name = " ".join(str(v) for v in cell)
        label = f"{name}\\nf={f(cell)!r}"
        extra = ", peripheries=2" if cell in field.critical else ""
        lines.append(f'  "{name}" [label="{label}"{extra}];')
    for lower, upper in sorted(field.pairs):
        a = " ".join(str(v) for v in lower)
        b = " ".join(str(v) for v in upper)
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.json:
        return {"dot": text}
    return text


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morseflow", description="Discrete Morse theory toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", required=True, help="input file")
        p.add_argument(
            "--format", choices=["auto", "scx", "off"], default="auto", help="input format"
        )

    for name, handler in [
        ("validate", _cmd_validate),
        ("critical", _cmd_critical),
        ("gradient", _cmd_gradient),
        ("flow", _cmd_flow),
        ("homology", _cmd_homology),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("levels")
    common(p)
    p.add_argument("--level", type=_finite_float, required=True)
    p.add_argument("--to", type=_finite_float, default=None)
    p.set_defaults(handler=_cmd_levels)

    p = sub.add_parser("collapse")
    common(p)
    p.add_argument("--max-enum", type=_non_negative_int, default=DEFAULT_ENUM_BOUND)
    p.set_defaults(handler=_cmd_collapse)

    p = sub.add_parser("mountain-pass")
    common(p)
    p.add_argument("--min1", type=int, required=True, help="higher critical vertex id")
    p.add_argument("--min0", type=int, required=True, help="lower critical vertex id")
    p.set_defaults(handler=_cmd_mountain_pass)

    p = sub.add_parser("lscat")
    common(p)
    p.add_argument("--max-enum", type=_non_negative_int, default=DEFAULT_ENUM_BOUND)
    p.set_defaults(handler=_cmd_lscat)

    p = sub.add_parser("minmax-check")
    common(p)
    p.add_argument("--min1", type=int, default=None)
    p.add_argument("--min0", type=int, default=None)
    p.add_argument("--max-enum", type=_non_negative_int, default=DEFAULT_ENUM_BOUND)
    p.set_defaults(handler=_cmd_minmax_check)

    p = sub.add_parser("random")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("export-dot")
    common(p)
    p.add_argument("--json", action="store_true", help="wrap the DOT text in JSON")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def _describe(exc: MorseflowError) -> dict:
    out = {"kind": type(exc).__name__, "message": str(exc)}
    if hasattr(exc, "violations"):
        out["violations"] = [
            {"simplex": list(s), "upper": u, "lower": l} for s, u, l in exc.violations
        ]
    if hasattr(exc, "line") and exc.line is not None:
        out["line"] = exc.line
    if hasattr(exc, "bound"):
        out["size"] = exc.size
        out["bound"] = exc.bound
    return out


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except MorseflowError as exc:
        error = {"schema": SCHEMA, "error": _describe(exc)}
        print(json.dumps(error, sort_keys=True, allow_nan=False))
        return 1
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
