"""Command-line interface: JSON reports and DOT export over ``.scx``/OFF files.

All JSON is deterministic: keys sorted, simplex lists in canonical order, a
top-level ``"schema": 1`` marker.  Exit codes: 0 success, 1 domain error
(with a machine-readable error object on stdout), 2 usage error.

Each command is declared once, in the table of ``build_parser``: its name,
its handler, whether it needs simplex values, and its own options.  ``run``
loads the input once, through ``_load``, which raises ``MissingValue`` for a
command that needs values when the file has none, and then calls the
handler with the arguments, the complex and the function (``None`` for a
file without values).  ``build_parser`` is cached, so a process builds the
parser on its first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
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
from .flow import FlowOperator, check_flow_matrix
from .minmax import check_minmax_data, ls_bound_check, ls_instance, ls_minmax, mountain_pass
from .morse import (
    MorseFunction,
    critical_cells,
    critical_values,
    gradient_field,
    random_morse,
)
from .scxio import emit_scx, parse_off, parse_scx

SCHEMA = 1
# Largest --max-enum that lscat and minmax-check accept.  Their searches visit
# every collapse of the complex and every subcomplex that collapses to a
# vertex, and both counts can grow exponentially with the cells: on triangle
# fans lscat took 0.06 s at 21 cells and 3.1 s at 31 (2-core VM).  The
# collapse command takes any bound, although its one memoised search, onto the
# first vertex, is exhaustive whenever the answer is "no" and the parity test
# passes: on the 3 x 3 grid with two hollow triangles hung at a vertex (43
# cells) it took 0.31 s, and on the 4 x 4 one (77 cells) it was unfinished
# after 60 s (2-core VM).
MAX_ENUM_CAP = 20


def _listed(cells) -> list[list[int]]:
    """Cells already in canonical order, as JSON lists."""
    return [list(s) for s in cells]


def _cells(simplices) -> list[list[int]]:
    return _listed(sorted(sorted(simplices), key=len))


def _load(args, needs_values: bool) -> tuple[SimplicialComplex, MorseFunction | None]:
    """The input's complex and Morse function, whose ``complex`` is that complex.

    A file without values gives ``None`` for the function, or ``MissingValue``
    when the command needs values.
    """
    try:
        text = Path(args.infile).read_bytes().decode("utf-8")  # no newline translation
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {args.infile}: {exc}") from None
    off = args.format == "off" or (args.format == "auto" and args.infile.lower().endswith(".off"))
    complex, f = (parse_off(text), None) if off else parse_scx(text)
    if needs_values and f is None:
        raise MissingValue("this command needs simplex values in the input file")
    return complex, f


def _cmd_validate(args, complex, f):
    return {
        "valid": True,
        "simplexCount": len(complex),
        "dim": complex.dim,
        "criticalCount": len(critical_cells(f)),
        "injective": f.is_injective(),
    }


def _cmd_critical(args, complex, f):
    return {"critical": _cells(critical_cells(f)), "values": critical_values(f)}


def _cmd_gradient(args, complex, f):
    field = gradient_field(f)
    return {
        "pairs": [[list(a), list(b)] for a, b in sorted(field.up.items())],
        "critical": _cells(field.critical),
        # validate rejects a field with a closed path, so none is left to find.
        "hasClosedPath": False,
    }


def _cmd_flow(args, complex, f):
    operator = FlowOperator(f)
    rows = operator._flow
    dims = []
    for p in range(complex.dim + 1):
        check_flow_matrix(operator, p)  # the operator's rows now equal the matrix rows
        cells = list(complex.cells_of_dim(p))
        index = {c: i for i, c in enumerate(cells)}
        entries = sorted([index[s], index[t], coef] for s in cells for t, coef in rows[s].items())
        dims.append({"dim": p, "cells": _listed(cells), "entries": entries})
    return {"dims": dims, "check": "ok"}


def _cmd_levels(args, complex, f):
    level = level_subcomplex(f, args.level)
    out = {
        "threshold": args.level,
        "sublevel": _cells(level.sublevel),
        "closure": _listed(level.complex),
    }
    if args.to is not None:
        seq = verify_dmt_a(f, args.level, args.to)
        out["collapse"] = {
            "to": args.to,
            "pairs": [[list(a), list(b)] for a, b in seq.pairs],
            "end": _listed(seq.end),
        }
    return out


def _cmd_collapse(args, complex, f):
    # A complex that collapses onto a vertex collapses onto each of its
    # vertices (the lemma in ``CellIndex``), so the first vertex decides.
    vertex = complex.vertices[0]
    seq = collapses_to(complex, SimplicialComplex([vertex]), f, args.max_enum)
    if seq is None:
        return {"collapsible": False}
    return {
        "collapsible": True,
        "vertex": list(vertex),
        "steps": [[list(a), list(b)] for a, b in seq.pairs],
    }


def _cmd_homology(args, complex, f):
    return {
        "euler": euler_characteristic(complex),
        "betti": betti_numbers_mod2(complex),
    }


def _cmd_mountain_pass(args, complex, f):
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


def _cmd_lscat(args, complex, f):
    # One value per depth 1 .. dgcat + 1.
    values = ls_minmax(f, args.max_enum)
    return {
        "dgcat": len(values) - 1,
        "values": [[k, v] for k, v in values],
        "criticalCount": len(critical_cells(f)),
        "boundHolds": ls_bound_check(f, args.max_enum),
    }


def _cmd_minmax_check(args, complex, f):
    if (args.min0 is None) != (args.min1 is None):
        raise PreconditionViolated("give both --min0 and --min1, or neither")
    if args.min0 is not None and args.min1 is not None:
        instance = mountain_pass(f, (args.min1,), (args.min0,)).instance
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


def _cmd_random(args, complex, f):
    return {"scx": emit_scx(complex, random_morse(complex, args.seed))}


def _cmd_export_dot(args, complex, f):
    field = gradient_field(f)
    lines = ["digraph gradient {"]
    for cell in complex:
        name = " ".join(str(v) for v in cell)
        label = f"{name}\\nf={f(cell)!r}"
        extra = ", peripheries=2" if cell in field.critical else ""
        lines.append(f'  "{name}" [label="{label}"{extra}];')
    for lower, upper in sorted(field.up.items()):
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


def _enum_bound(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_ENUM_CAP:
        raise argparse.ArgumentTypeError(f"{text!r} is above the cap of {MAX_ENUM_CAP}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then shared.

    One table declares each command: its name, its handler, whether it needs
    simplex values, and its own options.  ``parse_args`` keeps no state in
    the parser and returns a fresh namespace each time.
    """
    parser = argparse.ArgumentParser(
        prog="morseflow", description="Discrete Morse theory toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    capped = dict(type=_enum_bound, default=DEFAULT_ENUM_BOUND)
    for name, handler, needs_values, options in [
        ("validate", _cmd_validate, True, []),
        ("critical", _cmd_critical, True, []),
        ("gradient", _cmd_gradient, True, []),
        ("flow", _cmd_flow, True, []),
        ("homology", _cmd_homology, False, []),
        ("levels", _cmd_levels, True, [
            ("--level", dict(type=_finite_float, required=True)),
            ("--to", dict(type=_finite_float, default=None)),
        ]),
        ("collapse", _cmd_collapse, False, [
            ("--max-enum", dict(type=_non_negative_int, default=DEFAULT_ENUM_BOUND)),
        ]),
        ("mountain-pass", _cmd_mountain_pass, True, [
            ("--min1", dict(type=int, required=True, help="higher critical vertex id")),
            ("--min0", dict(type=int, required=True, help="lower critical vertex id")),
        ]),
        ("lscat", _cmd_lscat, True, [("--max-enum", capped)]),
        ("minmax-check", _cmd_minmax_check, True, [
            ("--min1", dict(type=int, default=None)),
            ("--min0", dict(type=int, default=None)),
            ("--max-enum", dict(capped, help=(
                "enumeration bound of the category form; the path form (--min0/--min1) ignores it"
            ))),
        ]),
        ("random", _cmd_random, False, [("--seed", dict(type=int, required=True))]),
        ("export-dot", _cmd_export_dot, True, [
            ("--json", dict(action="store_true", help="wrap the DOT text in JSON")),
        ]),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True, help="input file")
        p.add_argument(
            "--format", choices=["auto", "scx", "off"], default="auto", help="input format"
        )
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.set_defaults(handler=handler, needs_values=needs_values)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args, *_load(args, args.needs_values))
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
