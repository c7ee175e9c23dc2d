"""Spans around calls into morseflow, installed from the benchmark's side.

``Tracer.install(mf)`` replaces each traced function, in every morseflow
module that binds it, with a wrapper that records a span (name, start, end,
parent) in memory and bumps the counters read from its arguments or result.
Nothing in ``src/`` changes; ``uninstall`` puts the originals back.

Per-layer metrics derive from the recorded spans: ``<span>_ms`` is the busy
time summed over the run and ``<span>_self_ms`` subtracts the time covered by
child spans.  None of the traced functions calls itself, so spans of one name
never nest and their sum is busy time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


def _add(metric, measure):
    return lambda tracer, fn, args, kwargs, result: tracer.count(metric, measure(args, result))


def _headroom(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    subject = next(iter(bound.arguments.values()))
    complex = getattr(subject, "complex", subject)
    tracer.min_headroom(bound.arguments["max_enum"] - len(complex))


# (span name, module, attribute; "Class.method" for methods, counter or None)
SPANS = [
    ("complexes.build_complex", "complexes", "build_complex",
     _add("complexes.cells_built", lambda a, r: len(r))),
    ("complexes.betti_numbers_mod2", "complexes", "betti_numbers_mod2", None),
    ("morse.random_morse", "morse", "random_morse", None),
    ("morse.validate", "morse", "validate", _add("morse.cells_validated", lambda a, r: len(a[0]))),
    ("morse.gradient_field", "morse", "gradient_field", _add("morse.pairs", lambda a, r: len(r.pairs))),
    ("morse.critical_cells", "morse", "critical_cells", _add("morse.critical", lambda a, r: len(r))),
    ("scxio.parse_scx", "scxio", "parse_scx", _add("scxio.bytes_in", lambda a, r: len(a[0].encode()))),
    ("scxio.emit_scx", "scxio", "emit_scx", None),
    ("collapse.elementary_collapse", "collapse", "elementary_collapse",
     _add("collapse.cell_steps", lambda a, r: len(a[0]))),
    ("collapse.replay", "collapse", "CollapseSequence.replay", None),
    ("collapse.verify_dmt_a", "collapse", "verify_dmt_a", None),
    ("collapse.verify_dmt_b", "collapse", "verify_dmt_b", None),
    ("collapse.level_subcomplex", "collapse", "level_subcomplex", None),
    ("collapse.basin", "collapse", "basin", None),
    ("collapse.basin_maximality_report", "collapse", "basin_maximality_report", _headroom),
    ("collapse.collapses_to", "collapse", "collapses_to", _headroom),
    ("flow.FlowOperator", "flow", "FlowOperator.__init__", None),
    ("flow.check_flow_matrix", "flow", "check_flow_matrix", None),
    ("flow.flow_matrix", "flow", "flow_matrix",
     _add("flow.matrix_entries", lambda a, r: sum(len(row) for row in r.values()))),
    ("flow.verify_flow_collapse", "flow", "verify_flow_collapse", None),
    ("flow.flow_image", "flow", "flow_image", None),
    ("minmax.mountain_pass", "minmax", "mountain_pass",
     _add("minmax.family_size", lambda a, r: len(r.instance.family))),
    ("minmax.enumerate_paths", "minmax", "enumerate_paths",
     _add("minmax.paths_enumerated", lambda a, r: len(r))),
    ("minmax.minmax_value", "minmax", "minmax_value", None),
    ("minmax.check_minmax_data", "minmax", "check_minmax_data",
     _add("minmax.closure_checked", lambda a, r: r.closure_checked)),
    ("minmax.flow_path", "minmax", "flow_path", None),
    ("minmax.dgcat", "minmax", "dgcat", _headroom),
    ("minmax.ls_minmax", "minmax", "ls_minmax", _headroom),
    ("minmax.ls_bound_check", "minmax", "ls_bound_check", _headroom),
]

# Spans with traced children, which also get a ``_self_ms`` metric.
SELF = [
    "scxio.parse_scx", "morse.random_morse", "collapse.replay", "collapse.verify_dmt_a",
    "collapse.verify_dmt_b", "collapse.basin", "collapse.basin_maximality_report",
    "flow.FlowOperator", "flow.check_flow_matrix", "flow.verify_flow_collapse",
    "minmax.mountain_pass", "minmax.enumerate_paths", "minmax.minmax_value",
    "minmax.check_minmax_data", "minmax.flow_path", "minmax.ls_minmax", "minmax.ls_bound_check",
]

CALLS = ["collapse.elementary_collapse", "flow.flow_image"]

CLI_COMMANDS = [
    "validate", "critical", "gradient", "flow", "levels", "homology", "random",
    "export-dot", "mountain-pass", "minmax-check", "lscat", "collapse",
]

COUNTS = [
    "complexes.cells_built", "morse.cells_validated", "morse.pairs", "morse.critical",
    "scxio.bytes_in", "collapse.cell_steps", "flow.matrix_entries", "minmax.family_size",
    "minmax.paths_enumerated", "minmax.closure_checked", "cli.stdout_bytes",
]

# Minimum over exhaustive calls of ``max_enum - cells``; -1 when none ran.
HEADROOM = "minmax.enum_headroom"
# Traced over untraced ops per reference pass, and the traced phase's mean
# reference pass, which turns the other metrics' times into reference passes.
OVERHEAD = "trace.overhead_ratio"
REFERENCE = "trace.reference_ms"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{name}_ms": "ms" for name, *_ in SPANS}
    units.update({f"{name}_self_ms": "ms" for name in SELF})
    units.update({f"{name}_calls": "count" for name in CALLS})
    units.update({f"cli.{cmd}_ms": "ms" for cmd in CLI_COMMANDS})
    units["cli.self_ms"] = "ms"
    units.update({name: "count" for name in COUNTS})
    units[HEADROOM] = "count"
    units[OVERHEAD] = "ratio"
    units[REFERENCE] = "ms"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.headroom: int | None = None
        self._undo: list[tuple] = []

    def count(self, metric: str, n: int) -> None:
        self.counts[metric] += n

    def min_headroom(self, n: int) -> None:
        self.headroom = n if self.headroom is None else min(self.headroom, n)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn, counter):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                counter(self, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_cli(self, fn):
        ids = {cmd: self._intern(f"cli.{cmd}") for cmd in CLI_COMMANDS}

        @functools.wraps(fn)
        def wrapper(argv):
            i = self._open(ids[argv[0]])
            try:
                return fn(argv)
            finally:
                self._close(i)

        return wrapper

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self, mf) -> None:
        modules = [
            m for n, m in sys.modules.items() if n == "morseflow" or n.startswith("morseflow.")
        ]
        for name, owner, attr, counter in SPANS:
            holder = getattr(mf, owner)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(holder, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original, counter))
                self._undo.append((cls, method, original))
            else:
                original = getattr(holder, attr)
                self._replace(modules, original, self._wrap(name, original, counter))
        self._replace(modules, mf.cli.run, self._wrap_cli(mf.cli.run))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def metrics(self, measured: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric; ``measured`` holds those not taken from spans."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        busy: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            busy[name] += duration[i]
            own[name] += duration[i] - covered[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for metric in metric_units():
            if metric in measured:
                out[metric] = measured[metric]
            elif metric == HEADROOM:
                out[metric] = -1 if self.headroom is None else self.headroom
            elif metric == "cli.self_ms":
                out[metric] = sum(v for k, v in own.items() if k.startswith("cli.")) / 1e6
            elif metric.endswith("_self_ms"):
                out[metric] = own[metric[: -len("_self_ms")]] / 1e6
            elif metric.endswith("_ms"):
                out[metric] = busy[metric[: -len("_ms")]] / 1e6
            elif metric.endswith("_calls"):
                out[metric] = calls[metric[: -len("_calls")]]
            else:
                out[metric] = self.counts[metric]
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated rows: index, parent, name, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )
