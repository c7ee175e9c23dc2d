"""The four benchmark workloads.

Each workload makes its inputs from a seed in its constructor, which is part
of the timed set-up.  ``run(item)`` is one op: the calls into morseflow that
a user would make, plus glue that only reads their results.  ``check(item,
out)`` runs untimed, compares the op's output against invariants from
``gen`` and returns a canonical summary line that feeds the output digest.
Every call into morseflow goes through a module attribute looked up at call
time (``self.mf.collapse.basin``), so the traced run sees it.
``reference(item)`` is the benchmark's own fixed work on the op's input,
timed after every op as the yardstick for machine speed; its size is about
a fiftieth of an op.

``golden(mf, workdir)`` builds the same workload on small fixed inputs; the
set-up runs it once as the warm-up and compares its digest with the one
recorded in ``spec.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import gen


class CheckFailed(Exception):
    """An op's output broke an invariant."""


def require(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cell_set(cells) -> set[tuple]:
    return {tuple(c) for c in cells}


def windows(values, crit_values):
    """The maximal critical-value-free windows ``(c, b]``, one per critical value.

    Same rule as the acceptance suite: ``b`` is the largest value below the
    next critical value, else the midpoint (or ``c + 1`` above the last one).
    """
    out = []
    for i, c in enumerate(crit_values):
        upper = crit_values[i + 1] if i + 1 < len(crit_values) else None
        between = [v for v in values if c < v and (upper is None or v < upper)]
        if between:
            out.append((c, max(between)))
        elif upper is not None:
            out.append((c, (c + upper) / 2))
        else:
            out.append((c, c + 1.0))
    return out


def relabel(cells, perm):
    return tuple(sorted(perm[v] for v in cells))


class Surface:
    """One m x m torus; each op draws a Morse function and certifies it."""

    name = "surface"

    def __init__(self, mf, seed: int, m: int = 12, pool: int = 64):
        self.mf = mf
        triangles = gen.torus_triangles(m)
        self.ref = gen.Reference(gen.closure(triangles))
        self.cells = set(self.ref.cells)
        self.complex = mf.complexes.build_complex(triangles)
        self.ranks = {c: float(i) for i, c in enumerate(self.ref.cells)}
        rng = random.Random(seed)
        self.items = [rng.randrange(2**32) for _ in range(pool)]

    def reference(self, fseed):
        self.ref.reference_pass(self.ranks, times=4)

    @classmethod
    def golden(cls, mf, workdir):
        return cls(mf, seed=0, m=5, pool=2)

    def run(self, fseed):
        mf = self.mf
        f = mf.morse.random_morse(self.complex, fseed)
        text = mf.scxio.emit_scx(self.complex, f)
        complex, g = mf.scxio.parse_scx(text)
        field = mf.morse.gradient_field(g)
        operator = mf.flow.FlowOperator(g, field)
        reports = [mf.flow.check_flow_matrix(operator, p) for p in range(complex.dim + 1)]
        betti = mf.complexes.betti_numbers_mod2(complex)
        values = g.sorted_distinct_values()
        crit_values = sorted(g(c) for c in field.critical)
        a, b = max(windows(values, crit_values), key=lambda w: (w[1] - w[0], -w[0]))
        window = mf.collapse.verify_dmt_a(g, a, b, field)
        median = values[len(values) // 2]
        flowed = mf.flow.verify_flow_collapse(g, median, operator)
        ends = (window.replay(), flowed.replay())
        minima = sorted((c for c in field.critical if c.dim == 0), key=g)
        basins = [mf.collapse.basin(field, g, v) for v in minima]
        return dict(
            f=f, complex=complex, g=g, field=field, reports=reports, betti=betti,
            window=window, a=a, b=b, flowed=flowed, median=median, ends=ends,
            basins=basins,
        )

    def check(self, fseed, out):
        g, field = out["g"], out["field"]
        values = gen.values_of(g)
        require(cell_set(out["complex"]) == self.cells, "parse_scx(emit_scx) changed the cells")
        require(values == gen.values_of(out["f"]), "parse_scx(emit_scx) changed the values")
        dims = Counter(len(c) for c in out["complex"])
        require(dims[1] - dims[2] + dims[3] == 0, "Euler characteristic of the torus is not 0")
        require(out["betti"] == [1, 2, 1], f"torus Betti numbers {out['betti']} != [1, 2, 1]")
        crit = self.ref.critical(values)
        require(cell_set(field.critical) == crit, "critical cells differ from the reference")
        counts = [sum(1 for c in crit if len(c) == p + 1) for p in range(3)]
        require(all(n >= b for n, b in zip(counts, out["betti"])), "weak Morse inequality fails")
        require(counts[0] - counts[1] + counts[2] == 0, "critical counts miss the Euler characteristic")
        require(all(r.ok for r in out["reports"]), "flow matrix check failed")
        window, flowed = out["window"], out["flowed"]
        require(out["ends"][0] == window.end and out["ends"][1] == flowed.end, "replay missed its end")
        require(cell_set(window.start) == self.ref.sublevel_closure(values, out["b"]), "window top")
        require(cell_set(window.end) == self.ref.sublevel_closure(values, out["a"]), "window bottom")
        require(cell_set(flowed.start) == self.ref.sublevel_closure(values, out["median"]), "flow top")
        require(cell_set(flowed.end) <= cell_set(flowed.start), "flow image leaves its level")
        sizes = [len(b.cells.cells_of_dim(0)) for b in out["basins"]]
        require(sum(sizes) == self.ref.dim_counts()[0], "basins do not partition the vertices")
        return canon([
            counts, out["betti"], [out["a"], out["b"]], len(window), len(flowed),
            len(flowed.end), sorted(sizes), [r.cells for r in out["reports"]],
        ])


class Corpus:
    """Small acceptance-style instances run through every verifier."""

    name = "corpus"

    def __init__(self, mf, seed: int, pool: int = 1500, seeds=None):
        self.mf = mf
        rng = random.Random(seed)
        if seeds is None:
            seeds = [rng.randrange(2**32) for _ in range(pool)]
        self.items = []
        for s in seeds:
            r = random.Random(s)
            complex = mf.complexes.build_complex(gen.random_cells(r))
            f = mf.morse.random_morse(complex, r.randrange(2**32))
            values = gen.values_of(f)
            self.items.append((gen.scx_text(values), values, gen.Reference(list(values))))

    @classmethod
    def golden(cls, mf, workdir):
        # The first instances of the acceptance corpus itself.
        return cls(mf, seed=0, seeds=range(24))

    def reference(self, item):
        item[2].reference_pass(item[1])

    def run(self, item):
        mf = self.mf
        text = item[0]
        complex, f = mf.scxio.parse_scx(text)
        field = mf.morse.gradient_field(f)
        operator = mf.flow.FlowOperator(f, field)
        reports = [mf.flow.check_flow_matrix(operator, p) for p in range(complex.dim + 1)]
        values = f.sorted_distinct_values()
        crit = sorted(field.critical, key=lambda c: (f(c), len(c), tuple(c)))
        crit_values = [f(c) for c in crit]
        seqs = []
        for a, b in windows(values, crit_values):
            seq = mf.collapse.verify_dmt_a(f, a, b, field)
            seqs.append((a, seq, seq.replay()))
        deltas = []
        for i, cell in enumerate(crit):
            low = crit_values[i - 1] if i else crit_values[i] - 1.0
            deltas.append((cell, mf.collapse.verify_dmt_b(f, cell, low, crit_values[i])))
        median = values[len(values) // 2]
        flowed = mf.flow.verify_flow_collapse(f, median, operator)
        out = dict(
            complex=complex, f=f, field=field, reports=reports, seqs=seqs,
            deltas=deltas, flowed=flowed, flowed_end=flowed.replay(), small=None,
        )
        if len(complex) <= 14:
            minima = [c for c in crit if c.dim == 0]
            basins = [mf.collapse.basin_maximality_report(field, f, v) for v in minima]
            category = mf.minmax.dgcat(complex)
            ls = mf.minmax.ls_minmax(f)
            target = mf.complexes.SimplicialComplex([minima[0]])
            collapse = mf.collapse.collapses_to(complex, target, f)
            collapse_end = None if collapse is None else collapse.replay()
            out["small"] = (minima, basins, category, ls, collapse, collapse_end)
        return out

    def check(self, item, out):
        _, values, ref = item
        require(gen.values_of(out["f"]) == values, "parse_scx lost or changed values")
        crit = ref.critical(values)
        require(cell_set(out["field"].critical) == crit, "critical cells differ from the reference")
        counts = Counter(len(c) - 1 for c in crit)
        require(sum((-1) ** p * n for p, n in counts.items()) == ref.euler(), "Euler mismatch")
        require(all(r.ok for r in out["reports"]), "flow matrix check failed")
        for a, seq, end in out["seqs"]:
            require(end == seq.end, "window replay missed its end")
            require(cell_set(end) == ref.sublevel_closure(values, a), "window bottom is wrong")
        signature = []
        for cell, delta in out["deltas"]:
            up = delta.delta == 1 and delta.degree == cell.dim
            down = delta.delta == -1 and delta.degree == cell.dim - 1
            require(up or down, f"Betti change {delta} does not attach {tuple(cell)}")
            signature.append(delta.delta)
        require(out["flowed_end"] == out["flowed"].end, "flow collapse replay missed its end")
        summary = [
            sorted(counts.items()), signature, [len(s) for _, s, _ in out["seqs"]],
            len(out["flowed"]), len(out["flowed"].end),
        ]
        if out["small"] is not None:
            minima, basins, category, ls, collapse, collapse_end = out["small"]
            require(all(r.contained for r in basins), "a basin is in no maximal collapsible set")
            require(len(ls) == category.category + 1, "ls_minmax depth != dgcat + 1")
            crit_values = {values[c] for c in crit}
            require(all(v in crit_values for _, v in ls), "ls_minmax value is not critical")
            require([v for _, v in ls] == sorted(v for _, v in ls), "ls_minmax is not ascending")
            if collapse is not None:
                require(cell_set(collapse_end) == {tuple(minima[0])}, "collapse missed its vertex")
            summary.append([
                [len(r.containers) for r in basins], category.category, ls, collapse is not None,
            ])
        return canon(summary)


MOUNTAIN_BASE_SEED = 20181101


class Mountain:
    """Mountain passes on a fixed pool of functions on a k x k grid.

    Op cost spans two orders of magnitude between functions, so the pool of
    functions is fixed (the first ``pool`` seeds from a base seed with at
    least two critical vertices, slow ones kept) and the run seed only
    permutes the vertex labels.  Every run then sees the same functions; the
    labels still change the order in which paths are enumerated and tried.
    """

    name = "mountain"

    def __init__(self, mf, seed: int, k: int = 4, pool: int = 32):
        self.mf = mf
        base_cells = gen.closure(gen.grid_triangles(k))
        base = mf.complexes.build_complex(base_cells)
        perm = list(range(k * k))
        random.Random(seed).shuffle(perm)
        rng = random.Random(MOUNTAIN_BASE_SEED + k)
        ref = gen.Reference([relabel(c, perm) for c in base_cells])
        complex = mf.complexes.build_complex(ref.cells)
        self.items = []
        while len(self.items) < pool:
            f = mf.morse.random_morse(base, rng.randrange(2**32))
            values = {relabel(c, perm): v for c, v in gen.values_of(f).items()}
            minima = sorted((c for c in ref.critical(values) if len(c) == 1), key=values.get)
            if len(minima) < 2:
                continue
            g = mf.morse.validate(complex, values)
            self.items.append((g, minima, values, ref))

    @classmethod
    def golden(cls, mf, workdir):
        return cls(mf, seed=0, k=3, pool=3)

    def reference(self, item):
        item[3].reference_pass(item[2], times=40)

    def run(self, item):
        mf = self.mf
        f, minima = item[0], item[1]
        result = high = None
        for high in minima[1:]:
            try:
                result = mf.minmax.mountain_pass(f, high, minima[0])
                break
            except mf.errors.NoPathExists:
                continue
        if result is None:
            return dict(result=None)
        report = mf.minmax.check_minmax_data(result.instance)
        operator = mf.flow.FlowOperator(result.instance.function)
        try:
            flowed = mf.minmax.flow_path(operator, result.witness)
        except mf.errors.ReassemblyFailure:
            flowed = None  # the witness flows onto a branching set
        return dict(result=result, high=high, report=report, flowed=flowed)

    def check(self, item, out):
        result = out["result"]
        if result is None:
            return canon(None)
        values, ref = item[2], item[3]
        edge = tuple(result.edge)
        require(len(edge) == 2 and edge in ref.critical(values), "ridge is not a critical edge")
        require(result.value == values[edge], "mountain-pass value is not the ridge value")
        require(result.value > values[tuple(out["high"])], "value does not exceed f(high)")
        family = result.instance.family
        require(out["report"].closure_checked == len(family), "closure count != family size")
        if out["flowed"] is not None:
            require(out["flowed"].cells() in set(family), "flowed witness left the family")
        # Label-free summary: the same for every vertex permutation.
        return canon([
            result.value, values[tuple(out["high"])], len(result.paths), len(family),
            len(result.witness.edges), out["flowed"] is not None,
        ])


DOUBLE_WELL = {
    (0,): 0, (3,): 1, (0, 1): 1.5, (1,): 2, (1, 2): 3, (2,): 4, (0, 1, 2): 5,
    (0, 2): 6, (1, 3): 10, (1, 2, 3): 11, (2, 3): 12,
}


class Cli:
    """In-process ``morseflow.cli.run`` calls cycling through every command."""

    name = "cli"

    def __init__(self, mf, seed: int, workdir: Path, m: int = 12, grid: int = 3):
        self.mf = mf
        self.tracer = None
        workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        triangles = gen.torus_triangles(m)
        torus = mf.complexes.build_complex(triangles)
        values = gen.values_of(mf.morse.random_morse(torus, rng.randrange(2**32)))
        critical = gen.Reference(list(values)).critical(values)
        self.torus_critical = sorted(critical, key=lambda c: (len(c), c))
        # The narrowest collapsing window nearest the median value keeps the
        # levels command's collapse small; surface measures wide windows.
        distinct = sorted(set(values.values()))
        median = distinct[len(distinct) // 2]
        crit_values = sorted(values[c] for c in self.torus_critical)
        level, to = min(
            (w for w in windows(distinct, crit_values) if w[1] in values.values()),
            key=lambda w: (w[1] - w[0], abs(w[0] - median)),
        )
        torus_path = workdir / "torus.scx"
        torus_path.write_text(gen.scx_text(values), encoding="utf-8")
        bare_path = workdir / "torus_bare.scx"
        bare_path.write_text(gen.bare_scx_text(triangles), encoding="utf-8")

        # A grid function with two critical vertices joined by a mountain pass.
        grid_complex = mf.complexes.build_complex(gen.grid_triangles(grid))
        while True:
            g = mf.morse.random_morse(grid_complex, rng.randrange(2**32))
            self.grid_values = gv = gen.values_of(g)
            self.grid_ref = gen.Reference(list(gv))
            minima = sorted((c for c in self.grid_ref.critical(gv) if len(c) == 1), key=gv.get)
            if len(minima) < 2:
                continue
            high = self._first_pass(g, minima)
            if high is not None:
                break
        grid_path = workdir / "grid.scx"
        grid_path.write_text(gen.scx_text(gv), encoding="utf-8")

        perm = list(range(4))
        rng.shuffle(perm)
        well = {relabel(c, perm): v for c, v in DOUBLE_WELL.items()}
        well_path = workdir / "two_triangles.scx"
        well_path.write_text(gen.scx_text(well), encoding="utf-8")

        t, b, w, gp = str(torus_path), str(bare_path), str(well_path), str(grid_path)
        pass_args = ["--min1", str(high[0]), "--min0", str(minima[0][0])]
        self.items = [
            ["validate", "--in", t],
            ["critical", "--in", t],
            ["gradient", "--in", t],
            ["flow", "--in", t],
            ["levels", "--in", t, "--level", repr(level), "--to", repr(to)],
            ["homology", "--in", b],
            ["random", "--in", b, "--seed", str(rng.randrange(1000))],
            ["export-dot", "--in", t],
            ["mountain-pass", "--in", gp, *pass_args],
            ["minmax-check", "--in", gp, *pass_args],
            ["minmax-check", "--in", w],
            ["lscat", "--in", w],
            ["collapse", "--in", w],
        ]

    def _first_pass(self, f, minima):
        for high in minima[1:]:
            try:
                self.mf.minmax.mountain_pass(f, high, minima[0])
                return high
            except self.mf.errors.NoPathExists:
                continue
        return None

    @classmethod
    def golden(cls, mf, workdir):
        return cls(mf, seed=0, workdir=workdir / "golden", m=4)

    def reference(self, argv):
        self.grid_ref.reference_pass(self.grid_values, times=4)

    def run(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.mf.cli.run(argv)
        text = buffer.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.stdout_bytes", len(text.encode("utf-8")))
        return code, text

    def check(self, argv, out):
        code, text = out
        require(code == 0, f"{argv[0]} exited with {code}: {text[:200]}")
        if argv[0] != "export-dot":
            report = json.loads(text)
            require(report["schema"] == 1 and report["command"] == argv[0], "bad report header")
            if argv[0] == "homology":
                require(report == {"schema": 1, "command": "homology", "euler": 0,
                                   "betti": [1, 2, 1]}, "torus homology is wrong")
            elif argv[0] == "critical":
                require([tuple(c) for c in report["critical"]] == self.torus_critical,
                        "critical cells differ from the reference")
            elif argv[0] == "validate":
                require(report["criticalCount"] == len(self.torus_critical), "critical count")
        return text


WORKLOADS = {w.name: w for w in (Surface, Corpus, Mountain, Cli)}


def build(name: str, mf, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    if cls is Cli:
        return cls(mf, seed, workdir / "inputs")
    return cls(mf, seed)
