"""Run one benchmark workload and print its metrics as a final JSON line.

Run from the repository root; morseflow is imported from ``./src`` only:

    python3 bench/run.py --workload surface --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke           # every workload for a second, both modes

One client drives the workload as a closed loop in this process.  Set-up
(fresh import of morseflow, input generation from the seed, and a warm-up
on the workload's fixed golden inputs whose digest must match spec.json) is
repeated five times and ``setup_s`` is the median.  The timed phase then
cycles through the workload's inputs until ``--seconds`` have passed.  Op
latency covers the calls into morseflow only; output checks run untimed.
A repeated input must give the same output as its first run.

Op times are reported in reference passes, not seconds.  The shared
2-core machine this was built on changes speed by a quarter or more within
minutes.  So after every op the benchmark times its own fixed reference
pass over that op's input (``reference`` in workloads.py, which never calls
morseflow), and divides each op's latency by the mean reference pass of
the ops that started within half a second of it.  In four runs of one
corpus seed, raw throughput ranged from 272 to 329 ops/s while ops per
reference pass stayed within 3 %.  The comment line before the result also
gives the figures in milliseconds and ops/s.

Every distinct input weighs the same in the latency metrics, whatever
share of the last pass through the inputs the deadline cut off: each input
gets the median of its own latencies, ``op_p50_ref`` and ``op_p90_ref`` are
quantiles of those medians, and ``throughput_ops_ref`` is successful ops per
reference pass over one pass through the inputs, the successful share of
each input over the sum of the medians.  Op costs within a workload differ
up to a hundredfold, so a partial last pass would otherwise move these
figures by itself.

With ``--trace 1`` the timed phase is split: an untraced half, then a half
with spans around every traced morseflow function, which gives the
per-layer metrics and ``trace.overhead_ratio``.  Spans are written to
``.bench_out/``.  A failed op or check is counted and never stops the run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans as tracing
import workloads

SETUPS = 5
# An op's latency is divided by the mean reference pass of the ops that
# started within this many seconds of it.
LOCAL_SECONDS = 0.5
MODULES = ("complexes", "morse", "collapse", "flow", "minmax", "scxio", "cli", "errors")
OUT_DIR = ".bench_out"
SPEC = Path(__file__).resolve().parent / "spec.json"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"bench: op failed: {what}", file=sys.stderr)


def import_morseflow(src: Path) -> SimpleNamespace:
    """A fresh import of the package under ``src``, as a namespace of its modules."""
    for name in [n for n in sys.modules if n == "morseflow" or n.startswith("morseflow.")]:
        del sys.modules[name]
    package = importlib.import_module("morseflow")
    if Path(package.__file__).resolve().parent != (src / "morseflow").resolve():
        raise ImportError(f"morseflow was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"morseflow.{m}") for m in MODULES})


def run_op(wl, item, tally: Tally, seen: dict | None = None, key=None):
    """Time one op, then check it untimed; returns (seconds, ok, summary)."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception:  # a raising op is a failed op; the run goes on
        elapsed = time.perf_counter() - start
        tally.fail(traceback.format_exc(limit=4))
        return elapsed, False, None
    elapsed = time.perf_counter() - start
    try:
        summary = wl.check(item, out)
    except Exception:  # a failed or crashing check is a failed op
        tally.fail(traceback.format_exc(limit=4))
        return elapsed, False, None
    if seen is not None:
        if seen.setdefault(key, summary) != summary:
            tally.fail(f"output of input {key} changed between repeats")
            return elapsed, False, summary
    return elapsed, True, summary


def golden_digest(name: str, mf, workdir: Path, tally: Tally) -> str:
    """Run the workload's fixed golden inputs once and hash their summaries."""
    golden = workloads.WORKLOADS[name].golden(mf, workdir)
    digest = hashlib.sha256()
    for item in golden.items:
        _, ok, summary = run_op(golden, item, tally)
        digest.update((summary if ok else "FAILED").encode() + b"\n")
    return digest.hexdigest()


def setup(name: str, seed: int, src: Path, workdir: Path, expected: str, tally: Tally):
    start = time.perf_counter()
    mf = import_morseflow(src)
    wl = workloads.build(name, mf, seed, workdir)
    digest = golden_digest(name, mf, workdir, tally)
    seconds = time.perf_counter() - start
    tally.attempted += 1
    if digest != expected:
        tally.fail(f"golden digest {digest} != {expected} recorded in spec.json")
    return seconds, mf, wl, digest


def timed(wl, seconds: float, tally: Tally, seen: dict) -> list[tuple]:
    """Closed loop over the inputs until the deadline.

    Returns one (input position, start, seconds, ok, reference seconds)
    record per op, where the reference pass is the one timed right after it.
    """
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % len(wl.items)
        start = time.perf_counter()
        elapsed, good, _ = run_op(wl, wl.items[k], tally, seen, k)
        before = time.perf_counter()
        wl.reference(wl.items[k])
        records.append((k, start, elapsed, good, time.perf_counter() - before))
        i += 1
        if time.perf_counter() >= deadline:
            return records


def per_input(records: list[tuple]) -> tuple[list[float], float]:
    """Each input's median latency, and successful ops of one pass, in reference passes."""
    starts = [r[1] for r in records]
    cumulative = list(itertools.accumulate((r[4] for r in records), initial=0.0))
    ratios: dict[int, list] = {}
    for k, start, elapsed, good, _ in records:
        lo = bisect.bisect_left(starts, start - LOCAL_SECONDS)
        hi = bisect.bisect_right(starts, start + LOCAL_SECONDS)
        local = (cumulative[hi] - cumulative[lo]) / (hi - lo)
        ratios.setdefault(k, []).append((elapsed / local, good))
    medians = [statistics.median(r for r, _ in runs) for runs in ratios.values()]
    done = sum(sum(ok for _, ok in runs) / len(runs) for runs in ratios.values())
    return medians, done / sum(medians)


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    src = root / "src"
    if not (src / "morseflow" / "__init__.py").is_file():
        raise FileNotFoundError(f"no morseflow sources under {src}")
    expected = json.loads(SPEC.read_text(encoding="utf-8"))["digests"][name]
    workdir = root / OUT_DIR / f"{name}-{seed}-tmp"
    tally = Tally()
    try:
        setups = [setup(name, seed, src, workdir, expected, tally) for _ in range(SETUPS)]
        _, mf, wl, digest = setups[-1]
        seen: dict = {}
        phase = seconds / 2 if trace else seconds
        records = timed(wl, phase, tally, seen)
        medians, throughput = per_input(records)
        p50 = statistics.median(medians)
        p90 = statistics.quantiles(medians, n=10, method="inclusive")[8] if len(
            medians) > 1 else medians[0]
        ops = len(records)
        reference = statistics.fmean(r[4] for r in records)
        if trace:
            tracer = tracing.Tracer()
            tracer.install(mf)
            wl.tracer = tracer
            try:
                traced = timed(wl, phase, tally, seen)
            finally:
                tracer.uninstall()
                wl.tracer = None
            values = tracer.metrics({
                tracing.OVERHEAD: per_input(traced)[1] / throughput,
                tracing.REFERENCE: statistics.fmean(r[4] for r in traced) * 1e3,
            })
            units = tracing.metric_units()
            tracer.write(root / OUT_DIR / f"spans-{name}-{seed}.tsv")
            ops += len(traced)
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "setup_s": statistics.median(s[0] for s in setups),
                "throughput_ops_ref": throughput,
                "op_p50_ref": p50,
                "op_p90_ref": p90,
                "peak_rss_mib": rss_kib / 1024,
            }
            units = {"setup_s": "s", "throughput_ops_ref": "ops/ref", "op_p50_ref": "ref",
                     "op_p90_ref": "ref", "peak_rss_mib": "MiB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {name} seed={seed} trace={int(trace)}: {ops} timed ops over {len(medians)} inputs; "
          f"reference pass {reference * 1e3:.4g} ms, so op p50 ~{p50 * reference * 1e3:.4g} ms, "
          f"p90 ~{p90 * reference * 1e3:.4g} ms, ~{throughput / reference:.4g} ops/s; "
          f"golden digest {digest[:16]} ({'matches' if digest == expected else 'MISMATCH'})")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def smoke(root: Path) -> int:
    """Every workload for about a second in each mode.

    Checks that the output names every declared metric with its unit, that
    the layer map in spec.json covers every per-layer metric, and that no op
    failed.
    """
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    modes = {0: "end_to_end", 1: "per_layer"}
    problems = []
    layers = json.loads(SPEC.read_text(encoding="utf-8"))["layers"]
    unmapped = set(tracing.metric_units()) - {m for layer in layers for m in layer["metrics"]}
    if unmapped:
        problems.append(f"per-layer metrics missing from the layer map: {sorted(unmapped)}")
    for workload in declared["workloads"]:
        for trace, key in modes.items():
            result = measure(root, workload["name"], seed=1, seconds=1, trace=bool(trace))
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload['name']} trace={trace}: metrics differ from {key}: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload['name']} trace={trace}: {result['failed']} failed ops")
    for p in problems:
        print(f"bench smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
