"""The benchmark's golden inputs give the digests recorded in bench/spec.json.

The digests hash every workload's output summaries on small fixed inputs,
so a change of any result the benchmark checks shows up here, in the
ordinary test run, and not only when the benchmark is run.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def run_module():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["surface", "corpus", "mountain", "cli"])
def test_golden_digest_matches_the_spec(run_module, name, tmp_path):
    # The already-imported package: ``run.import_morseflow`` would re-import it
    # under the other tests.
    modules = {m: importlib.import_module(f"morseflow.{m}") for m in run_module.MODULES}
    mf = SimpleNamespace(**modules)
    tally = run_module.Tally()
    digest = run_module.golden_digest(name, mf, tmp_path, tally)
    expected = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))["digests"][name]
    assert tally.failed == 0
    assert digest == expected
