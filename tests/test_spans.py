"""The benchmark's traced run wraps morseflow functions by name; they must exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import morseflow
import morseflow.cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _load_spans()
    traced = [(owner, attr) for _, owner, attr, _ in spans.SPANS] + [("cli", "run")]
    missing = []
    for owner, attr in traced:
        holder = getattr(morseflow, owner, None)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(holder, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(holder, attr, None))
        if not found:
            missing.append(f"{owner}.{attr}")
    assert missing == []
