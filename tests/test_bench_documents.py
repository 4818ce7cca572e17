"""Every repo-root ``BENCH_*.json`` is a passing ``carat.bench.v1``
document: the envelope keys, each metric's fields, every bound held,
and a ``pass`` verdict.  The checker is the one the benchmarks' writer,
``benchmarks/harness.py::emit_bench``, runs before it writes."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from harness import BENCH_SCHEMA, above, check_bench, metric  # noqa: E402

DOCUMENTS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_documents():
    assert DOCUMENTS


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_document_passes(path):
    doc = json.loads(path.read_text())
    assert check_bench(doc) == []
    assert path.name == f"BENCH_{doc['bench']}.json"


def _passing():
    return {
        "schema": BENCH_SCHEMA,
        "bench": "demo",
        "config": {"scale": "tiny"},
        "metrics": {
            "speedup": metric(2.0, "x", "higher", 1.5),
            "overhead": metric(1.2, "x", "lower", 2.0),
            "fingerprint": metric("abc", "sha256"),
        },
        "rows": [{"workload": "hpccg"}],
        "verdict": "pass",
    }


def test_a_metric_past_its_bound_is_rejected():
    assert check_bench(_passing()) == []
    doc = _passing()
    doc["metrics"]["speedup"]["value"] = 1.4
    problems = check_bench(doc)
    assert any(p.startswith("speedup = 1.4 x is past its bound") for p in problems)
    assert any("verdict 'pass' disagrees" in p for p in problems)
    doc["verdict"] = "fail"
    assert check_bench(doc) == [
        "speedup = 1.4 x is past its bound 1.5 (higher is better)"
    ]


def test_a_bound_is_inclusive_and_strictness_is_one_step_past_it():
    doc = _passing()
    doc["metrics"]["speedup"]["value"] = 1.5
    assert check_bench(doc) == []
    doc["metrics"]["speedup"] = metric(0.9, "ratio", "higher", above(0.9))
    assert check_bench(doc) != []


@pytest.mark.parametrize("damage", [
    lambda doc: doc.pop("rows"),
    lambda doc: doc.update(schema="carat.movepause.v1"),
    lambda doc: doc["metrics"]["speedup"].pop("unit"),
    lambda doc: doc["metrics"]["speedup"].update(better="faster"),
    lambda doc: doc["metrics"]["fingerprint"].update(bound="abc"),
    lambda doc: doc["metrics"]["overhead"].update(better=None),
])
def test_a_malformed_document_is_rejected(damage):
    doc = _passing()
    damage(doc)
    assert check_bench(doc) != []
