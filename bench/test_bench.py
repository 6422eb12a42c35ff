"""Tests of the benchmark itself: gate, metric names, spans and endpoint."""
from __future__ import annotations

import json

import pytest
import requests

from endpoint import LatencyEndpoint
from harness import (
    SPEC,
    WORKLOADS,
    GateFailure,
    Prepared,
    Workload,
    check_tree,
    measure,
    spans_path,
    traced_pipeline_run,
    tree_digest,
)
from tracing import Tracer, self_times
from biaslex.generation import GenerationConfig, StubBackend
from biaslex.identities import Language, PromptMethod
from biaslex.pipeline import pipeline_run

SMOKE = Workload("smoke-1-original", (Language.HINDI,), (PromptMethod.ORIGINAL,))
LAYERS = {"generation", "corpus", "lexicon", "scoring", "aggregate", "report"}


def _declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads(SPEC.read_text())[kind]}


def test_spec_names_the_workloads():
    spec = json.loads(SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_smoke_run_passes_the_gate_with_the_declared_metrics():
    result = measure(SMOKE, seed=0, seconds=0, trace=False)
    assert result.failed == 0
    assert result.attempted == SMOKE.records * len(result.walls)
    assert set(result.metrics) == _declared("end_to_end")
    assert all(value > 0 for value in result.metrics.values())


def test_traced_smoke_run_reports_every_layer_metric():
    result = measure(SMOKE, seed=0, seconds=0, trace=True)
    assert set(result.metrics) == _declared("per_layer")
    assert result.metrics["generation.cells_generated"] == SMOKE.records
    assert result.metrics["corpus.documents"] == 144
    spans = json.loads(spans_path(SMOKE, 0).read_text())["spans"]
    assert {span["name"].split(".")[0] for span in spans} >= LAYERS | {"pipeline"}


def test_gate_rejects_a_missing_report(tmp_path):
    prepared = Prepared(SMOKE, seed=0, work_dir=tmp_path)
    out = tmp_path / "run"
    pipeline_run(prepared.config(out))
    check_tree(out, SMOKE)
    next((out / "reports").iterdir()).unlink()
    with pytest.raises(GateFailure):
        check_tree(out, SMOKE)


def test_spans_nest_and_traced_artifacts_match(tmp_path):
    prepared = Prepared(SMOKE, seed=3, work_dir=tmp_path)
    pipeline_run(prepared.config(tmp_path / "plain"))
    tracer = Tracer(run=0)
    traced_pipeline_run(prepared.config(tmp_path / "traced"), tracer)
    assert tree_digest(tmp_path / "plain") == tree_digest(tmp_path / "traced")

    by_id = {span.id: span for span in tracer.spans}
    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in roots] == ["pipeline"]
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    assert min(self_times(tracer.spans).values()) >= 0.0
    assert {span.layer for span in tracer.spans} == LAYERS | {"pipeline"}


def test_endpoint_serves_stub_text_and_counts_connections():
    with LatencyEndpoint(seed=5, latency_ms=0) as endpoint:
        generated = requests.post(
            f"{endpoint.url}/generate", json={"prompt": "a prompt"}, timeout=10
        ).json()["text"]
        assert generated == StubBackend(5).generate("a prompt", GenerationConfig())
        echoed = requests.post(
            f"{endpoint.url}/translate", json={"prompt": "some text"}, timeout=10
        ).json()["text"]
        assert echoed == "some text"
        assert endpoint.stats() == {"requests": 2, "connections": 2}

        endpoint.reset()
        with requests.Session() as session:
            for _ in range(3):
                session.post(
                    f"{endpoint.url}/translate", json={"prompt": "x"}, timeout=10
                )
        assert endpoint.stats() == {"requests": 3, "connections": 1}
