"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from boundedgen import costs, engine, evalharness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    originals = (engine.MaskEngine.__dict__["compute_mask"], costs.save_cache, evalharness.evaluate)
    tracer = tracing.Tracer() if trace else None
    result = workloads.WORKLOADS[name](3, 0.0, workloads.TINY, tmp_path, tracer)
    assert result.outcomes.attempted > 0
    assert result.outcomes.failed == 0, result.outcomes.failures
    assert set(result.metrics) | {"peak_rss_mb"} == END_TO_END
    assert all(value > 0 for value, _ in result.metrics.values())
    assert (engine.MaskEngine.__dict__["compute_mask"], costs.save_cache, evalharness.evaluate) == originals
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)  # the set-up tick timer is off
    if trace:
        layers = tracing.layer_metrics(tracer, result.builds, 0.0)
        assert set(layers) == PER_LAYER
        timed = tracer.spans_by_phase()["timed"]
        assert ("engine" in timed) == (name != "precompute_vocab")
        if name == "adversarial_state":
            # the gated reuse covers the deep sessions; the string's is reported apart
            assert layers["engine.accept_sequences.reuse"][0] == tracer.reuse({"deep"})
            assert "string_accept_sequences_reuse" in result.extra


def test_same_seed_same_digest(tmp_path):
    digests = {
        workloads.run_adversarial_state(5, 0.0, workloads.TINY, tmp_path).outcomes.digest
        for _ in range(2)
    }
    assert len(digests) == 1


def test_gate_rejects_wrong_outputs():
    vocab = inputs.base_vocab()
    good = inputs.copy_tokenize(vocab, b'{"a":1}') + [vocab.eos]
    cut = inputs.copy_tokenize(vocab, b'{"a":') + [vocab.eos]
    check = workloads.check_output
    assert check(vocab, good, len(good)) is None
    assert "end-of-sequence" in check(vocab, good[:-1], 99)
    assert "exceed the budget" in check(vocab, good, len(good) - 1)
    assert "not JSON" in check(vocab, cut, 99)
    assert "differs" in check(vocab, good, 99, expected=b'{"a":2}')


def test_gate_fires_when_the_engine_misbehaves(tmp_path, monkeypatch):
    real = engine.MaskEngine.compute_mask

    def never_eos(self, state):
        bits = real(self, state)
        bits[self.vocab.eos] = False
        return bits

    monkeypatch.setattr(engine.MaskEngine, "compute_mask", never_eos)
    outcomes = workloads.run_adversarial_state(5, 0.0, workloads.TINY, tmp_path).outcomes
    assert outcomes.failed == outcomes.attempted > 0


def test_fails_without_program_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "json_decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
