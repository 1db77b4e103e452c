"""Tests of the benchmark itself: determinism, the oracle, the tracer, the contract.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer
import workloads
from triadtet import bdverify, linalg, sl2, synthesis, tet

ROOT = Path(__file__).resolve().parent.parent


def _documents(workload: str, seed: int, out: Path, rounds: int = 2) -> dict:
    out.mkdir()
    stream = workloads.InputStream(workload, seed, out)
    for _ in range(rounds):
        stream.next_round()
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload, tmp_path):
    first = _documents(workload, 7, tmp_path / "a")
    second = _documents(workload, 7, tmp_path / "b")
    assert len(first) == 2 * len(workloads.MIXES[workload])
    assert first == second
    other = _documents(workload, 8, tmp_path / "c")
    assert set(other.values()).isdisjoint(first.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_no_input_repeats_within_a_stream(workload, tmp_path):
    docs = _documents(workload, 3, tmp_path / "a", rounds=3)
    bodies = [
        json.dumps({k: v for k, v in json.loads(b).items() if k != "metadata"})
        for b in docs.values()
    ]
    assert len(set(bodies)) == len(bodies)


def _cheap_items(workload: str, tmp_path: Path) -> list:
    """One item of each kind in a round, without the slowest diameters."""
    stream = workloads.InputStream(workload, 1, tmp_path)
    slow = {"vd d=6", "vd d=7", "vd d=8", "dense d=7", "dense d=8"}
    first = {}
    for it in stream.next_round():
        if it.kind not in slow:
            first.setdefault(it.kind.split()[0] + str(it.stages), it)
    return list(first.values())


def _corrupt(outcome: oracle.Outcome, item) -> oracle.Outcome:
    """The same outcome with one fact changed, as a broken library would give."""
    expected = item.expected["outcome"]
    if expected == "raises":
        return dataclasses.replace(outcome, error=None)
    if expected == "refutation":
        verdict = dataclasses.replace(outcome.verdict, clause="spectrum")
        return dataclasses.replace(outcome, verdict=verdict)
    if outcome.synthesis is not None:
        res = outcome.synthesis
        broken = dataclasses.replace(res, algebra_dimension=res.algebra_dimension - 1)
        return dataclasses.replace(outcome, synthesis=broken)
    cert = outcome.verdict
    seqs = list(cert.sequences)
    seqs[1] = seqs[1][::-1]
    return dataclasses.replace(
        outcome, verdict=dataclasses.replace(cert, sequences=tuple(seqs))
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_oracle_accepts_real_and_rejects_corrupted_results(workload, tmp_path):
    items = _cheap_items(workload, tmp_path)
    for item in items:
        outcome = oracle.execute(item)
        assert oracle.check(item, outcome) == [], item.ident
        assert oracle.check(item, _corrupt(outcome, item)), item.ident


def test_run_counts_corrupted_results_as_failed(tmp_path):
    class CorruptingOracle:
        check = staticmethod(oracle.check)

        @staticmethod
        def execute(item):
            return _corrupt(oracle.execute(item), item)

    class OneRound:
        def __init__(self, items):
            self.items = items

        def next_round(self):
            return self.items

    items = _cheap_items("triage", tmp_path)
    honest = run.Run(oracle, OneRound(items))
    honest.round(False)
    assert honest.failures == []
    broken = run.Run(CorruptingOracle, OneRound(items))
    broken.round(False)
    assert [ident for ident, _ in broken.failures] == [it.ident for it in items]
    assert run.end_to_end_metrics(broken, 0.0, scaled=True)["ok_frac"] == 0.0


def test_a_triage_round_covers_every_clause(tmp_path):
    stream = workloads.InputStream("triage", 2, tmp_path)
    expected = {
        it.expected.get("clause") or it.expected.get("exception") or "certificate"
        for it in stream.next_round()
    }
    assert expected == {
        "dimensions", "diagonalizable", "ordering", "bijection", "degenerate",
        "IrrationalSpectrum", "certificate",
    }


def test_tracer_rebinds_every_import_and_restores_it(tmp_path):
    originals = {
        mod: mod.eigen_decompose for mod in (linalg, bdverify, synthesis, tet, sl2)
    }
    item = next(
        it for it in workloads.InputStream("vd_pipeline", 1, tmp_path).next_round()
        if it.kind == "vd d=2"
    )
    tr = tracer.Tracer()
    with tr:
        for mod in originals:
            assert mod.eigen_decompose is not originals[mod]
        tr.begin_op(item.ident)
        assert oracle.check(item, oracle.execute(item)) == []
    for mod, fn in originals.items():
        assert mod.eigen_decompose is fn
    assert linalg.RMatrix.__mul__.__module__ == "triadtet.linalg"
    # verify, reduce's re-verification, and four corners
    assert tr.calls["bdverify.verify_bd_triad"] == 6
    assert tr.calls["tet.spectrum_diameter"] == 1
    assert tr.matmul_calls > 0 and tr.max_entry_bits > 0
    # each span's parent exists and opened no later than the child
    spans = {s[0]: s for s in tr.spans}
    for span_id, parent, op, name, start, duration in tr.spans:
        assert op == item.ident and duration >= 0
        if parent is not None:
            assert spans[parent][4] <= start
    # no wrapped function nests inside itself here, so inclusive time is
    # the sum of its spans and bounds its self time
    for name, total in tr.self_ns.items():
        assert -1000 <= total <= tr.inclusive_ns[name] + 1000


def test_every_reported_span_is_wrapped():
    wrapped = {tracer.layer_name(module, func) for module, func in tracer.SPANS}
    assert {span for span, _ in run.LAYER_SPANS} == wrapped


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "triage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
