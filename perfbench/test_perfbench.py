"""Tests of the benchmark's own machinery: span self times, the
service_mix generator, the answer checks, layer attribution of an
injected slowdown, and the refusal to run without the program."""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import mix  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, by_layer, self_times  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


# -- spans -------------------------------------------------------------------
def test_self_time_is_span_minus_covered_children():
    spans = [(1, "parent", 0.0, 10.0, 0),
             (2, "child", 1.0, 3.0, 1),
             (3, "child", 2.0, 4.0, 1),      # overlaps the child before
             (4, "child", 6.0, 7.0, 1),
             (5, "grandchild", 6.2, 6.8, 4),
             (6, "child", 9.5, 11.0, 1)]     # ends after its parent
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert own[4] == pytest.approx(1.0 - 0.6)
    assert own[5] == pytest.approx(0.6)


def test_tracer_nests_spans_per_call():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    rows = by_layer(tracer.spans)
    assert rows["outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert rows["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_kernels_leave_stage_self_time_alone():
    spans = [(1, "transient.settle", 0.0, 10.0, 0),
             (2, "mna.assemble", 1.0, 5.0, 1),
             (3, "pss.shooting", 5.0, 7.0, 1),
             (4, "mna.assemble", 5.5, 6.0, 3)]
    rows = by_layer(spans, kernels={"mna.assemble"})
    assert rows["transient.settle"]["self_s"] == pytest.approx(8.0)
    assert rows["pss.shooting"]["self_s"] == pytest.approx(2.0)
    assert rows["mna.assemble"]["self_s"] == pytest.approx(4.5)


def test_restore_puts_every_original_back():
    import repro.api as api
    before = (api.compile_circuit,
              sys.modules["repro.analysis.mna"].CompiledCircuit.assemble)
    tracer = Tracer()
    layers.install(tracer)
    layers.install_client(tracer)
    layers.install_server(tracer)
    tracer.restore()
    after = (api.compile_circuit,
             sys.modules["repro.analysis.mna"].CompiledCircuit.assemble)
    assert after == before


# -- service_mix generator -----------------------------------------------------
LABELS = [f"{kind}-{i:02d}" for kind, n in mix.POOL_SIZES.items()
          for i in range(n)]


def _take(seed: int, client: int, n: int = 2000) -> list:
    stream = mix.stream(LABELS, seed, client)
    return [next(stream) for _ in range(n)]


def test_mix_stream_is_deterministic_per_seed():
    assert _take(5, 0) == _take(5, 0)
    assert _take(5, 0) != _take(6, 0)
    assert _take(5, 0) != _take(5, 1)


def test_mix_stream_has_fixed_kind_shares_and_skewed_keys():
    draws = _take(5, 0, 20000)
    kinds = Counter(label.split("-")[0] for label in draws)
    for kind, share in mix.KIND_SHARE.items():
        assert kinds[kind] / len(draws) == pytest.approx(share, abs=0.02)
    dc = Counter(label for label in draws if label.startswith("dc-"))
    assert dc.most_common(1)[0][1] > 5 * statistics.median(dc.values())
    hot = {seed: Counter(_take(seed, 0, 5000)).most_common(1)[0][0]
           for seed in range(5)}
    assert len(set(hot.values())) > 1      # the seed picks the hot keys


# -- answer checks -------------------------------------------------------------
def test_reference_answers_pass_their_own_check():
    for name in workloads.BATCH:
        for op, want in REFERENCE[name].items():
            assert workloads.check(op, want, want) == []
    for label, want in REFERENCE["service_mix"].items():
        assert mix.check(label, want, want) == []


def test_perturbed_sigma_is_a_failure():
    want = REFERENCE["logic_table2"]["proposed"]
    got = copy.deepcopy(want)
    got["delay_A"]["sigma"] *= 1 + 1e-11      # inside the tolerance
    assert workloads.check("proposed", got, want) == []
    got["delay_A"]["sigma"] = want["delay_A"]["sigma"] * (1 + 1e-8)
    assert workloads.check("proposed", got, want)

    mc = REFERENCE["logic_table2"]["mc"]
    assert workloads.check("mc", dict(mc, sha256="0" * 64), mc)

    label = "tm-00"
    reply = copy.deepcopy(REFERENCE["service_mix"][label])
    reply["summary"]["metrics"]["vout"]["sigma"] *= 1 + 1e-8
    assert mix.check(label, reply, REFERENCE["service_mix"][label])


def test_wrong_answers_count_as_failed_operations():
    ok = {"setup_s": 1.0, "peak_rss_mb": 100.0, "wall_s": 1.0,
          "errors": [], "kernel_s": [calib.REFERENCE_S]}
    wrong = dict(ok, errors=["sigma off"])
    result = run.batch_result([("proposed", wrong), ("mc", ok),
                               ("proposed", None)], [])
    assert (result["attempted"], result["failed"]) == (3, 2)

    label = "tm-00"
    right = REFERENCE["service_mix"][label]
    wrong = copy.deepcopy(right)
    wrong["summary"]["metrics"]["vout"]["nominal"] *= 1 + 1e-6
    records = [(label, 0.1, True, False, 0.1, right),
               (label, 0.1, True, True, 0.1, wrong),
               (label, 0.1, False, False, 0.0, "TransportError: gone")]
    failed, errors = child._check_replies(records, REFERENCE["service_mix"])
    assert failed == 2 and len(errors) >= 2


def test_a_slower_host_reports_the_same_times():
    fast = {"setup_s": 1.0, "peak_rss_mb": 100.0, "wall_s": 2.0,
            "errors": [], "kernel_s": [calib.REFERENCE_S] * 3}
    slow = dict(fast, setup_s=1.5, wall_s=3.0,
                kernel_s=[1.5 * calib.REFERENCE_S] * 3)
    on_fast = run.batch_result([("proposed", fast), ("mc", fast)], [])
    on_slow = run.batch_result([("proposed", slow), ("mc", slow)], [])
    assert on_slow["metrics"] == pytest.approx(on_fast["metrics"])
    assert on_fast["metrics"]["proposed_s"] == pytest.approx(2.0)

    # the second segment ran on a host twice as slow
    segments = [{"loop_s": 2.0, "kernel_s": [calib.REFERENCE_S]},
                {"loop_s": 2.0, "kernel_s": [2 * calib.REFERENCE_S]}]
    requests = [("tm-00", 0.4, True, False, 0),
                ("mc-00", 0.1, True, False, 0),
                ("tm-00", 0.8, True, True, 1),
                ("mc-00", 0.2, True, False, 1)]
    rec = {"setup_s": 1.0, "kernel_s": [calib.REFERENCE_S],
           "segments": segments, "requests": requests, "peak_rss_mb": 1.0,
           "failed": 0, "errors": []}
    metrics = run.service_result(rec, [])["metrics"]
    assert metrics["mc_s"] == pytest.approx(0.1)
    assert metrics["throughput_rps"] == pytest.approx(4 / 3.0)


def test_table2_child_runs_exactly_one_operation(tmp_path):
    with pytest.raises(SystemExit) as exc:
        child.main(["comparator_pss", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2


# -- attribution ---------------------------------------------------------------
def _traced(api, request) -> tuple[float, dict]:
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        tracer.call("op.proposed", api.AnalysisSession().run, request)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    trace = {"rows": by_layer(tracer.spans, layers.KERNELS),
             "counters": tracer.counters, "session": {}}
    return wall, layers.layer_metrics(trace)


def test_sleep_in_one_layer_names_that_layer():
    import repro.api as api
    mna = sys.modules["repro.analysis.mna"]
    request = mix.build_pool(api)["tm-00"]
    base_wall, base = _traced(api, request)

    delay = 5e-4
    original = mna.CompiledCircuit.assemble

    def slow_assemble(self, *args, **kwargs):
        time.sleep(delay)
        return original(self, *args, **kwargs)

    mna.CompiledCircuit.assemble = slow_assemble
    try:
        wall, slowed = _traced(api, request)
    finally:
        mna.CompiledCircuit.assemble = original

    added = slowed["mna.assemble_calls"] * delay
    assert slowed["mna.assemble_calls"] == base["mna.assemble_calls"]
    layer_times = [name for name, _, (kind, _) in layers.LAYER_METRICS
                   if kind == "self"]
    growth = {name: slowed[name] - base[name] for name in layer_times}
    assert max(growth, key=growth.get) == "mna.assemble_s"
    assert growth["mna.assemble_s"] >= 0.9 * added
    assert wall - base_wall >= 0.5 * added     # the proposed_s wall


# -- contract ------------------------------------------------------------------
def test_benchmark_json_matches_what_runs_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == [(name, unit) for name, unit, _ in layers.LAYER_METRICS]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "logic_table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
