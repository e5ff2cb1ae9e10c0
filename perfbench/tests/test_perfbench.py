"""The benchmark's own tests: tiny runs, the metric contract, the checks.

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

import dataclasses
import json
import os

import pytest

from perfbench import reference
from perfbench.bench import (
    END_TO_END,
    PER_LAYER,
    conservation_errors,
    latency_errors,
    parse_args,
    result_line,
    run_pass,
    run_traced,
    run_untraced,
)
from perfbench.layers import LAYERS, LayerProfile, nearest_rank
from perfbench.workloads import WORKLOADS
from repro.core.dilos import DilosKernel
from repro.mem.page_table import PageTable
from repro.obs.export import validate_chrome_trace
from repro.obs.registry import LogHistogram

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Requests per stream of a tiny run: every workload stays under ~1 s.
TINY = 200


def _tiny(name, seed):
    """One stream of ``TINY`` requests, then its tapped repeat."""
    return run_untraced(WORKLOADS[name], seed, 0.0, TINY, 1, 1)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tiny traced run per workload (shared by several tests)."""
    out = tmp_path_factory.mktemp("traces")
    return {name: run_traced(WORKLOADS[name], 3, 0.0, TINY,
                             str(out / f"{name}.json"))
            for name in WORKLOADS}


def test_command_line_takes_the_four_run_arguments():
    args = parse_args(["--workload", "rack", "--seed", "4", "--seconds",
                       "20", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == (
        "rack", 4, 20.0, 1)
    with pytest.raises(SystemExit):
        parse_args(["--workload", "nope", "--seed", "1", "--seconds", "1"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name):
    outcome = _tiny(name, 5)
    assert outcome.errors == []
    line = result_line(outcome)
    assert line["correct"] and line["failed"] == 0
    # One timed stream plus its tapped repeat.
    assert line["attempted"] == 2
    assert set(line["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_simulated_metrics_are_a_function_of_the_seed():
    first = _tiny("rack", 9)
    again = _tiny("rack", 9)
    other = _tiny("rack", 10)
    assert first.digests == again.digests
    assert first.digests != other.digests
    for name in ("sim_p50_us", "sim_p99_us", "sim_goodput_rps",
                 "fail_ratio"):
        assert first.metrics[name] == again.metrics[name]


def test_every_metric_is_declared_in_benchmark_json(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == PER_LAYER
    for outcome in traced.values():
        assert set(result_line(outcome)["metrics"]) == set(PER_LAYER)


def test_conservation_check_fires_on_a_doctored_report():
    done = run_pass(WORKLOADS["flash_crowd"], 1, TINY, tap=True)
    report = done.report
    assert done.errors == []
    assert conservation_errors(report) == []
    # A tenant that served one request fewer than were admitted.
    name, served = next(iter(report.per_tenant.items()))
    lost = dataclasses.replace(
        report, per_tenant={**report.per_tenant, name: served - 1})
    assert any("tenants served" in e for e in conservation_errors(lost))
    # A completion the frontend's own counter never saw.
    counters = dict(report.snapshot.counters)
    counters["serve.completed"] -= 1
    dropped = dataclasses.replace(
        report, snapshot=dataclasses.replace(report.snapshot,
                                             counters=counters))
    assert any("serve.completed" in e for e in conservation_errors(dropped))


def test_latency_check_fires_when_the_tap_misses_a_request():
    done = run_pass(WORKLOADS["flash_crowd"], 1, TINY, tap=True)
    assert len(done.latencies) == done.report.completed > 0
    assert latency_errors(done.report, done.latencies) == []
    assert any("tap captured" in e
               for e in latency_errors(done.report, done.latencies[1:]))
    # Timed passes are not tapped, and the tap is gone after a pass.
    assert run_pass(WORKLOADS["flash_crowd"], 1, TINY).latencies is None
    assert "record" not in LogHistogram.__dict__


def test_traced_and_untraced_digests_match(traced):
    for name, outcome in traced.items():
        assert outcome.errors == [], name
        # One stream: the untraced pass and the traced pass agreed on it.
        assert len(outcome.digests) == 1, name
        assert outcome.attempted == 2, name


def test_bypass_predictions_hold_when_counted(traced):
    for name, outcome in traced.items():
        m = outcome.metrics
        paging = name != "kv_failover"
        for metric in ("core.fault_calls", "mem.page_table_calls",
                       "mem.vm_calls"):
            assert (m[metric] > 0) == paging, (name, metric)
        assert (m["net.topology_calls"] > 0) == (name == "rack"), name
        assert m["apps.handle_calls"] == m["apps.handle_samples"] > 0
    assert traced["kv_failover"].metrics["net.reliable_self_ms"] > 0
    assert traced["kv_failover"].metrics["mem.backend_calls"] > 0


def test_chrome_trace_validates_and_links_requests(traced):
    outcome = traced["flash_crowd"]
    with open(outcome.trace_path, encoding="utf-8") as fh:
        doc = validate_chrome_trace(fh.read())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    ids = {e["args"]["id"] for e in spans}
    roots = [e for e in spans if e["name"] == "ServeFrontend.run"]
    assert len(roots) == 1
    handled = [e for e in spans if e["cat"] == "apps"]
    assert handled and all("req" in e["args"] for e in handled)
    # Every parent named by a span is itself in the trace.
    assert all(e["args"]["parent"] in ids
               for e in spans if "parent" in e["args"])
    assert any(e["cat"] == "fault" for e in spans)


def test_profile_puts_every_original_back():
    before = {(cls, name): cls.__dict__.get(name)
              for targets in LAYERS.values()
              for cls, names in targets for name in names}
    profile = LayerProfile()
    with profile:
        assert PageTable.get is not before[(PageTable, "get")]
        assert DilosKernel.handle_fault is not before[
            (DilosKernel, "handle_fault")]
    after = {key: key[0].__dict__.get(key[1]) for key in before}
    assert after == before


def test_host_speed_is_relative_to_the_reference_unit():
    # Units that took twice the reference time: a host at half speed,
    # whose times are halved to read as at the reference speed.
    slow = reference.Slice(4 * reference.NOMINAL_UNIT_S, 2)
    fast = reference.Slice(reference.NOMINAL_UNIT_S / 2, 1)
    assert reference.speed(slow, slow) == pytest.approx(0.5)
    assert reference.speed(fast, fast) == pytest.approx(2.0)
    done = reference.measure(0.0)
    assert done.units == 1 and done.seconds > 0


def test_nearest_rank_matches_the_histogram_rule():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank(values[:10], 99) == 10.0
    assert nearest_rank([], 50) == 0.0
