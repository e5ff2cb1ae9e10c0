"""Golden-master determinism suite.

Fixed-seed end-to-end runs of DiLOS, Fastswap, and AIFM over a small
sequential-read and Redis workload, pinned to a SHA-256 digest of the
full :class:`~repro.obs.snapshot.MetricsSnapshot` (every counter, gauge,
breakdown and histogram summary, plus the final simulated clock).

The digests below were captured on the *unoptimized* hot path, before the
coalesced-TLB/fast-clock work landed. Any refactor that shifts simulated
time or any canonical metric — even by one count — fails here loudly;
that is the contract that lets the hot path be rewritten freely.

If a change *intentionally* alters simulated behavior (a new latency
component, a new metric), re-capture with::

    PYTHONPATH=src python tests/test_golden_master.py

and update ``GOLDEN`` in the same commit, explaining why in its message.
"""

from __future__ import annotations

import pytest

from repro.common.units import MIB

#: scenario -> (metrics digest, final simulated clock in us).
GOLDEN = {
    "seqread_dilos": (
        "82f68d85aa88a847569fcc953fea561e461c6a6a5fc87d10657f3567a82ee93f",
        527.5879199999995),
    "seqread_fastswap": (
        "0db0fcfbc87f7b421a57c0bb0ccedfd6b19c8fb0d70cd826ee735dfe9da36217",
        2187.0835519999628),
    "seqscan_aifm": (
        "aa8168eb9db9d59bb2918a03a064a9fc4913fc233216b8b708a07a95610eb6f1",
        14.888069565217304),
    "redis_get_dilos": (
        "4688a2b5e4f86b069c0c959b6ba52a7bbaeaacaa779d5a8c3fb21813dc8c7965",
        5362.223680695648),
    "redis_get_fastswap": (
        "16bcfef36370161a3ea18e9e18dfe35d8f705ffe8f6e06c62614731a61947533",
        5899.989016695649),
    "kmeans_dilos": (
        "e6414fdf35a08e3e53cdf640213262d32dfe4727e999788af7a98f9712b748c6",
        160.3185391304348),
    "dataframe_dilos": (
        "6cdd6fe25f70a1a625f18c3b97e96ddb2f1d910873306d682f2a41d0a9a3456c",
        372.0654045217385),
    # The *_batch scenarios force the vectorized batch engine on and are
    # pinned to the SAME digests as their scalar counterparts above: the
    # batch engine's exactness contract (see repro/mem/batch.py) is that
    # span-vectorized execution changes nothing the simulation observes.
    "redis_get_dilos_batch": (
        "4688a2b5e4f86b069c0c959b6ba52a7bbaeaacaa779d5a8c3fb21813dc8c7965",
        5362.223680695648),
    "kmeans_dilos_batch": (
        "e6414fdf35a08e3e53cdf640213262d32dfe4727e999788af7a98f9712b748c6",
        160.3185391304348),
    "dataframe_dilos_batch": (
        "6cdd6fe25f70a1a625f18c3b97e96ddb2f1d910873306d682f2a41d0a9a3456c",
        372.0654045217385),
    # LLM inference: prefill writes + windowed random decode gathers over
    # the paged KV cache (see repro/apps/llm.py).
    "llm_dilos": (
        "5c2712afaa8e365d5c16c9c60a3759f9c31db2523afc6698f165dc924d5667a9",
        106.2514086956507),
    "llm_fastswap": (
        "93abac674986ec97196d24fecff9c2ca99376c2c35b29e52e679f604386f7944",
        126.0914086956507),
    "llm_aifm": (
        "f9ff1806039b972ddc774f3ecaf25cb4a9c59f7ad1d9527288f26313a69e588c",
        125.61444730435211),
    # Deliberately the SAME row as llm_dilos: a healthy sharded backend
    # changes page *placement*, never anything the simulation observes.
    "llm_dilos_sharded": (
        "5c2712afaa8e365d5c16c9c60a3759f9c31db2523afc6698f165dc924d5667a9",
        106.2514086956507),
    # Batch twin, same digest as the scalar run — the exactness contract.
    "llm_dilos_batch": (
        "5c2712afaa8e365d5c16c9c60a3759f9c31db2523afc6698f165dc924d5667a9",
        106.2514086956507),
    # The replicated KV service under the full chaos schedule (lossy
    # wire, lease-holder kill, rejoin + background resilver at serving
    # load); the digest includes the end-of-run lost-update audit.
    "kv_failover": (
        "69916c60cde3dfb0b14a49af9278085817846c0d68ebc85aa35095375ac6b507",
        1006.9989255652341),
}


def _run_seqread(kind: str):
    from repro.apps.seqrw import SequentialWorkload
    from repro.harness import local_bytes_for, make_system

    workload = SequentialWorkload(1 * MIB)
    system = make_system(kind,
                         local_bytes_for(workload.footprint_bytes, 0.25))
    workload.run(system, "read", verify=True)
    return system


def _run_seqscan_aifm():
    from repro.baselines.aifm import RemArray
    from repro.harness import local_bytes_for, make_system

    count, item = 512, 128
    system = make_system("aifm-rdma", local_bytes_for(count * item, 0.25))
    array = RemArray(system, count, item)
    for i in range(count):
        array.set(i, (i & 0xFF).to_bytes(1, "little") * item)
    for i, data in enumerate(array.scan()):
        assert data[0] == (i & 0xFF)
    return system


def _run_redis_get(kind: str):
    from repro.alloc import Mimalloc
    from repro.apps.redis import GetWorkload, RedisServer
    from repro.harness import local_bytes_for, make_system

    workload = GetWorkload(value_size=4096, n_keys=40, n_queries=120)
    system = make_system(kind,
                         local_bytes_for(workload.footprint_bytes, 0.25),
                         remote_bytes=32 * MIB)
    server = RedisServer(system, Mimalloc(system, arena_bytes=8 * MIB))
    workload.populate(server)
    system.clock.advance(5000)
    workload.drive(server, verify=True)
    return system


def _run_kmeans():
    from repro.apps.kmeans import KMeansWorkload
    from repro.harness import local_bytes_for, make_system

    workload = KMeansWorkload(n_points=1 << 11, dim=8, clusters=4,
                              iterations=2)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.25))
    workload.run(system)
    return system


def _run_dataframe():
    from repro.apps.dataframe import TaxiAnalyticsWorkload
    from repro.harness import local_bytes_for, make_system

    workload = TaxiAnalyticsWorkload(rows=1 << 13)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.25))
    workload.run(system)
    return system


def _run_llm(kind: str, backend: str = "node"):
    from repro.apps.llm import LlmWorkload
    from repro.harness import local_bytes_for, make_system

    workload = LlmWorkload(n_requests=4, seed=31)
    system = make_system(kind,
                         local_bytes_for(workload.footprint_bytes, 0.25),
                         backend=backend)
    workload.run(system)
    return system


def _run_kv_failover():
    from repro.harness.scenarios import PRESETS

    return PRESETS["kv_failover"].run().cluster


def _forced(builder, batch_on: bool):
    """Pin ``builder`` to one execution engine: the ``*_batch`` scenarios
    force the vectorized span path, their scalar counterparts force the
    per-page loops. Both land on the same GOLDEN row values — that
    equality is the batch engine's whole contract."""
    def run():
        from repro.mem import batch
        with batch.force(batch_on):
            return builder()
    return run


SCENARIOS = {
    "seqread_dilos": lambda: _run_seqread("dilos-readahead"),
    "seqread_fastswap": lambda: _run_seqread("fastswap"),
    "seqscan_aifm": _run_seqscan_aifm,
    "redis_get_dilos":
        _forced(lambda: _run_redis_get("dilos-readahead"), False),
    "redis_get_fastswap": lambda: _run_redis_get("fastswap"),
    "kmeans_dilos": _forced(_run_kmeans, False),
    "dataframe_dilos": _forced(_run_dataframe, False),
    "redis_get_dilos_batch":
        _forced(lambda: _run_redis_get("dilos-readahead"), True),
    "kmeans_dilos_batch": _forced(_run_kmeans, True),
    "dataframe_dilos_batch": _forced(_run_dataframe, True),
    "llm_dilos": _forced(lambda: _run_llm("dilos-readahead"), False),
    "llm_fastswap": lambda: _run_llm("fastswap"),
    "llm_aifm": lambda: _run_llm("aifm-rdma"),
    "llm_dilos_sharded":
        lambda: _run_llm("dilos-readahead", backend="sharded:2"),
    "llm_dilos_batch": _forced(lambda: _run_llm("dilos-readahead"), True),
    "kv_failover": _run_kv_failover,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_master(name):
    system = SCENARIOS[name]()
    snapshot = system.metrics()
    want_digest, want_clock = GOLDEN[name]
    assert system.clock.now == want_clock, (
        f"{name}: simulated clock moved — {system.clock.now} us, "
        f"golden {want_clock} us. A hot-path change altered simulated "
        "time; fix it or deliberately re-capture (see module docstring).")
    assert snapshot.digest() == want_digest, (
        f"{name}: metrics digest changed while the clock matched — some "
        "counter/gauge/histogram shifted. Diff the canonical JSON:\n"
        f"{snapshot.canonical_json()}")


def test_digest_is_stable_within_process():
    """Two identical runs in one process must collide on the digest."""
    first = SCENARIOS["seqread_dilos"]().metrics().digest()
    second = SCENARIOS["seqread_dilos"]().metrics().digest()
    assert first == second


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        system = SCENARIOS[name]()
        print(f'    "{name}": (\n'
              f'        "{system.metrics().digest()}",\n'
              f'        {system.clock.now!r}),')
