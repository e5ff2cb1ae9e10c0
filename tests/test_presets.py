"""Every preset's determinism gate and named acceptance checks.

Each preset in :data:`repro.harness.scenarios.PRESETS` runs through
:func:`~repro.harness.scenarios.run_preset` (two runs from scratch,
identical digests) once per variant, and every named check runs against
each gated run. A failing case names the preset, the variant and the
check.
"""

import functools

import pytest

from repro.harness.scenarios import (
    PRESETS,
    DeterminismError,
    Digests,
    Preset,
    PresetRun,
    run_preset,
)


@functools.lru_cache(maxsize=None)
def _gated(name: str, variant: int) -> PresetRun:
    return run_preset(name, **PRESETS[name].variants[variant])


@pytest.fixture(scope="module", autouse=True)
def _release_runs():
    yield
    _gated.cache_clear()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_determinism_gate(name):
    for variant in range(len(PRESETS[name].variants)):
        run = _gated(name, variant)
        assert run.digests.metrics and run.digests.clock > 0


CHECKS = [(name, check) for name in sorted(PRESETS)
          for check in PRESETS[name].checks]


@pytest.mark.parametrize("name,check", CHECKS,
                         ids=[f"{name}-{check}" for name, check in CHECKS])
def test_check(name, check):
    preset = PRESETS[name]
    for variant, overrides in enumerate(preset.variants):
        try:
            preset.checks[check](_gated(name, variant))
        except AssertionError as exc:
            pytest.fail(f"{name} {overrides or '(defaults)'}: {exc}")


@pytest.mark.parametrize("drifting", Digests._fields)
def test_gate_fails_on_any_drifting_digest(monkeypatch, drifting):
    base = Digests("trace", "metrics", 1.0)
    runs = []

    def runner():
        value = getattr(base, drifting)
        runs.append(base._replace(**{drifting: value * (len(runs) + 1)}))
        return PresetRun(None, None, runs[-1])

    monkeypatch.setitem(PRESETS, "drifter", Preset("drifts", "serve",
                                                   runner))
    with pytest.raises(DeterminismError, match="drifter"):
        run_preset("drifter")
    assert run_preset("drifter", repeat=1).digests == runs[-1]

