import pytest

from adareg import suites
from adareg.errors import ValidationError


def test_failure_manifest_line():
    f = suites.Failure(suite="bounds", case="adagrad-full/adv-linear", seed=3, detail="x")
    assert f.manifest_line() == "FAIL suite=bounds case=adagrad-full/adv-linear seed=3 detail=x"


def test_matched_setups_cover_every_preset():
    from adareg.presets import PRESET_BUILDERS

    assert set(suites._matched_setups()) == set(PRESET_BUILDERS)


@pytest.mark.parametrize("name,kwargs", [
    ("lemmas", {"trials": 40}),
    ("argmin", {"trials": 2}),
    ("bounds", {"trials": 1, "horizon": 120}),
    ("matrix", {"trials": 30}),
])
def test_each_suite_passes_at_small_scale(name, kwargs):
    assert suites.run_suite(name, seed=1, **kwargs) == []


@pytest.mark.parametrize("name,function", [
    ("lemmas", "lemma_suite"),
    ("argmin", "argmin_suite"),
    ("bounds", "bounds_suite"),
    ("matrix", "matrix_suite"),
])
def test_run_suite_passes_trials_only_when_given(monkeypatch, name, function):
    calls = []
    monkeypatch.setattr(suites, function, lambda **kwargs: calls.append(kwargs) or [])
    assert suites.run_suite(name, seed=4) == []
    assert suites.run_suite(name, trials=2, seed=4) == []
    assert calls == [{"seed": 4}, {"trials": 2, "seed": 4}]


def test_bounds_suite_fault_injection_reports_failures():
    failures = suites.bounds_suite(trials=1, seed=1, horizon=120, fault="bound-shrink")
    assert len(failures) == 7  # one per preset
    assert all(f.suite == "bounds" for f in failures)


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        suites.run_suite("nope")
