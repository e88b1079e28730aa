"""Smoke-run every registered property and check runner behaviour."""

import hashlib

import pytest

from multibayes import UnknownSuiteError
from multibayes.cli import main
from multibayes.properties import PROPERTIES, groups, resolve_suite, run_suite


@pytest.mark.parametrize("prop_id", sorted(PROPERTIES))
def test_property_passes_at_small_trials(prop_id):
    (result,) = run_suite(prop_id, trials=30, seed=20240817)
    assert result.passed, f"{prop_id}: {result.detail}"


def test_all_suite_covers_every_property():
    assert {p.prop_id for p in resolve_suite("all")} == set(PROPERTIES)


def test_groups_cover_every_module():
    assert set(groups()) == {
        "core",
        "multiset",
        "distribution",
        "evidence",
        "validity",
        "update",
        "channel",
        "divergence",
    }


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuiteError):
        resolve_suite("nonsense")


def test_runs_are_deterministic_given_seed():
    first = run_suite("validity", trials=40, seed=11)
    second = run_suite("validity", trials=40, seed=11)
    assert [(r.prop_id, r.passed, r.trials, r.detail) for r in first] == [
        (r.prop_id, r.passed, r.trials, r.detail) for r in second
    ]


@pytest.mark.parametrize("seed", [0, 1, 99])
def test_other_seeds_stay_green(seed):
    assert all(r.passed for r in run_suite("update", trials=15, seed=seed))


def test_check_output_is_pinned(capsys):
    # ids, order, trial counts and details of every property, as printed
    assert main(["check", "--suite", "all", "--trials", "50", "--seed", "42"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "7293a6e2597f4c0f4b263164fed959076f41b7d3f72aecfe39a5333ea9304fe4"
