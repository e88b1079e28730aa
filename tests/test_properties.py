"""Smoke-run every registered property and check runner behaviour."""

import ast
import dataclasses
import hashlib
import os
import random
import string
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from multibayes import SupportMismatchError, UnknownSuiteError, properties
from multibayes.channel import Channel
from multibayes.cli import cmd_check, main
from multibayes.core import SampleSpace
from multibayes.distribution import uniform
from multibayes.evidence import Evidence, Factor, falsity, point_pred, scale, truth
from multibayes.properties import PROPERTIES, _exists, _figures, groups, resolve_suite, run_suite
from registry import rebind, source_trees


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


@pytest.mark.parametrize("group", groups())
def test_importing_a_group_module_first_registers_every_group_in_order(group):
    """The package defines the registry before it imports the group
    modules, so a fresh interpreter that imports one group's module first
    registers the same properties in the same order."""
    src = str(Path(properties.__file__).parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = f"import sys, multibayes.properties.{group}; print(*sys.modules['multibayes.properties'].PROPERTIES)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, encoding="utf-8", check=True)
    assert result.stdout.split() == list(PROPERTIES)
    assert len(PROPERTIES) == 57


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


def test_a_property_that_raises_fails_and_the_next_one_runs(monkeypatch, capsys):
    first, second = resolve_suite("core")

    def raising(trials, rng):
        raise SupportMismatchError("planted")

    monkeypatch.setitem(PROPERTIES, first.prop_id, dataclasses.replace(first, run=raising))
    failed, ran = run_suite("core", trials=5, seed=42)
    assert (failed.prop_id, failed.passed, failed.trials) == (first.prop_id, False, 5)
    assert failed.line().startswith(f"FAIL  {first.prop_id}")
    assert failed.detail == "raised SupportMismatchError: planted"
    assert (ran.prop_id, ran.passed, ran.trials) == (second.prop_id, True, 5)
    assert cmd_check("core", 5, 42) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [failed.line(), ran.line(), "1/2 properties passed"]


def _equal_rows_channel(rng, *args, **kwargs):
    dom = properties._space(rng, max_size=4)
    cod = SampleSpace("uvw")
    return Channel(dom, cod, tuple(uniform(cod) for _ in dom)), properties._dist(rng, dom)


def _pack_with_equal_parts(rng, space, parts):
    half = scale(Fraction(1, 2), truth(space))
    return [half, half] + [falsity(space)] * (parts - 2)


#: property -> the names rebound in the registry so that every trial takes the property's skip
SKIPPED_EVERY_TRIAL = {
    # one non-constant factor, so p1 == p2 on every trial
    "covariance-identity": {"_factor": lambda rng, space, **kwargs: Factor._from_ints(space, range(len(space)), 12)},
    # point predicates of u and v both pull back along uniform rows to the constant 1/3
    "jeffrey-along-channel": {
        "_channel": _equal_rows_channel,
        "_evidence": lambda rng, space, **kwargs: Evidence([(point_pred("u", space), 1), (point_pred("v", space), 1)]),
    },
    # the first two parts of every pack are equal, and both properties keep them
    "matching-bounds": {"_perfect_pack": _pack_with_equal_parts},
    "perfect-match-normalisation": {"_perfect_pack": _pack_with_equal_parts},
}


@pytest.mark.parametrize("prop_id", SKIPPED_EVERY_TRIAL)
def test_a_property_that_skips_every_trial_passes_after_its_full_budget(prop_id, monkeypatch):
    # the skipped instances merge two factors of the evidence, which breaks the law of all but
    # matching-bounds (whose merged evidence still matches, but is not the pack it drew)
    drawn = []
    for name, helper in SKIPPED_EVERY_TRIAL[prop_id].items():
        rebind(monkeypatch, name, lambda *args, draw=helper, **kwargs: drawn.append(draw) or draw(*args, **kwargs))
    (result,) = run_suite(prop_id, 40, 0)
    assert (result.passed, result.trials, result.detail) == (True, 40, None)
    # a pass is also what the property reports when no trial meets the helpers, so each trial must draw from them
    assert len(drawn) >= 40


@pytest.mark.parametrize("trials", [0, -5, True, 2.0], ids=["zero", "negative", "bool", "float"])
@pytest.mark.parametrize("suite", ["core", "nonmatching-escape"])
def test_run_suite_refuses_a_trial_count_that_is_not_positive(suite, trials):
    # a trial count below one would report a pass having run nothing
    with pytest.raises(ValueError, match="^trials must be"):
        run_suite(suite, trials, 1)


@pytest.mark.parametrize("prop_id", ["vfe-argmin", "point-evidence-argmax"])
def test_a_candidate_sweep_holds_no_candidate_list(prop_id):
    # the sweeps build their grid and drawn candidates one at a time, so
    # memory does not grow with the grid or with the trial count
    tracemalloc.start()
    try:
        (result,) = run_suite(prop_id, trials=1000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.passed, result.trials) == (True, 1000), result.detail
    assert peak < 100_000


def test_exists_passes_at_the_first_witness_or_fails_after_every_trial():
    calls = []

    def probe(rng):
        calls.append(rng.random())
        return ("witness", len(calls)) if len(calls) == 3 else None

    assert _exists(10, random.Random(0), probe) == (True, 3, ("witness", 3))
    assert len(calls) == 3
    assert _exists(10, random.Random(0), lambda rng: None) == (False, 10, None)


def test_figures_are_checked_to_their_printed_digits():
    # the prior's Pearl validity is 0.28575 exactly: half to even gives the paper's 0.2858
    assert _figures((Fraction(1143, 4000), "0.2858"), (0.02756, "0.028"))
    assert _figures((Fraction(5, 8), "0.62"))
    # one tolerance of 5e-4 let 0.3085 pass for 0.3081; one figure off fails the pairs
    assert not _figures((Fraction(1143, 4000), "0.2858"), (0.3085, "0.3081"))


def _hand_trial_loops(func: ast.FunctionDef) -> list[str]:
    """The trial bookkeeping in a registered property or a function nested
    in it: a ``for`` statement or a comprehension over ``range(...)`` of
    ``trials``, or an assignment of ``ran`` of its own (unpacking a
    driver's result is fine)."""
    found = []
    for node in ast.walk(func):
        for loop in [node] if isinstance(node, ast.For) else getattr(node, "generators", []):
            if isinstance(loop.iter, ast.Call) and getattr(loop.iter.func, "id", None) == "range":
                if any(isinstance(n, ast.Name) and n.id == "trials" for arg in loop.iter.args for n in ast.walk(arg)):
                    found.append(f"line {node.lineno}: loop over range(trials)")
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "ran" for t in targets):
            found.append(f"line {node.lineno}: assigns ran")
    return found


def _returned_values(func: ast.FunctionDef) -> list[str]:
    """The statements of ``func``, not of a function nested in it, that return a value other than None."""
    found, stack = [], list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Return) and node.value is not None:
            if not (isinstance(node.value, ast.Constant) and node.value.value is None):
                found.append(f"line {node.lineno}: returns a value")
        stack.extend(ast.iter_child_nodes(node))
    return found


def _returned_failures(func: ast.FunctionDef) -> list[str]:
    """The statements in ``func`` that return a tuple whose first element is ``False``."""
    return [
        f"line {node.lineno}: returns a failure"
        for node in ast.walk(func)
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Tuple)
        and node.value.elts
        and isinstance(node.value.elts[0], ast.Constant)
        and node.value.elts[0].value is False
    ]


def test_no_registered_property_writes_its_own_trial_loop():
    # every trial loop is the one driver, _forall, or its dual _exists;
    # candidate sweeps walk _sweep and count their trials there
    trees = source_trees(properties)
    registered = [
        node
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Call) and d.func.id in ("_register", "_register_run") for d in node.decorator_list)
    ]
    assert len(registered) == len(PROPERTIES)
    offenders = {node.name: found for node in registered if (found := _hand_trial_loops(node))}
    assert not offenders, offenders
    # a per-trial check states each law with _law, which breaks the trial, so
    # it returns nothing but None (a skip); the message has a field per argument
    checks = [node for node in registered if any(d.func.id == "_register" for d in node.decorator_list)]
    checks += [node for tree in trees.values() for node in tree.body if getattr(node, "name", None) == "_increases"]
    checks += [n for node in registered for n in ast.walk(node) if getattr(n, "name", None) == "check"]
    offenders = {node.name: found for node in checks if (found := _returned_values(node))}
    assert not offenders, offenders
    # a whole-run body states its failures with _law too, so it returns only on pass
    offenders = {node.name: found for node in registered if (found := _returned_failures(node))}
    assert not offenders, offenders
    laws = [
        (module, n)
        for module, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_law"
    ]
    fields = {
        (module, n.lineno): [f for _, f, _, _ in string.Formatter().parse(n.args[1].value) if f is not None]
        for module, n in laws
    }
    assert fields == {(module, n.lineno): [""] * (len(n.args) - 2) for module, n in laws}
    # python -O drops an assert statement, and the law it states with it
    asserts = [f"{module} line {n.lineno}" for module, tree in trees.items() for n in ast.walk(tree)
               if isinstance(n, ast.Assert)]
    assert not asserts


def test_every_instance_is_drawn_in_one_pass():
    # a redraw or retry loop can run forever under a defective generator, or end in an error of its own
    nodes = [(module, node) for module, tree in source_trees(properties).items() for node in ast.walk(tree)]
    redraws = [f"{module} line {node.lineno}: while loop" for module, node in nodes if isinstance(node, ast.While)]
    redraws += [
        f"{module} line {node.lineno}: raises AssertionError"
        for module, node in nodes
        if isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node)
    ]
    assert not redraws
