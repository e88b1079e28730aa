"""Seeded property suites for every module's stated invariants.

Each property runs a number of randomised trials from its own
deterministic RNG (derived from the global seed and the property id)
and reports the first counterexample, if any.  The same registry backs
the ``check`` CLI subcommand and the acceptance tests.

The registry, the trial drivers and the random generators are defined
here, in the package itself.  The properties of each group live in the
module of that name (``core``, ``multiset``, ``distribution``,
``evidence``, ``validity``, ``update``, ``channel``, ``divergence``),
which imports by name from this package what it uses; a new property
goes in the module of its group.  One file per group keeps each
compile small: Python builds a whole file's syntax tree before it
compiles it, and a process that imports without cached bytecode keeps
the memory of its largest compile.

To add a property, decorate a per-trial check ``check(rng)`` with
``@_register(prop_id, group)``.  It draws one random instance from
``rng``, states each law of it with ``_law(holds, message, *args)`` and
returns None, or returns early to skip a degenerate trial.  The laws run
in order: ``_law`` breaks the trial at the first that does not hold,
formatting its message only then, and the one trial driver, ``_forall``,
reports that trial.  Draw a space with a distribution on it by
``_prior``, and a channel with a distribution on its domain by
``_channel``.  A fixed instance is a check with ``max_trials=1`` that
ignores ``rng``; it compares its values with the paper's printed figures
by ``_figures``.  Use ``@_register_run`` on a whole-run function
``run(trials, rng)`` only where the result is not "first failing trial":
a witness search runs on ``_exists``, the dual of ``_forall``; a
candidate sweep walks ``_sweep``; a check that reports a detail on pass
wraps ``_forall``.  A whole-run body states its laws with ``_law`` too,
passing ``trials=trials`` for a law of its sweep or search (a law of its
fixed instance reports 1 trial), and returns ``(True, trials_run,
detail)`` only on pass.  No property writes a trial loop, redraw or
retry of its own: each instance is drawn once, and a degenerate draw is
a skip.  Registration order is the output order: the group modules are
imported at the end in the order of the groups, and each registers its
properties in the order it defines them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from ..channel import Channel
from ..core import SampleSpace, Scalar, _require_naturals
from ..distribution import Dist, flrn
from ..errors import UnknownSuiteError
from ..evidence import Evidence, Factor
from ..multiset import Multiset, acc

FLOAT_SLACK = 1e-9
TIE_SKIP = 1e-9


@dataclass
class CheckResult:
    prop_id: str
    group: str
    passed: bool
    trials: int
    detail: str | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        text = f"{status}  {self.prop_id}  ({self.trials} trials)"
        if self.detail:
            text += f"  -- {self.detail}"
        return text


@dataclass(frozen=True)
class Property:
    prop_id: str
    group: str
    run: Callable[[int, random.Random], tuple[bool, int, str | None]]
    max_trials: int | None = None


PROPERTIES: dict[str, Property] = {}


class _Broken(Exception):
    """A law does not hold; its args are the counterexample and the trial count a whole run reports for it."""


def _law(holds: bool, message: str, *args, trials: int = 1) -> None:
    """State one law: unless it ``holds``, break the trial or run with ``message.format(*args)``."""
    if not holds:
        raise _Broken(message.format(*args), trials)


def _forall(trials: int, rng: random.Random, check: Callable[[random.Random], object]):
    """Run up to ``trials`` trials of ``check``; fail at the first that breaks a law or returns a value."""
    for t in range(trials):
        try:
            detail = check(rng)
        except _Broken as broken:
            detail = broken.args[0]  # the failing trial is t + 1, whatever count the law names
        if detail is not None:
            return False, t + 1, detail
    return True, trials, None


def _exists(trials: int, rng: random.Random, probe: Callable[[random.Random], object]):
    """The dual of :func:`_forall`: pass at the first trial whose ``probe`` returns a witness (not None)."""
    held, ran, witness = _forall(trials, rng, probe)
    return not held, ran, witness


def _register_run(prop_id: str, group: str, max_trials: int | None = None):
    def wrap(run):
        PROPERTIES[prop_id] = Property(prop_id, group, run, max_trials)
        return run

    return wrap


def _register(prop_id: str, group: str, max_trials: int | None = None):
    def wrap(check):
        _register_run(prop_id, group, max_trials)(lambda trials, rng: _forall(trials, rng, check))
        return check

    return wrap


def groups() -> tuple[str, ...]:
    seen = dict.fromkeys(p.group for p in PROPERTIES.values())
    return tuple(seen)


def resolve_suite(name: str) -> list[Property]:
    if name == "all":
        return list(PROPERTIES.values())
    if name in PROPERTIES:
        return [PROPERTIES[name]]
    selected = [p for p in PROPERTIES.values() if p.group == name]
    if not selected:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose 'all', a group ({', '.join(groups())}) "
            "or a property id"
        )
    return selected


def run_suite(name: str, trials: int, seed: int) -> list[CheckResult]:
    _require_naturals((trials,), "trials")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    results = []
    for prop in resolve_suite(name):
        rng = random.Random(f"{seed}|{prop.prop_id}")
        budget = trials if prop.max_trials is None else min(trials, prop.max_trials)
        try:
            passed, ran, detail = prop.run(budget, rng)
        except _Broken as broken:  # a whole-run body returns only on pass
            (detail, ran), passed = broken.args, False
        except Exception as exc:  # a property that raises has failed; the next one still runs
            passed, ran, detail = False, budget, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(prop.prop_id, prop.group, passed, ran, detail))
    return results


# ---------------------------------------------------------------------------
# random generators (all exact-mode unless stated otherwise)

_LABELS = "abcdefgh"
_COD_LABELS = "uvwxyz"


def _space(rng: random.Random, max_size: int = 6, labels: str = _LABELS) -> SampleSpace:
    return SampleSpace(labels[: rng.randint(2, max_size)])


def _dist(rng: random.Random, space: SampleSpace, full_support: bool = True, unit: int = 12) -> Dist:
    low = 1 if full_support else 0
    counts = [rng.randint(low, unit) for _ in space]
    if sum(counts) == 0:
        counts[rng.randrange(len(counts))] = 1
    return flrn(Multiset(space, counts))


def _prior(rng: random.Random, max_size: int = 6, **dist_kwargs) -> tuple[SampleSpace, Dist]:
    """A space of 2 to ``max_size`` elements and a ``_dist`` on it."""
    space = _space(rng, max_size=max_size)
    return space, _dist(rng, space, **dist_kwargs)


def _channel(rng: random.Random, cod_size: int = 4, full_rows: bool = True, **dist_kwargs) -> tuple[Channel, Dist]:
    """A channel from 2 to 4 elements to 2 to ``cod_size``, its rows of
    full support when ``full_rows``, and a ``_dist`` on its domain."""
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=cod_size, labels=_COD_LABELS)
    c = Channel(dom, cod, tuple(_dist(rng, cod, full_support=full_rows) for _ in dom))
    return c, _dist(rng, dom, **dist_kwargs)


def _factor(rng: random.Random, space: SampleSpace, positive: bool = False, bound: int = 1) -> Factor:
    low = 1 if positive else 0
    return Factor._from_ints(space, [rng.randint(low, bound * 12) for _ in space], 12)


def _evidence(
    rng: random.Random,
    space: SampleSpace,
    max_factors: int = 3,
    max_size: int = 6,
    positive: bool = True,
) -> Evidence:
    n = rng.randint(1, max_factors)
    factors = [_factor(rng, space, positive=positive) for _ in range(n)]
    counts, left = [], max_size
    for i in range(n):
        top = max(1, left - (n - 1 - i))
        c = rng.randint(1, top)
        counts.append(c)
        left -= c
    return Evidence(zip(factors, counts))


def _perfect_pack(rng: random.Random, space: SampleSpace, parts: int) -> list[Factor]:
    """Predicates that sum to truth, in twelfths; two of them may be equal."""
    columns = []
    for _x in space:
        cuts = sorted(rng.randint(0, 12) for _ in range(parts - 1))
        columns.append([b - a for a, b in zip([0] + cuts, cuts + [12])])
    return [Factor._from_ints(space, [col[i] for col in columns], 12) for i in range(parts)]


def _sweep(rng: random.Random, space: SampleSpace, den: int, trials: int) -> Iterator[Dist]:
    """Candidates for an optimum on a 2- or 3-element space, built one
    at a time: every distribution whose weights are multiples of 1/den
    (ascending first weight, then second), then ``trials`` drawn ones."""
    if len(space) == 2:
        heads = ((k,) for k in range(den + 1))
    else:
        heads = ((i, j) for i in range(den + 1) for j in range(den + 1 - i))
    for head in heads:
        yield Dist._from_ints(space, (*head, den - sum(head)), den)
    for _ in range(trials):
        yield _dist(rng, space, full_support=False, unit=60)


def _point_multiset(rng: random.Random, space: SampleSpace, size: int) -> Multiset:
    return acc([rng.choice(space.elements) for _ in range(size)], space)


def _feq(a: float, b: float, tol: float = FLOAT_SLACK) -> bool:
    return abs(a - b) <= tol


def _figures(*pairs: tuple[Scalar, str]) -> bool:
    """Whether each value rounds, half to even, to its figure as the paper prints it (``"0.3081"``)."""
    return all(round(Fraction(value), len(figure.partition(".")[2])) == Fraction(figure) for value, figure in pairs)


# last, as each group module imports the names above from here; importing it registers its properties
from . import core, multiset, distribution, evidence, validity, update, channel, divergence  # noqa: E402, F401
