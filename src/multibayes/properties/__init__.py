"""Seeded property suites for every module's stated invariants.

Each property runs a number of randomised trials from its own
deterministic RNG (derived from the global seed and the property id)
and reports the first counterexample, if any.  The same registry backs
the ``check`` CLI subcommand and the acceptance tests.

The registry, the trial drivers and the random generators live in
``_registry``, and this package re-exports each of its names.  The
properties of each group live in the module of that name (``core``,
``multiset``, ``distribution``, ``evidence``, ``validity``, ``update``,
``channel``, ``divergence``), which imports by name what it uses; a new
property goes in the module of its group.  One file per group keeps each
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
imported below in the order of the groups, and each registers its
properties in the order it defines them.
"""

from ._registry import (
    _COD_LABELS,
    _LABELS,
    FLOAT_SLACK,
    PROPERTIES,
    TIE_SKIP,
    CheckResult,
    Property,
    _Broken,
    _channel,
    _dist,
    _evidence,
    _exists,
    _factor,
    _feq,
    _figures,
    _forall,
    _law,
    _perfect_pack,
    _point_multiset,
    _prior,
    _register,
    _register_run,
    _space,
    _sweep,
    groups,
    resolve_suite,
    run_suite,
)

# importing a group module registers its properties
from . import core, multiset, distribution, evidence, validity, update, channel, divergence  # noqa: F401
