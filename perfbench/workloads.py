"""The benchmark workloads: seeded inputs, ops, per-op checks and gates.

A workload turns the run seed into inputs (``setup``), lists the ops of
each round (``ops``), judges one op's output (``check``) and, after the
loop, gives the verdicts of its correctness gate (``gate``).  Library
functions are looked up on their modules at call time, so the tracer's
rebinding reaches every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

FLOAT_TOL = 1e-9


def lib(module: str):
    return importlib.import_module(f"multibayes.{module}")


def cli_outputs(workdir: Path, imax: int, jmax: int) -> dict[str, bytes]:
    """The bytes of ``report medical`` and of every ``grid`` CSV, as the CLI writes them."""
    cli = lib("cli")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["report", "medical"])
    if code != 0:
        raise RuntimeError(f"report medical exited with {code}")
    outputs = {"report": buffer.getvalue().encode("utf-8")}
    for mode in lib("models").GRID_MODES:
        path = workdir / f"{mode}.csv"
        code = cli.main(["grid", "--mode", mode, "--imax", str(imax), "--jmax", str(jmax), "--out", str(path)])
        if code != 0:
            raise RuntimeError(f"grid {mode} exited with {code}")
        outputs[mode] = path.read_bytes()
        path.unlink()
    return outputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Reproduce:
    """Every cell of the six 60x60 grids over the built-in medical model.

    The CLI's bytes are compared with the reference digests once, when the
    workload is made; its verified CSV cells, in CLI order, are the per-op
    expectations, and a cell of a mode whose digest differs is a failed op.
    """

    def __init__(self, sizes: dict, seed: int, reference: dict, workdir: Path):
        self.core, self.models = lib("core"), lib("models")
        self.imax, self.jmax = sizes["imax"], sizes["jmax"]
        outputs = cli_outputs(workdir, self.imax, self.jmax)
        digests = reference["sha256"]
        self.verdicts = [(f"sha256 {name}", sha256(data) == digests.get(name)) for name, data in outputs.items()]
        report_lines = outputs["report"].decode("utf-8").splitlines()
        for name, value in reference["report_values"].items():
            prefix = f"{name} = {value}"
            self.verdicts.append((f"report {prefix}", any(line.startswith(prefix) for line in report_lines)))
        trusted = dict(self.verdicts)
        self.cells: list[tuple[str, int, int, str, bool]] = []
        for mode in self.models.GRID_MODES:
            for row in outputs[mode].decode("utf-8").splitlines()[1:]:
                i, j, value = row.split(",")
                self.cells.append((mode, int(i), int(j), value, trusted[f"sha256 {mode}"]))

    def setup(self):
        models = self.models
        return {mode: models.medical_grid_spec(mode, self.imax, self.jmax) for mode in models.GRID_MODES}

    def _cell(self, spec, i: int, j: int) -> str:
        return self.core.format_decimal12(self.models.grid_cell(spec, i, j))

    def ops(self, specs, round_index: int):
        cell = self._cell
        return [(cell, (specs[mode], i, j), (value, ok)) for mode, i, j, value, ok in self.cells]

    def check(self, key, out) -> tuple[int, int]:
        expected, trusted = key
        return 1, 0 if trusted and out == expected else 1

    def gate(self, specs) -> list[tuple[str, bool]]:
        return self.verdicts


class Check:
    """The property suite, one ``run_suite`` call per property, a fresh seed per round."""

    def __init__(self, sizes: dict, seed: int, reference: dict, workdir: Path):
        self.trials = sizes["trials_per_round"]
        self.expected = reference["properties"]
        self.seed = seed
        self.properties = lib("properties")

    def setup(self):
        return [prop.prop_id for prop in self.properties.resolve_suite("all")]

    def _run(self, prop_id: str, trials: int, seed: int):
        return self.properties.run_suite(prop_id, trials, seed)

    def ops(self, prop_ids, round_index: int):
        seed = random.Random(f"{self.seed}|check|{round_index}").randrange(2**31)
        return [(self._run, (prop_id, self.trials, seed), prop_id) for prop_id in prop_ids]

    def check(self, key, out) -> tuple[int, int]:
        """One property run: its trials are its ops, all failed unless it passed."""
        (result,) = out
        trials = max(result.trials, 1)
        return trials, 0 if result.passed and result.prop_id == key else trials

    def gate(self, prop_ids) -> list[tuple[str, bool]]:
        return [(f"{self.expected} properties registered", len(prop_ids) == self.expected)]


@dataclass(frozen=True)
class WideInputs:
    prior: object
    channel: object
    predicates: tuple


def generate_wide(seed: int, sizes: dict, as_float: bool) -> WideInputs:
    """Seeded prior c/sum(c) on |X| elements and an |X| -> |Y| channel whose
    rows have small denominators; the |Y| point predicates pulled back."""
    core, distribution, channel, evidence = lib("core"), lib("distribution"), lib("channel"), lib("evidence")
    rng = random.Random(f"{seed}|wide")
    xs = core.SampleSpace(f"x{i}" for i in range(sizes["X"]))
    ys = core.SampleSpace(f"y{j}" for j in range(sizes["Y"]))
    counts = [rng.randint(*sizes["prior_counts"]) for _ in xs]
    total = sum(counts)
    prior = distribution.Dist(xs, [Fraction(c, total) for c in counts])
    rows = []
    for _ in xs:
        row = [rng.randint(*sizes["row_counts"]) for _ in ys]
        rows.append(distribution.Dist(ys, [Fraction(c, sum(row)) for c in row]))
    if as_float:
        prior = prior.to_float()
        rows = [row.to_float() for row in rows]
    c = channel.Channel(xs, ys, rows)
    predicates = tuple(channel.pull(c, evidence.point_pred(y, ys)) for y in ys)
    return WideInputs(prior, c, predicates)


class Answer(NamedTuple):
    """Everything one wide query computes."""

    psi: object
    jeffrey: object
    pearl: object
    vfe: object
    jeffrey_validity: object
    pearl_validity: object
    pushed: object
    kl: float


def _sum_is_one(weights, exact: bool) -> bool:
    total = sum(weights)
    return total == 1 if exact else abs(total - 1.0) <= FLOAT_TOL


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= FLOAT_TOL


def _close_rel(a, b) -> bool:
    return abs(float(a) - float(b)) <= FLOAT_TOL * abs(float(b))


def _dists_close(d1, d2) -> bool:
    return all(_close(a, b) for a, b in zip(d1.weights, d2.weights, strict=True))


class Wide:
    """Random multi-predicate queries on a wide prior, exact or float."""

    # the lightest and the heaviest query of the first round
    SAMPLED_QUERIES = (0, 5)

    def __init__(self, sizes: dict, seed: int, reference: dict, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.exact = not sizes["float"]
        self.per_round = sizes["queries_per_round"]
        self.evidence, self.update, self.validity = lib("evidence"), lib("update"), lib("validity")
        self.channel, self.divergence = lib("channel"), lib("divergence")

    def setup(self) -> WideInputs:
        return generate_wide(self.seed, self.sizes, as_float=not self.exact)

    def draw(self, query: int) -> tuple[list[int], list[int]]:
        """Predicates and multiplicities of one query.  The number of
        predicates cycles through its range, so every round holds each
        count equally often and runs differ less by chance."""
        rng = random.Random(f"{self.seed}|query|{query}")
        low, high = self.sizes["predicates_per_query"]
        k = low + query % (high - low + 1)
        chosen = rng.sample(range(self.sizes["Y"]), k)
        return chosen, [rng.randint(*self.sizes["multiplicity"]) for _ in chosen]

    def query(self, inputs: WideInputs, chosen, counts) -> Answer:
        evidence, update, validity = self.evidence, self.update, self.validity
        prior = inputs.prior
        psi = evidence.Evidence([(inputs.predicates[i], n) for i, n in zip(chosen, counts)])
        jeffrey = update.jeffrey_update(prior, psi)
        return Answer(
            psi,
            jeffrey,
            update.pearl_update(prior, psi),
            update.vfe_update(prior, psi),
            validity.jeffrey_validity(prior, psi),
            validity.pearl_validity(prior, psi),
            self.channel.push(inputs.channel, jeffrey),
            self.divergence.kl_divergence(jeffrey, prior),
        )

    def ops(self, inputs, round_index: int):
        first = round_index * self.per_round
        return [(self.query, (inputs, *self.draw(q)), None) for q in range(first, first + self.per_round)]

    def check(self, key, out: Answer) -> tuple[int, int]:
        ok = (
            _sum_is_one(out.jeffrey.weights, self.exact)
            and _sum_is_one(out.pearl.weights, self.exact)
            and _sum_is_one(out.pushed.weights, self.exact)
            and _sum_is_one(out.vfe.weights, exact=False)
            and 0 < out.jeffrey_validity < math.inf
            and 0 < out.pearl_validity < math.inf
            and math.isfinite(out.kl)
            and out.kl >= -FLOAT_TOL
        )
        return 1, 0 if ok else 1

    def gate(self, inputs) -> list[tuple[str, bool]]:
        """On the first queries: Pearl equals chained Bayes updates, and the
        float route agrees with the exact one within 1e-9."""
        if self.exact:
            exact, floats = inputs, generate_wide(self.seed, self.sizes, as_float=True)
        else:
            exact, floats = generate_wide(self.seed, self.sizes, as_float=False), inputs
        results = []
        for query in self.SAMPLED_QUERIES:
            chosen, counts = self.draw(query)
            ex = self.query(exact, chosen, counts)
            fl = self.query(floats, chosen, counts)
            chained_ex = self._chained_bayes(exact.prior, ex.psi)
            chained_fl = self._chained_bayes(floats.prior, fl.psi)
            results.append((f"query {query}: exact pearl_update == chained bayes_update", chained_ex == ex.pearl))
            results.append(
                (f"query {query}: float pearl_update ~ chained bayes_update", _dists_close(chained_fl, fl.pearl))
            )
            agree = (
                all(_dists_close(getattr(ex, n), getattr(fl, n)) for n in ("jeffrey", "pearl", "vfe", "pushed"))
                and _close_rel(fl.jeffrey_validity, ex.jeffrey_validity)
                and _close_rel(fl.pearl_validity, ex.pearl_validity)
                and _close(fl.kl, ex.kl)
            )
            results.append((f"query {query}: float within {FLOAT_TOL} of exact", agree))
        return results

    def _chained_bayes(self, prior, psi):
        bayes_update = self.update.bayes_update
        posterior = prior
        for factor, count in psi.items():
            for _ in range(count):
                posterior = bayes_update(posterior, factor)
        return posterior


WORKLOADS = {"reproduce": Reproduce, "check": Check, "wide-exact": Wide, "wide-float": Wide}
