"""Built-in example models and the reproduction grids over them."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .channel import Channel, pull, push
from .core import SampleSpace, Scalar, _require_naturals, _require_size
from .distribution import Dist, flrn
from .divergence import kl_divergence
from .errors import ModelError
from .evidence import Evidence, Factor, indicator, point_pred
from .multiset import Multiset
from .update import jeffrey_update, pearl_update, vfe_update
from .validity import jeffrey_validity, pearl_validity


class MedicalModel(NamedTuple):
    """Disease test scenario: 5% prevalence, 90% sensitivity, 60% specificity;
    the outcomes' point predicates, their pullbacks and the evidence 2|pos_test> + 1|neg_test>."""

    disease_space: SampleSpace
    test_space: SampleSpace
    prior: Dist
    test_channel: Channel
    pos_test: Factor
    neg_test: Factor
    outcomes: tuple[Factor, Factor]
    three_tests: Evidence


def medical_model() -> MedicalModel:
    disease = SampleSpace(("d", "~d"))
    tests = SampleSpace(("p", "n"))
    prior = Dist(disease, (Fraction(1, 20), Fraction(19, 20)))
    channel = Channel(
        disease,
        tests,
        (
            Dist(tests, (Fraction(9, 10), Fraction(1, 10))),
            Dist(tests, (Fraction(2, 5), Fraction(3, 5))),
        ),
    )
    outcomes = (point_pred("p", tests), point_pred("n", tests))
    pos_test, neg_test = (pull(channel, q) for q in outcomes)
    three_tests = Evidence(((pos_test, 2), (neg_test, 1)))
    return MedicalModel(disease, tests, prior, channel, pos_test, neg_test, outcomes, three_tests)


class PhysicsModel(NamedTuple):
    """Water pump with three pipes; blocking and throttling as factors."""

    pipe_space: SampleSpace
    flow: Dist
    middle_blocked: Factor
    taps: Factor


def physics_model() -> PhysicsModel:
    pipes = SampleSpace(("L", "M", "R"))
    flow = Dist(pipes, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    middle_blocked = indicator(("L", "R"), pipes)
    taps = Factor(pipes, (Fraction(2, 3), Fraction(1, 3), Fraction(1, 2)))
    return PhysicsModel(pipes, flow, middle_blocked, taps)


GRID_MODES = (
    "jeffrey-validity",
    "pearl-validity",
    "jeffrey-update",
    "pearl-update",
    "vfe-update",
    "vfe-dkl-delta",
)


class GridSpec:
    """Evidence grid i|pos> + j|neg> over the medical model.

    ``mode`` selects what each cell reports: a validity, the posterior
    probability of the first domain element, or the change in
    prediction divergence after a VFE update (base-2 logarithm, so the
    published figures are directly comparable).

    The spec builds what every cell shares when it is constructed: the
    medical model's channel, prior and outcome predicates and, for
    ``vfe-dkl-delta``, the prior prediction ``push(channel, prior)``.
    So its fields must not be reassigned afterwards.  Each cell pulls
    the predicates anew, so no factor's memo carries from cell to cell.
    """

    __slots__ = ("mode", "imax", "jmax", "channel", "prior", "_pos", "_neg", "_prediction")

    def __init__(self, mode: str, imax: int = 10, jmax: int = 10):
        if mode not in GRID_MODES:
            raise ModelError(f"unknown grid mode {mode!r}")
        _require_naturals((imax, jmax), "grid bound", ModelError)
        if imax < 1 or jmax < 1:
            raise ModelError("grid bounds must be at least 1")
        _require_size(imax * jmax, "grid")
        model = medical_model()
        self.mode, self.imax, self.jmax, self.channel, self.prior = mode, imax, jmax, model.test_channel, model.prior
        self._pos, self._neg = model.outcomes
        self._prediction = push(self.channel, self.prior) if mode == "vfe-dkl-delta" else None


medical_grid_spec = GridSpec


def grid_cell(spec: GridSpec, i: int, j: int) -> Scalar:
    """Value of one grid cell for evidence with i positive, j negative outcomes."""
    channel, prior = spec.channel, spec.prior
    pulled = Evidence(((pull(channel, spec._pos), i), (pull(channel, spec._neg), j)))
    mode = spec.mode
    if mode == "jeffrey-validity":
        return jeffrey_validity(prior, pulled)
    if mode == "pearl-validity":
        return pearl_validity(prior, pulled)
    first = prior._space._elements[0]
    if mode == "jeffrey-update":
        return jeffrey_update(prior, pulled)(first)
    if mode == "pearl-update":
        return pearl_update(prior, pulled)(first)
    if mode == "vfe-update":
        return vfe_update(prior, pulled)(first)
    # vfe-dkl-delta: posterior minus prior prediction divergence
    if i == 0 and j == 0:
        return 0.0  # no evidence, no update, no change
    observed = flrn(Multiset(channel.cod, (i, j)))
    posterior = vfe_update(prior, pulled)
    prior_div = kl_divergence(observed, spec._prediction, base=2)
    posterior_div = kl_divergence(observed, push(channel, posterior), base=2)
    return posterior_div - prior_div


def grid_values(spec: GridSpec) -> list[tuple[int, int, Scalar]]:
    """All cells (i, j, value) in row-major order, i outermost.

    Validity and update grids run the evidence counts from 1 to the
    bounds.  The divergence-delta grid instead covers counts 0 to
    bound-1, so single-outcome evidence sits on its margins and the
    grid still has imax*jmax cells; the all-zero cell reports 0.
    """
    if spec.mode == "vfe-dkl-delta":
        pairs = [(i, j) for i in range(spec.imax) for j in range(spec.jmax)]
    else:
        pairs = [(i, j) for i in range(1, spec.imax + 1) for j in range(1, spec.jmax + 1)]
    return [(i, j, grid_cell(spec, i, j)) for i, j in pairs]
