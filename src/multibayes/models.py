"""Built-in example models and the reproduction grids over them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import Channel, pull, push, triple_pull
from .core import SampleSpace, Scalar, _require_size
from .distribution import Dist, flrn
from .divergence import kl_divergence
from .errors import ModelError
from .evidence import Evidence, Factor, indicator, point_pred
from .multiset import Multiset
from .update import jeffrey_update, pearl_update, vfe_update
from .validity import jeffrey_validity, pearl_validity


@dataclass(frozen=True)
class MedicalModel:
    """Disease test scenario: 5% prevalence, 90% sensitivity, 60% specificity."""

    disease_space: SampleSpace
    test_space: SampleSpace
    prior: Dist
    test_channel: Channel
    pos_test: Factor
    neg_test: Factor


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
    pos_test = pull(channel, point_pred("p", tests))
    neg_test = pull(channel, point_pred("n", tests))
    return MedicalModel(disease, tests, prior, channel, pos_test, neg_test)


@dataclass(frozen=True)
class PhysicsModel:
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


@dataclass(frozen=True)
class GridSpec:
    """Evidence grid i|pos> + j|neg> over a channel and prior.

    ``mode`` selects what each cell reports: a validity, the posterior
    probability of the first domain element, or the change in
    prediction divergence after a VFE update (base-2 logarithm, so the
    published figures are directly comparable).
    """

    mode: str
    imax: int
    jmax: int
    channel: Channel
    prior: Dist
    pos_outcome: object
    neg_outcome: object

    def __post_init__(self):
        if self.mode not in GRID_MODES:
            raise ModelError(f"unknown grid mode {self.mode!r}")
        if self.imax < 1 or self.jmax < 1:
            raise ModelError("grid bounds must be at least 1")
        _require_size(self.imax * self.jmax, "grid")


def medical_grid_spec(mode: str, imax: int = 10, jmax: int = 10) -> GridSpec:
    model = medical_model()
    return GridSpec(
        mode=mode,
        imax=imax,
        jmax=jmax,
        channel=model.test_channel,
        prior=model.prior,
        pos_outcome="p",
        neg_outcome="n",
    )


def grid_cell(spec: GridSpec, i: int, j: int) -> Scalar:
    """Value of one grid cell for evidence with i positive, j negative outcomes."""
    cod = spec.channel.cod
    point_psi = Evidence(
        ((point_pred(spec.pos_outcome, cod), i), (point_pred(spec.neg_outcome, cod), j))
    )
    pulled = triple_pull(spec.channel, point_psi)
    first = spec.prior.space.elements[0]
    if spec.mode == "jeffrey-validity":
        return jeffrey_validity(spec.prior, pulled)
    if spec.mode == "pearl-validity":
        return pearl_validity(spec.prior, pulled)
    if spec.mode == "jeffrey-update":
        return jeffrey_update(spec.prior, pulled)(first)
    if spec.mode == "pearl-update":
        return pearl_update(spec.prior, pulled)(first)
    if spec.mode == "vfe-update":
        return vfe_update(spec.prior, pulled)(first)
    # vfe-dkl-delta: posterior minus prior prediction divergence
    if i == 0 and j == 0:
        return 0.0  # no evidence, no update, no change
    observed = flrn(
        Multiset.from_counts(cod, {spec.pos_outcome: i, spec.neg_outcome: j})
    )
    posterior = vfe_update(spec.prior, pulled)
    prior_div = kl_divergence(observed, push(spec.channel, spec.prior), base=2)
    posterior_div = kl_divergence(observed, push(spec.channel, posterior), base=2)
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
