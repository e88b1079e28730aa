"""Exact discrete probabilistic inference with multiset evidence.

Distributions, factors and evidence over finite sample spaces, with
the four update rules (Bayesian, Jeffrey, Pearl, VFE), the matching
validities, channels and Kullback-Leibler divergence.  Everything that
does not need a logarithm is computed in exact rational arithmetic.
"""

from types import ModuleType as _ModuleType

from .core import (
    SampleSpace,
    Scalar,
    as_scalar,
    format_decimal12,
    format_scalar,
    is_exact,
    parse_scalar,
    scalar_ln,
)
from .errors import (
    EmptyEvidenceError,
    EmptyMultisetError,
    ExprParseError,
    FloatRangeError,
    LogBaseError,
    ModelError,
    MultibayesError,
    NonConvexWeightsError,
    NonPositiveLogError,
    NotAPredicateError,
    SizeLimitError,
    SpaceMismatchError,
    SupportMismatchError,
    UnknownElementError,
    UnknownSuiteError,
    ZeroValidityError,
)
from .multiset import Multiset, acc, coefm, enumerate_multisets, multiset_space
from .distribution import (
    Dist,
    convex_sum,
    copy_dist,
    dirac,
    flrn,
    marginal,
    multinomial,
    push_function,
    tensor,
    tensor_power,
    uniform,
)
from .evidence import (
    Evidence,
    Factor,
    MatchStatus,
    and_conj,
    conj,
    falsity,
    frac_conj,
    indicator,
    match_status,
    ortho,
    point_evidence,
    point_pred,
    tensor_conj,
    tensor_factor,
    truth,
)
from .validity import (
    covariance,
    jeffrey_validity,
    log_likelihood_score,
    pearl_validity,
    validity,
)
from .divergence import expected_channel_divergence, kl_divergence
from .update import (
    bayes_update,
    free_energy_objective,
    iterated_pearl_validity,
    jeffrey_update,
    pearl_update,
    vfe_update,
    vfe_update_softmax,
)
from .channel import (
    Channel,
    dagger,
    identity_channel,
    multinomial_channel,
    pull,
    push,
    triple_pull,
)

__version__ = "0.1.0"

# the public API: every name bound above that is not private or a submodule
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType))
