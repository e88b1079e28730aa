"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import hashlib
import io
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from multibayes import (
    Dist,
    Evidence,
    Factor,
    SampleSpace,
    bayes_update,
    flrn,
    jeffrey_update,
    jeffrey_validity,
    kl_divergence,
    multinomial,
    ortho,
    pearl_update,
    pearl_validity,
    push,
    uniform,
    iterated_pearl_validity,
    vfe_update,
)
from multibayes.cli import main
from multibayes.models import grid_values, medical_grid_spec, medical_model, physics_model
from multibayes.multiset import Multiset
from multibayes.properties import run_suite

SEED = 42
MEDICAL = medical_model()
OMEGA, PT, NT = MEDICAL.prior, MEDICAL.pos_test, MEDICAL.neg_test
PSI = Evidence(((PT, 2), (NT, 1)))


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_exact_medical_fractions():
    from multibayes import validity

    assert validity(OMEGA, PT) == Fraction(17, 40)
    assert validity(OMEGA, NT) == Fraction(23, 40)
    assert jeffrey_validity(OMEGA, PSI) == Fraction(19941, 64000)
    assert pearl_validity(OMEGA, PSI) == Fraction(1143, 4000)
    assert bayes_update(OMEGA, PT) == Dist(OMEGA.space, (Fraction(9, 85), Fraction(76, 85)))
    assert bayes_update(OMEGA, NT) == Dist(OMEGA.space, (Fraction(1, 115), Fraction(114, 115)))
    assert jeffrey_update(OMEGA, PSI) == Dist(
        OMEGA.space, (Fraction(431, 5865), Fraction(5434, 5865))
    )
    assert pearl_update(OMEGA, PSI) == Dist(OMEGA.space, (Fraction(27, 635), Fraction(608, 635)))
    assert iterated_pearl_validity(OMEGA, (PT, PT, NT)) == Fraction(381, 4000)
    _announce(1, "all nine medical quantities match as exact fractions")


def test_criterion_2_posterior_validity_rounds():
    posterior_j = jeffrey_update(OMEGA, PSI)
    posterior_p = pearl_update(OMEGA, PSI)
    j_prior, p_prior = jeffrey_validity(OMEGA, PSI), pearl_validity(OMEGA, PSI)
    j_post = jeffrey_validity(posterior_j, PSI)
    p_post = pearl_validity(posterior_p, PSI)
    j_cross = jeffrey_validity(posterior_p, PSI)
    p_cross = pearl_validity(posterior_j, PSI)
    assert float(j_post) == pytest.approx(0.322, abs=5e-4)
    assert float(p_post) == pytest.approx(0.2861, abs=5e-4)
    assert float(j_cross) == pytest.approx(0.3081, abs=5e-4)
    assert float(p_cross) == pytest.approx(0.2847, abs=5e-4)
    assert j_cross < j_prior
    assert p_cross < p_prior
    _announce(2, "posterior and crossed validities match at 5e-4 with strict decreases")


def test_criterion_3_physics_updates():
    pipes = physics_model()
    blocked = bayes_update(pipes.flow, pipes.middle_blocked)
    assert blocked == Dist(pipes.pipe_space, (Fraction(3, 4), Fraction(0), Fraction(1, 4)))
    throttled = bayes_update(pipes.flow, pipes.taps)
    assert throttled == Dist(
        pipes.pipe_space, (Fraction(12, 19), Fraction(4, 19), Fraction(3, 19))
    )
    _announce(3, "pipe updates give exactly (3/4, 1/4) and (12/19, 4/19, 3/19)")


def test_criterion_4_multinomial_table_and_normalisation():
    space = SampleSpace("RGB")
    omega = Dist(space, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    assert list(multinomial(3, omega).weights) == [
        Fraction(1, 8), Fraction(1, 4), Fraction(1, 6), Fraction(1, 27),
        Fraction(1, 8), Fraction(1, 6), Fraction(1, 18), Fraction(1, 24),
        Fraction(1, 36), Fraction(1, 216),
    ]
    for n_elems in range(1, 5):
        sub = SampleSpace("wxyz"[:n_elems])
        counts = [k + 1 for k in range(n_elems)]
        dist = flrn(Multiset(sub, counts))
        for size in range(6):
            assert sum(multinomial(size, dist).weights, Fraction(0)) == 1
    _announce(4, "ten exact draw probabilities and exact normalisation for K<=5, |X|<=4")


def test_criterion_5_divergence_examples_and_nonmatching():
    space = SampleSpace("abc")
    omega = Dist(space, (Fraction(3, 10), Fraction(3, 10), Fraction(2, 5)))
    p = Factor(space, (Fraction(1, 100), Fraction(1, 100), Fraction(49, 50)))
    psi = Evidence(((p, 1), (ortho(p), 1)))
    assert float(jeffrey_validity(omega, psi)) == pytest.approx(0.479, abs=5e-4)
    assert float(pearl_validity(omega, psi)) == pytest.approx(0.028, abs=5e-4)
    omega2 = Dist(space, (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)))
    q = Factor(space, (Fraction(3, 10), Fraction(1, 5), Fraction(9, 10)))
    chi = Evidence(((q, 1), (ortho(q), 4)))
    jv, pv = jeffrey_validity(omega2, chi), pearl_validity(omega2, chi)
    assert float(jv) == pytest.approx(0.054, abs=5e-4)
    assert float(pv) == pytest.approx(0.154, abs=5e-4)
    assert jv < pv
    ab = SampleSpace("ab")
    rude = Evidence(
        (
            (Factor(ab, (Fraction(1), Fraction(1, 2))), 2),
            (Factor(ab, (Fraction(4, 5), Fraction(1, 2))), 3),
        )
    )
    assert jeffrey_validity(uniform(ab), rude) == Fraction(19773, 12800)
    assert pearl_validity(uniform(ab), rude) == Fraction(2173, 800)
    _announce(5, "(0.479, 0.028), the (0.054, 0.154) reversal and the exact escapes")


def test_criterion_6_grid_claims():
    started = time.monotonic()
    j_cells = grid_values(medical_grid_spec("jeffrey-validity"))
    p_cells = grid_values(medical_grid_spec("pearl-validity"))
    gap = max(abs(float(a - b)) for (_, _, a), (_, _, b) in zip(j_cells, p_cells))
    assert gap < 0.033
    for i, j, value in grid_values(medical_grid_spec("jeffrey-update")):
        share = Fraction(i, i + j)
        assert value == share * Fraction(9, 85) + (1 - share) * Fraction(1, 115)
    delta_cells = grid_values(medical_grid_spec("vfe-dkl-delta"))
    assert len(delta_cells) == 100
    assert sum(1 for _, _, v in delta_cells if v > 0) == 37
    observed = flrn(Multiset(MEDICAL.test_space, (1, 1)))
    prior_div = kl_divergence(observed, push(MEDICAL.test_channel, OMEGA), base=2)
    posterior = vfe_update(OMEGA, Evidence(((PT, 1), (NT, 1))))
    post_div = kl_divergence(observed, push(MEDICAL.test_channel, posterior), base=2)
    assert prior_div == pytest.approx(0.0164, abs=5e-4)
    assert post_div == pytest.approx(0.0208, abs=5e-4)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _announce(6, f"grid gap {gap:.4f} < 0.033, closed form exact, 37 positive deltas, "
                 f"0.0164 -> 0.0208, in {elapsed:.1f}s")


def test_criterion_7_vfe_checks():
    for prop_id in ("vfe-forms-agree", "vfe-sandwich", "vfe-argmin"):
        (result,) = run_suite(prop_id, trials=1000, seed=SEED)
        assert result.passed, f"{prop_id}: {result.detail}"
    _announce(7, "forms agree at 1e-9, sandwich holds, 0.489 > 0.486, argmin beats "
                 "1000 candidates plus the 0.01 simplex grid")


CRITERION_8_SUITES = (
    "bayes-laws",
    "product-bayes-rules",
    "iterated-update-validity",
    "validity-gain",
    "jeffrey-increases",
    "jeffrey-dkl-decrease",
    "jeffrey-scale-invariant",
    "jeffrey-order",
    "jeffrey-self-no-op",
    "jeffrey-convex-combination",
    "pearl-increases",
    "pearl-product-bayes",
    "pearl-composes",
    "pearl-uniform-no-op",
    "matching-bounds",
    "perfect-match-normalisation",
    "point-evidence-bridge",
    "kl-order-equivalence",
    "channel-adjunction",
    "jeffrey-along-channel",
    "dagger-jeffrey",
    "point-evidence-multinomial",
    "multinomial-channel-pearl",
    "channel-dkl-lower-bound",
)


#: sha256 of the output of ``check --suite all --trials 1000 --seed 42``.
CHECK_1000_SHA256 = "e3fb65ca38c8906d538420265d5e9d01809480f062246bb6b02a0c279a7e2761"


def test_criterion_8_theorem_suites_at_1000_trials():
    """The whole property run at 1000 trials, through the CLI: it passes,
    its output is the pinned text, and every theorem suite has a pass line."""
    out = io.StringIO()
    started = time.monotonic()
    with redirect_stdout(out):
        code = main(["check", "--suite", "all", "--trials", "1000", "--seed", str(SEED)])
    elapsed = time.monotonic() - started
    lines = out.getvalue().splitlines()
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CHECK_1000_SHA256
    for prop_id in CRITERION_8_SUITES:
        assert any(line.startswith(f"pass  {prop_id}  (") for line in lines), prop_id
    assert elapsed < 60.0
    _announce(8, f"check at 1000 trials matches its pinned sha256, {len(CRITERION_8_SUITES)} theorem "
                 f"suites pass, in {elapsed:.1f}s")
