import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpkf import privacy
from dpkf.objectives import GradFactors
from dpkf.privacy import (
    DEFAULT_ORDERS,
    PrivacyError,
    calibrate_gaussian,
    calibrate_noise_multiplier,
    classical_gaussian_sigma,
    clip_batch,
    clip_sensitivity,
    compose_and_convert,
    delta_convention,
    epsilon_schedule,
    gaussian_privacy_profile,
    rdp_gaussian,
    rdp_subsampled,
    subsampled_curve,
)

# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def clip_standard(g, C):
    """min{1, C/||g||} * g; caps the norm at C, fixed point below it."""
    return clip_batch(np.asarray(g, dtype=float)[None], C, "standard")[0]


def clip_automatic(g, C):
    """g * C/||g||: always rescales the norm to exactly C (0 maps to 0)."""
    return clip_batch(np.asarray(g, dtype=float)[None], C, "automatic")[0]


def clip_normalized(g, C):
    """(g/C) * min{C/||g||, 1}; output norm is at most 1."""
    return clip_batch(np.asarray(g, dtype=float)[None], C, "normalized")[0]


def test_clip_standard_examples():
    assert np.array_equal(clip_standard(np.array([3.0, 4.0]), 10.0), [3.0, 4.0])
    assert np.allclose(clip_standard(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])
    assert np.array_equal(clip_standard(np.zeros(2), 1.0), [0.0, 0.0])
    with pytest.raises(PrivacyError):
        clip_standard(np.ones(2), 0.0)


def test_clip_automatic_examples():
    assert np.allclose(clip_automatic(np.array([3.0, 4.0]), 2.0), [1.2, 1.6])
    # small gradients are scaled up on purpose
    assert np.allclose(clip_automatic(np.array([0.3, 0.4]), 1.0), [0.6, 0.8])
    assert np.array_equal(clip_automatic(np.zeros(2), 1.0), [0.0, 0.0])


def test_clip_normalized_examples():
    assert np.allclose(clip_normalized(np.array([3.0, 4.0]), 2.0), [0.6, 0.8])
    assert np.allclose(clip_normalized(np.array([0.3, 0.4]), 1.0), [0.3, 0.4])


@pytest.mark.parametrize("dim", [1, 10, 1000])
def test_clip_direction_and_norm_bounds(dim):
    rng = np.random.default_rng(dim)
    C = 0.7
    for _ in range(1000 // (1 if dim == 1 else 1)):
        g = rng.standard_normal(dim) * rng.choice([1e-3, 1.0, 50.0])
        for fn, bound in (
            (clip_standard, C),
            (clip_automatic, C),
            (clip_normalized, 1.0),
        ):
            out = fn(g, C)
            assert np.linalg.norm(out) <= bound + 1e-9
            # non-negative scalar multiple of the input
            ng = np.linalg.norm(g)
            if ng > 0:
                scale = out @ g / (ng * ng)
                assert scale >= 0
                assert np.allclose(out, scale * g, atol=1e-9)


@given(
    G=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    C=st.floats(1e-6, 1e6),
    variant=st.sampled_from(["standard", "automatic", "normalized"]),
)
# rows whose squared norm underflows
@example(G=np.array([[3.5307853e-161]]), C=1.0, variant="automatic")
@example(G=np.array([[3e-170, 4e-170]]), C=0.5, variant="standard")
@example(G=np.array([[3e-170, 4e-170]]), C=0.5, variant="automatic")
@example(G=np.array([[3e-170, 4e-170]]), C=0.5, variant="normalized")
def test_clip_batch_rows_never_exceed_sensitivity(G, C, variant):
    norms = np.linalg.norm(clip_batch(G, C, variant), axis=1)
    assert (norms <= clip_sensitivity(variant, C) * (1 + 1e-12)).all()


@st.composite
def factored_batches(draw):
    """One or two blocks of coefficients and features over B rows, entries
    across the whole finite range; a block's features may be one shared row."""
    B = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coefs, feats = [], []
    for _ in range(draw(st.integers(1, 2))):
        coefs.append(draw(arrays(np.float64, (B, draw(st.integers(1, 3))), elements=finite)))
        rows = 1 if draw(st.booleans()) else B
        feats.append(draw(arrays(np.float64, (rows, draw(st.integers(1, 3))), elements=finite)))
    return coefs, feats


@settings(max_examples=300, deadline=None)
@given(
    batch=factored_batches(),
    C=st.floats(1e-6, 1e6),
    variant=st.sampled_from(["standard", "automatic", "normalized"]),
)
# a coefficient whose own squared norm is subnormal, features of 1e100
@example(batch=([np.array([[3.5307853e-161]])], [np.array([[1e100]])]), C=1.0, variant="automatic")
# subnormal features, coefficient 1
@example(batch=([np.array([[1.0]])], [np.array([[1e-310, 0.0]])]), C=1.0, variant="automatic")
@example(batch=([np.array([[1.0]])], [np.array([[1e-310, 0.0]])]), C=1.0, variant="standard")
def test_clip_factored_rows_never_exceed_sensitivity(batch, C, variant):
    """Every clipped factored row has norm at most the sensitivity, automatic
    clipping takes every nonzero row to C, and no product is inf or NaN."""
    coefs, feats, w = privacy.clip_factored(*batch, C, variant)
    # the products the weighted mean sums
    rows = GradFactors([w[:, None] * c for c in coefs], feats).rows()
    assert np.isfinite(rows).all()
    norms = np.array([math.hypot(*row) for row in rows])
    assert (norms <= clip_sensitivity(variant, C) * (1 + 1e-12)).all()
    if variant == "automatic":
        nonzero = sum(c.any(axis=1) & f.any(axis=1) for c, f in zip(*batch)) > 0
        assert norms[nonzero] == pytest.approx(np.full(nonzero.sum(), C), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "variant, fn",
    [("standard", clip_standard), ("automatic", clip_automatic),
     ("normalized", clip_normalized)],
)
def test_clip_batch_keeps_rows_whose_squared_norm_overflows(variant, fn):
    """And rows whose squared norm underflows: they clip from their true norm."""
    G = np.array([
        [1e200, 0.0], [3.0, 4.0], [-1.7e308, 1.7e308], [0.0, 0.0],
        [3e-170, 4e-170], [3.5307853e-161, 0.0], [5e-324, 0.0],
    ])
    out = clip_batch(G, 0.5, variant)
    top = clip_sensitivity(variant, 0.5)
    assert np.allclose(out[0], [top, 0.0], rtol=1e-15, atol=0)
    assert np.allclose(out[2], [-top * math.sqrt(0.5), top * math.sqrt(0.5)], rtol=1e-15, atol=0)
    # below C: automatic scales up to C, normalized divides by C, standard keeps the row
    tiny = G[4:]
    want = {"standard": tiny, "normalized": tiny / 0.5,
            "automatic": [[0.3, 0.4], [0.5, 0.0], [0.5, 0.0]]}[variant]
    assert np.allclose(out[4:], want, rtol=1e-15, atol=0)
    # the normal row and the zero row keep the bits of a batch without the others
    assert np.array_equal(out[[1, 3]], clip_batch(G[[1, 3]], 0.5, variant))
    assert np.array_equal(fn(G[0], 0.5), out[0])
    assert np.array_equal(fn(G[4], 0.5), out[4])


def test_clip_sensitivity_values():
    assert clip_sensitivity("standard", 0.1) == 0.1
    assert clip_sensitivity("automatic", 2.5) == 2.5
    assert clip_sensitivity("normalized", 0.1) == 1.0
    with pytest.raises(PrivacyError):
        clip_sensitivity("none", 1.0)


def test_clip_batch_matches_single_vector_ops():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((6, 4)) * 3
    for variant, fn in (
        ("standard", clip_standard),
        ("automatic", clip_automatic),
        ("normalized", clip_normalized),
    ):
        out = clip_batch(G, 1.3, variant)
        for i in range(len(G)):
            assert np.allclose(out[i], fn(G[i], 1.3), atol=1e-12)
    assert clip_batch(G, None, "none") is G


@pytest.mark.parametrize("variant", ["standard", "automatic"])
def test_batch_mean_sensitivity(variant):
    # Removing any one sample (divisor held at B) moves the averaged clipped
    # sum by at most C/B; enumerated over every sample of small batches.
    rng = np.random.default_rng(5)
    C = 1.0
    for B in (2, 3, 4):
        for trial in range(25):
            G = rng.standard_normal((B, 3)) * rng.choice([0.1, 1.0, 10.0])
            clipped = clip_batch(G, C, variant)
            mean_all = clipped.sum(axis=0) / B
            for i in range(B):
                mean_wo = (clipped.sum(axis=0) - clipped[i]) / B
                assert np.linalg.norm(mean_all - mean_wo) <= C / B + 1e-12


# ---------------------------------------------------------------------------
# Gaussian mechanism calibration
# ---------------------------------------------------------------------------


def test_calibration_beats_classical_bound():
    for eps in (0.1, 1.0, 4.0):
        sigma = calibrate_gaussian(1.0, eps, 1e-6)
        assert sigma < classical_gaussian_sigma(1.0, eps, 1e-6)


def test_calibration_meets_condition_with_tiny_slack():
    sigma = calibrate_gaussian(1.0, 1.0, 1e-6)
    resid = gaussian_privacy_profile(1.0, 1.0, sigma) - 1e-6
    assert resid <= 1e-8
    assert abs(resid) <= 1e-8


def test_calibration_is_minimal():
    for eps in (0.1, 1.0, 4.0):
        sigma = calibrate_gaussian(1.0, eps, 1e-6)
        shrunk = sigma * (1 - 1e-6)
        assert gaussian_privacy_profile(1.0, eps, shrunk) > 1e-6


def test_calibration_homogeneous_in_sensitivity():
    s1 = calibrate_gaussian(1.0, 1.0, 1e-6)
    s2 = calibrate_gaussian(2.0, 1.0, 1e-6)
    assert abs(s2 - 2.0 * s1) <= 1e-7


def test_calibration_rejects_bad_inputs():
    with pytest.raises(PrivacyError):
        calibrate_gaussian(1.0, -1.0, 1e-6)
    with pytest.raises(PrivacyError):
        calibrate_gaussian(1.0, 1.0, 1.5)
    with pytest.raises(PrivacyError):
        calibrate_gaussian(0.0, 1.0, 1e-6)


# ---------------------------------------------------------------------------
# RDP accountant
# ---------------------------------------------------------------------------


def test_rdp_gaussian_values():
    assert rdp_gaussian(1.0, 2) == 1.0
    assert rdp_gaussian(2.0, 8) == 1.0
    alphas = np.arange(2, 50)
    vals = [rdp_gaussian(1.3, a) for a in alphas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert rdp_gaussian(2.0, 4) < rdp_gaussian(1.0, 4)


def test_rdp_subsampled_q1_reduces_to_gaussian():
    for sigma in (0.7, 1.0, 1.7, 4.0):
        for alpha in DEFAULT_ORDERS:
            assert abs(rdp_subsampled(1.0, sigma, alpha) - rdp_gaussian(sigma, alpha)) <= 1e-12


def test_rdp_subsampled_amplification():
    v = rdp_subsampled(0.01, 1.0, 2)
    assert 0.0 <= v <= rdp_gaussian(1.0, 2)


def test_rdp_subsampled_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")

    def oracle(q, sigma, alpha):
        total = mp.mpf(0)
        for k in range(alpha + 1):
            total += (
                mp.binomial(alpha, k)
                * mp.mpf(1 - q) ** (alpha - k)
                * mp.mpf(q) ** k
                * mp.e ** (mp.mpf(k * (k - 1)) / (2 * mp.mpf(sigma) ** 2))
            )
        return mp.log(total) / (alpha - 1)

    with mp.workdps(60):  # mpmath's precision is process-wide; restore it on exit
        for q, sigma, alpha in ((0.01, 2.0, 16), (0.05, 1.0, 8), (0.3, 0.8, 32)):
            assert abs(rdp_subsampled(q, sigma, alpha) - oracle(q, sigma, alpha)) <= 1e-10
        # high orders and small sigma, where the values reach the thousands
        for q, sigma, alpha in (
            (0.5, 0.3, 64), (0.01, 0.3, 128), (0.1, 0.5, 256), (0.02, 1.0, 512),
            (0.001, 0.3, 512), (0.05, 4.0, 128), (0.2, 2.0, 256),
        ):
            exact = oracle(q, sigma, alpha)
            assert abs(rdp_subsampled(q, sigma, alpha) - exact) <= 1e-10 * abs(exact)


def rdp_subsampled_loop(q, sigma, alpha):
    """The accountant as a term-by-term loop; a bit-exact oracle."""
    if q == 1.0:
        return rdp_gaussian(sigma, alpha)
    log_q, log_1mq = math.log(q), math.log1p(-q)
    c = 1.0 / (2.0 * sigma * sigma)
    terms = []
    for k in range(alpha + 1):
        log_binom = (
            math.lgamma(alpha + 1) - math.lgamma(k + 1) - math.lgamma(alpha - k + 1)
        )
        terms.append(log_binom + k * log_q + (alpha - k) * log_1mq + k * (k - 1) * c)
    m = max(terms)
    return (m + math.log(math.fsum(math.exp(t - m) for t in terms))) / (alpha - 1)


def calibrate_loop(eps_target, delta, q, steps, sigma_max=1e3, tol=1e-6):
    """Bisection of ``calibrate_noise_multiplier`` over the loop oracle."""

    def spent(sigma):
        return min(
            steps * rdp_subsampled_loop(q, sigma, a) + math.log(1.0 / delta) / (a - 1)
            for a in DEFAULT_ORDERS
        )

    assert spent(sigma_max) <= eps_target
    lo = 1e-4
    while spent(lo) <= eps_target:
        lo /= 2.0
        if lo < 1e-12:
            return 2.0 * lo  # the last sigma that met the target
    hi = max(2.0 * lo, 1.0)
    while spent(hi) > eps_target:
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if spent(mid) <= eps_target:
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.0, 1.0, exclude_min=True),
    sigma=st.floats(0.05, 50.0),
)
def test_rdp_curve_bit_identical_to_loop(q, sigma):
    curve = subsampled_curve(q, sigma)
    for alpha in DEFAULT_ORDERS:
        assert curve[alpha] == rdp_subsampled_loop(q, sigma, alpha)
    assert rdp_subsampled(q, sigma, 7) == curve[7]


@pytest.mark.parametrize(
    "eps, delta, q, steps",
    [(1.0, 1e-5, 0.01, 1000), (4.0, 1e-6, 0.2, 50), (0.5, 1e-5, 1.0, 10),
     (8.0, 1e-5, 0.0128, 60),
     # the train-logreg and sweep-mlp benchmark shapes
     (2.7, 5000**-1.1, 64 / 5000, 60), (5.3, 500**-1.1, 64 / 500, 20)],
)
def test_calibration_bit_identical_to_loop_bisection(eps, delta, q, steps):
    assert calibrate_noise_multiplier(eps, delta, q, steps) == calibrate_loop(
        eps, delta, q, steps
    )


def _nudge(x, ulps):
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=150, deadline=None)
@given(
    q=st.floats(1e-4, 1.0, exclude_min=True),
    sigma=st.floats(1e-4, 1e3, exclude_min=True, exclude_max=True),
    steps=st.integers(1, 10**6),
    delta=st.floats(1e-9, 1e-3, exclude_min=True, exclude_max=True),
    ulps=st.integers(-4, 4),
    rel=st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-3, -1e-3]),
)
def test_probe_decision_matches_exact_spend(q, sigma, steps, delta, ulps, rel):
    terms = privacy._BinomialTerms(q, DEFAULT_ORDERS)
    curve = terms.curve(sigma)
    spend = compose_and_convert(curve, steps, delta)
    target = _nudge(spend * (1.0 + rel), ulps)
    at_most = privacy._spend_test(terms, steps, delta, target)
    assert at_most(sigma) == (spend <= target)
    shifts = privacy._order_shifts(DEFAULT_ORDERS, steps, delta)
    v, m = terms.composed(sigma, steps, shifts)
    for i, alpha in enumerate(DEFAULT_ORDERS):
        assert abs(v[i] - (steps * curve[alpha] + shifts[i])) <= m[i], alpha


def test_calibration_probes_rarely_run_the_exact_sum(monkeypatch):
    calls = []
    values = privacy._BinomialTerms.values
    monkeypatch.setattr(
        privacy._BinomialTerms, "values", lambda self, s: calls.append(s) or values(self, s)
    )
    rng = random.Random(0)
    for n, steps in ((5000, 60), (500, 20)):  # train-logreg, sweep-mlp
        calls.clear()
        for _ in range(20):
            calibrate_noise_multiplier(rng.uniform(1.0, 8.0), n**-1.1, 64 / n, steps)
        assert len(calls) - 20 < 20  # one exact spend each is the final check


def test_calibration_below_the_bracket_floor_returns_a_tested_sigma():
    # the bracket stops halving below sigma = 1e-12; the sigma one step above
    # is the last it tested, and its spend meets the target (the untested one
    # below it spends 1.8e24)
    z = calibrate_noise_multiplier(1e24, 1e-5, 0.5, 1)
    assert compose_and_convert(subsampled_curve(0.5, z), 1, 1e-5) <= 1e24
    assert z == calibrate_loop(1e24, 1e-5, 0.5, 1) < 2e-12


def test_calibration_checks_its_result_against_the_exact_spend(monkeypatch):
    composed = privacy._BinomialTerms.composed

    def optimistic(self, sigma, steps, shifts):
        v, m = composed(self, sigma, steps, shifts)
        return v - 0.1, m

    monkeypatch.setattr(privacy._BinomialTerms, "composed", optimistic)
    with pytest.raises(PrivacyError, match="exceeds the target"):
        calibrate_noise_multiplier(2.0, 1e-5, 0.05, 100)


def test_rdp_subsampled_rejects_low_orders():
    with pytest.raises(PrivacyError):
        rdp_subsampled(0.1, 1.0, 1)
    with pytest.raises(PrivacyError):
        rdp_subsampled(0.1, 1.0, 2.5)


# ---------------------------------------------------------------------------
# composition + conversion
# ---------------------------------------------------------------------------


def test_compose_and_convert_single_step_value():
    # Continuous-order optimum of alpha/2 + ln(1e5)/(alpha-1) sits at
    # alpha* = 1 + sqrt(2 ln 1e5); the integer grid lands just above it.
    curve = subsampled_curve(1.0, 1.0)
    eps = compose_and_convert(curve, 1, 1e-5)
    alpha_star = 1 + math.sqrt(2 * math.log(1e5))
    continuous = alpha_star / 2 + math.log(1e5) / (alpha_star - 1)
    assert continuous <= eps <= continuous + 0.005
    assert abs(eps - 5.2985) < 0.01


@pytest.mark.parametrize("q, sigma, delta", [(0.05, 1.2, 1e-5), (1.0, 0.8, 1e-6), (0.003, 3.0, 0.5)])
def test_epsilon_schedule_bit_identical_to_scalar_composition(q, sigma, delta):
    curve = subsampled_curve(q, sigma)
    sched = epsilon_schedule(curve, 300, delta)
    assert sched == [compose_and_convert(curve, t, delta) for t in range(1, 301)]
    with pytest.raises(PrivacyError):
        epsilon_schedule(curve, 3, 1.0)


def test_compose_monotone_in_steps():
    curve = subsampled_curve(0.05, 1.2)
    vals = [compose_and_convert(curve, t, 1e-5) for t in (1, 10, 100, 1000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_conversion_penalty_vanishes_as_delta_grows():
    curve = subsampled_curve(1.0, 1.0)
    floor = min(2 * eps for eps in curve.values.values())
    eps = compose_and_convert(curve, 2, 1 - 1e-12)
    assert abs(eps - floor) < 1e-9


def test_compose_monotone_in_curve_values():
    from dpkf.privacy import RdpCurve

    curve = subsampled_curve(0.05, 1.2)
    base = compose_and_convert(curve, 50, 1e-5)
    for alpha in curve.orders():
        bumped = RdpCurve(dict(curve.values))
        bumped.values[alpha] += 0.01
        assert compose_and_convert(bumped, 50, 1e-5) >= base


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_calibrations_reject_non_finite_epsilon(epsilon):
    with pytest.raises(PrivacyError, match="epsilon must be finite"):
        calibrate_noise_multiplier(epsilon, 1e-5, 0.01, 100)
    with pytest.raises(PrivacyError, match="epsilon must be finite"):
        calibrate_gaussian(1.0, epsilon, 1e-5)


def test_budget_and_calibration_record_validation():
    from dpkf.privacy import NoiseCalibration, PrivacyBudget

    PrivacyBudget(1.0, 1e-5)
    with pytest.raises(PrivacyError):
        PrivacyBudget(0.0, 1e-5)
    with pytest.raises(PrivacyError):
        PrivacyBudget(1.0, 1.0)
    NoiseCalibration(clip=1.0, sigma_dp=0.1, q=0.01, steps=100)
    with pytest.raises(PrivacyError):
        NoiseCalibration(clip=0.0, sigma_dp=0.1, q=0.01, steps=100)
    with pytest.raises(PrivacyError):
        NoiseCalibration(clip=1.0, sigma_dp=0.1, q=1.5, steps=100)


# ---------------------------------------------------------------------------
# noise-multiplier inversion
# ---------------------------------------------------------------------------


def test_noise_multiplier_round_trip():
    delta = delta_convention(50_000)
    for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
        z = calibrate_noise_multiplier(eps, delta, 0.01, 2000)
        back = compose_and_convert(subsampled_curve(0.01, z), 2000, delta)
        assert abs(back - eps) <= 1e-3
        assert back <= eps  # returned multiplier is on the feasible side


def test_noise_multiplier_monotone_in_epsilon():
    delta = 1e-5
    zs = [calibrate_noise_multiplier(e, delta, 0.02, 500) for e in (0.5, 1, 2, 4, 8)]
    assert all(a > b for a, b in zip(zs, zs[1:]))


def test_noise_multiplier_sqrt_t_scaling():
    # In the amplified regime sigma^2 grows linearly with T; measure the
    # log-log slope on the large-T tail of the {100..10000} range.
    delta = 1e-5
    Ts = [100, 300, 1000, 3000, 10000]
    zs = [calibrate_noise_multiplier(1.0, delta, 0.01, t) for t in Ts]
    assert all(b > a for a, b in zip(zs, zs[1:]))
    tail_slope = (math.log(zs[-1]) - math.log(zs[-3])) / (
        math.log(Ts[-1]) - math.log(Ts[-3])
    )
    assert 0.35 <= tail_slope <= 0.6


def test_noise_multiplier_infeasible_target():
    with pytest.raises(PrivacyError, match="infeasible at sigma<="):
        calibrate_noise_multiplier(1e-4, 1e-6, 0.5, 100_000, sigma_max=50.0)


# ---------------------------------------------------------------------------
# scaling rule and delta convention
# ---------------------------------------------------------------------------


def noise_scaling_rule(C, steps, N, epsilon, delta, v):
    """sqrt(v C^2 T ln(1/delta)) / (N epsilon): the square-root-in-T noise rule."""
    return math.sqrt(v * C * C * steps * math.log(1.0 / delta)) / (N * epsilon)


def test_noise_scaling_rule_values():
    assert noise_scaling_rule(1.0, 1, 1, 1.0, math.exp(-1.0), 1.0) == pytest.approx(1.0)
    base = noise_scaling_rule(1.0, 100, 50, 1.0, 1e-5, 2.0)
    assert noise_scaling_rule(1.0, 400, 50, 1.0, 1e-5, 2.0) == pytest.approx(2 * base)
    assert noise_scaling_rule(1.0, 100, 100, 1.0, 1e-5, 2.0) == pytest.approx(base / 2)


def test_delta_convention_values():
    assert delta_convention(50_000) == pytest.approx(6.8e-6, rel=0.02)
    assert delta_convention(60_000) == pytest.approx(5.5e-6, rel=0.02)
    with pytest.raises(PrivacyError):
        delta_convention(1)
