import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dpkf.disk import FullFilterConfig
from dpkf.kalman import (
    LinearSystem,
    NumericalError,
    kf_correct,
    kf_gain_multiplicative,
    kf_predict,
    random_stable_system,
    scalar_fixed_point,
    scalar_gain_step,
    simulate_estimation,
)
from reference_methods import filter_min_eig


def scalar_system(sigma_v_sq=1.0, sigma_w_sq=1.0, a=1.0, c=1.0):
    return LinearSystem(
        A=np.array([[a]]), C_obs=np.array([[c]]),
        Sigma_v=np.array([[sigma_v_sq]]), Sigma_w=np.array([[sigma_w_sq]]),
    )


# ---------------------------------------------------------------------------
# predict / correct
# ---------------------------------------------------------------------------


def test_predict_identity_is_noop():
    sys = LinearSystem(A=np.eye(2), C_obs=np.eye(2), Sigma_v=np.zeros((2, 2)), Sigma_w=np.eye(2))
    theta, P = np.array([1.0, 2.0]), np.eye(2)
    theta_out, P_out = kf_predict(theta, P, sys, np.zeros(2))
    assert np.array_equal(theta_out, theta)
    assert np.array_equal(P_out, P)


def test_predict_scalar_covariance():
    sys = scalar_system(sigma_v_sq=3.0, a=2.0)
    _, P = kf_predict(np.array([0.5]), np.array([[1.0]]), sys, np.zeros(1))
    assert P[0, 0] == pytest.approx(7.0)  # 4*1 + 3


def test_predict_rotation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    sys = LinearSystem(A=rot, C_obs=np.eye(2), Sigma_v=np.zeros((2, 2)), Sigma_w=np.eye(2))
    theta, _ = kf_predict(np.array([1.0, 0.0]), np.eye(2), sys, np.zeros(2))
    assert np.allclose(theta, [0.0, 1.0], atol=1e-15)


def test_correct_huge_observation_noise_ignores_observation():
    sys = scalar_system(sigma_w_sq=1e12)
    theta, _, K = kf_correct(np.array([2.0]), np.array([[1.0]]), sys, np.array([100.0]))
    assert abs(K[0, 0]) <= 1e-10
    assert theta[0] == pytest.approx(2.0, abs=1e-8)


def test_correct_perfect_observation():
    sys = LinearSystem(A=np.eye(2), C_obs=np.eye(2), Sigma_v=np.eye(2), Sigma_w=np.zeros((2, 2)))
    psi = np.array([3.0, -1.0])
    theta, _, K = kf_correct(np.zeros(2), np.eye(2), sys, psi)
    assert np.allclose(K, np.eye(2), atol=1e-12)
    assert np.allclose(theta, psi, atol=1e-12)


def test_correct_scalar_hand_value():
    sys = scalar_system(sigma_w_sq=1.0)
    _, P, K = kf_correct(np.array([0.0]), np.array([[1.0]]), sys, np.array([1.0]))
    assert K[0, 0] == pytest.approx(0.5)
    assert P[0, 0] == pytest.approx(0.5)


def test_correct_singular_innovation_raises():
    sys = LinearSystem(
        A=np.eye(2), C_obs=np.array([[1.0, 0.0], [1.0, 0.0]]),
        Sigma_v=np.eye(2), Sigma_w=np.zeros((2, 2)),
    )
    with pytest.raises(NumericalError):
        kf_correct(np.zeros(2), np.eye(2), sys, np.zeros(2))


def test_covariance_stays_psd_along_trajectory():
    rng = np.random.default_rng(0)
    sys = random_stable_system(3, seed=4)
    theta, P = np.zeros(3), np.eye(3)
    for _ in range(200):
        theta, P = kf_predict(theta, P, sys, np.zeros(3))
        theta, P, _ = kf_correct(theta, P, sys, rng.standard_normal(3))
        assert np.allclose(P, P.T)
        assert np.linalg.eigvalsh(P)[0] >= -1e-10


def test_state_dim_cap():
    with pytest.raises(ValueError, match="capped"):
        LinearSystem(A=np.eye(65), C_obs=np.eye(65), Sigma_v=np.eye(65), Sigma_w=np.eye(65))


# ---------------------------------------------------------------------------
# gain with multiplicative observation noise
# ---------------------------------------------------------------------------


def test_gain_collapses_to_standard():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    P = M @ M.T / 4 + 0.5 * np.eye(4)
    sigma_w_sq = 0.8
    K = kf_gain_multiplicative(P, np.eye(4), 0.0, sigma_w_sq, 0.0)
    expected = P @ np.linalg.inv(P + sigma_w_sq * np.eye(4))
    assert np.abs(K - expected).max() <= 1e-12


def test_gain_scalar_hand_values():
    K = kf_gain_multiplicative(np.array([[1.0]]), np.eye(1), 0.0, 1.0, 0.0)
    assert K[0, 0] == pytest.approx(0.5)
    K = kf_gain_multiplicative(np.array([[2.0]]), np.eye(1), 0.0, 3.0, np.array([[1.0]]))
    assert K[0, 0] == pytest.approx(0.5)  # 2 / (2 + 3 - 1)


def test_gain_reports_offending_eigenvalue():
    with pytest.raises(NumericalError, match="min eigenvalue"):
        kf_gain_multiplicative(np.array([[1.0]]), np.eye(1), 0.0, 0.5, np.array([[2.0]]))


# ---------------------------------------------------------------------------
# scalar-gain chain
# ---------------------------------------------------------------------------


def test_scalar_step_hand_values():
    p, k = scalar_gain_step(0.0, 0.0, 1.0, 1.0)
    assert k == pytest.approx(0.5)
    assert p == pytest.approx(0.5)


def test_scalar_step_equal_noise_pins_p_at_zero():
    p = 0.3
    for _ in range(5):
        p, k = scalar_gain_step(p, 1.0, 0.7, 1.0)
        assert p == 0.0
    assert k == pytest.approx(1.0)


def test_scalar_step_rejects_w_below_h():
    with pytest.raises(ValueError):
        scalar_gain_step(0.0, 2.0, 0.0, 1.0)


# (sigma_h^2, sigma_v^2, sigma_w^2) the recursion cannot run on
BAD_NOISE = [
    ((-0.5, 1.0, 1.0), "noise variances must be >= 0"),
    ((0.0, -1.0, 1.0), "noise variances must be >= 0"),
    ((0.0, 1.0, -1.0), "noise variances must be >= 0"),
    ((0.5, 0.0, 0.4), r"need sigma_w\^2 >= sigma_h\^2 \(p would turn negative\)"),
]


@pytest.mark.parametrize("noise, match", BAD_NOISE, ids=str)
def test_bad_noise_levels_meet_one_check_with_one_message(noise, match):
    sh, sv, sw = noise
    for build in (
        lambda: FullFilterConfig(sigma_w_sq=sw, sigma_h_sq=sh, sigma_v_sq=sv),
        lambda: scalar_gain_step(0.0, sh, sv, sw),
        lambda: scalar_fixed_point(sh, sv, sw),
    ):
        with pytest.raises(ValueError, match=match):
            build()


NAN = math.nan


@pytest.mark.parametrize("noise", [(NAN, 0.0, 1.0), (0.0, NAN, 1.0), (0.0, 0.0, NAN)], ids=str)
def test_nan_noise_level_is_refused(noise):
    """NaN is not >= 0: the scalar chain refuses it where a ``min(...) < 0``
    check would let it through; ``FullFilterConfig`` refuses it as non-finite."""
    sh, sv, sw = noise
    with pytest.raises(ValueError, match="noise variances must be >= 0"):
        scalar_gain_step(0.0, sh, sv, sw)
    with pytest.raises(ValueError, match="noise variances must be >= 0"):
        scalar_fixed_point(sh, sv, sw)
    with pytest.raises(ValueError, match="must be finite"):
        FullFilterConfig(sigma_w_sq=sw, sigma_h_sq=sh, sigma_v_sq=sv)


def test_nan_p_is_refused():
    with pytest.raises(ValueError, match="p must be >= 0"):
        scalar_gain_step(NAN, 0.0, 0.0, 1.0)


@given(
    h_w=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2).map(sorted),
    sv=st.floats(0.0, 1e6),
    p=st.floats(0.0, 1e6),
)
def test_scalar_gain_step_keeps_k_and_p_in_range(h_w, sv, p):
    """0 <= k <= 1 and 0 <= p' <= sigma_w^2 - sigma_h^2, p' up to the rounding
    of (sw - sh) numer / denom with numer <= denom."""
    sh, sw = h_w
    assume(p + sw + sv > 0)
    p_next, k = scalar_gain_step(p, sh, sv, sw)
    assert 0.0 <= k <= 1.0
    assert 0.0 <= p_next <= (sw - sh) * (1 + 2**-50)


def test_scalar_iteration_reaches_golden_ratio():
    p, prev = 0.0, math.inf
    while abs(p - prev) > 1e-12:
        prev = p
        p, k = scalar_gain_step(p, 0.0, 1.0, 1.0)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert p == pytest.approx(golden, abs=1e-10)
    assert k == pytest.approx(golden, abs=1e-10)


def test_fixed_point_examples():
    fp = scalar_fixed_point(0.0, 1.0, 1.0)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert fp.p_inf == pytest.approx(golden, abs=1e-12)
    assert fp.k_inf == pytest.approx(golden, abs=1e-12)
    assert fp.c_k == pytest.approx(0.1459, abs=1e-4)

    fp = scalar_fixed_point(1.0, 1.0, 1.0)
    assert fp.p_inf == pytest.approx(0.0, abs=1e-12)
    assert fp.k_inf == pytest.approx(1.0)

    fp = scalar_fixed_point(0.0, 0.0, 1.0)
    assert fp.p_inf == 0.0
    assert fp.k_inf == 0.0


def test_random_triples_converge_to_fixed_point_at_rate_c_k():
    # The closed-form c_k upper-bounds the decay everywhere and equals the
    # exact local rate when the Hessian-noise level is zero.
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        sh, sv, sw = rng.uniform(0.0, 2.0, size=3)
        if checked % 2 == 0:
            sh = 0.0  # half the triples exercise the exact-rate regime
        if sw < sh or sv + sh < 1e-3 or 4 * sw + sv <= 3 * sh:
            continue
        fp = scalar_fixed_point(sh, sv, sw)
        if not 0 < fp.contraction < 0.95:
            continue
        p = 0.0
        ratios = []
        prev_err = None
        for _ in range(400):
            p, k = scalar_gain_step(p, sh, sv, sw)
            err = abs(k - fp.k_inf)
            # measure the geometric regime, above the float plateau near k_inf
            if prev_err is not None and 1e-7 < err < 1e-3 and 1e-7 < prev_err:
                ratios.append(err / prev_err)
            prev_err = err
        assert abs(p - fp.p_inf) <= 1e-9
        assert abs(k - fp.k_inf) <= 1e-9
        assert fp.contraction <= fp.c_k + 1e-12
        if ratios:
            measured = float(np.median(ratios))
            assert abs(measured - fp.contraction) <= 0.05 * fp.contraction
            if sh == 0.0:
                assert abs(measured - fp.c_k) <= 0.05 * fp.c_k
        checked += 1


# ---------------------------------------------------------------------------
# estimator-quality simulation
# ---------------------------------------------------------------------------


def test_filter_beats_raw_observation():
    sys = random_stable_system(3, seed=0)
    runs = simulate_estimation(sys, steps=2000, runs=5, seed=0)
    for r in runs:
        assert r.mse_kf < 0.9 * r.mse_raw
    assert filter_min_eig(sys, 2000) >= -1e-10


def test_simulation_deterministic():
    sys = random_stable_system(3, seed=1)
    a = simulate_estimation(sys, steps=500, runs=3, seed=2)
    b = simulate_estimation(sys, steps=500, runs=3, seed=2)
    assert [r.mse_kf for r in a] == [r.mse_kf for r in b]
