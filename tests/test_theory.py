import math

import numpy as np
import pytest

from dpkf import seeding
from dpkf.disk import DiskConfig, DiskState, disk_step, noise_rows
from dpkf.objectives import gen_classification, make_objective
from dpkf.theory import (
    ParameterConditionError,
    ProblemConstants,
    convergence_bound,
    convergence_constants,
    curvature_ratio,
    estimate_f_star,
    parameter_report,
    privacy_utility_bound,
    problem_constants_for,
    tuned_bound,
    tuned_params,
)


def _contraction(eta, kappa, gamma, L, m_gamma):
    lead = abs(1 + gamma)
    return (1 - kappa) ** 2 * (1 + 4 * eta**2 * L**2 + lead * (kappa + 2 * eta**2 * L**2 * m_gamma))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_kappa_one_collapses_beta_and_m_one():
    L, eta = 2.0, 0.1
    c = convergence_constants(eta, 1.0, 0.5, L)
    assert c.beta == 0.0
    assert c.m_one == pytest.approx(2 * (1 - eta * L))


def test_gamma_minus_one_cancels_lookahead_terms():
    # |1+gamma| = 0 so m_one = (1 + kappa - 2 eta L) - 8 (beta + eta^2 L)(1-kappa)^2 L^2 eta
    L, eta, kappa = 1.5, 0.05, 0.6
    c = convergence_constants(eta, kappa, -1.0, L)
    expect = (1 + kappa - 2 * eta * L) - 8 * (c.beta + eta**2 * L) * (1 - kappa) ** 2 * L**2 * eta
    assert c.m_one == pytest.approx(expect, rel=1e-12)


def test_quarter_step_hand_value():
    L = 3.0
    c = convergence_constants(1 / (4 * L), 1.0, -1.0, L)
    assert c.m_one == pytest.approx(1.5)


def test_small_kappa_rejected():
    with pytest.raises(ParameterConditionError, match="kappa too small"):
        convergence_constants(0.4, 0.01, 0.5, 2.0)


def test_accepted_parameters_satisfy_coefficient_inequalities():
    # Whenever the validator accepts, the three coefficient inequalities that
    # the bound derivation requires hold numerically.
    rng = np.random.default_rng(7)
    accepted = 0
    while accepted < 50:
        eta = float(rng.uniform(0.005, 0.3))
        kappa = float(rng.uniform(0.05, 1.0))
        gamma = float(rng.choice([-1.0, 0.3, 0.5, 1.0, 2.0]))
        L = float(rng.uniform(0.5, 3.0))
        rep = parameter_report(eta, kappa, gamma, L)
        if not rep.get("valid"):
            continue
        beta, m_gamma = rep["beta"], rep["m_gamma"]
        lead = abs(1 + gamma)
        A = _contraction(eta, kappa, gamma, L, m_gamma)
        assert rep["contraction"] == A
        assert beta >= 0
        assert rep["m_one"] > 0
        # (i) positive gradient-norm coefficient
        assert eta * (1 + kappa - 2 * eta * L) / 2 - 2 * (beta + eta**2 * L) * (
            1 - kappa
        ) ** 2 * L**2 * eta**2 * (2 + lead * m_gamma) > 0
        # (ii) contraction strictly below one
        assert 1 - A > 0
        # (iii) filter-error budget balances (equality at the minimal beta)
        slack = beta - eta * (1 - kappa) / 2 - (beta + eta**2 * L) * A
        assert slack >= -1e-12
        accepted += 1


def test_tuned_beta_is_the_gamma_minus_one_closed_form():
    # at gamma = -1 the contraction is (1-kappa)^2 (1 + 4 eta^2 L^2)
    rng = np.random.default_rng(3)
    for _ in range(200):
        L = float(rng.uniform(0.1, 10.0))
        gap0 = float(rng.uniform(0.01, 10.0))
        pc = ProblemConstants(
            L=L, gap0=gap0, grad0_sq=float(rng.uniform(0.001, 1.0)) * 2 * L * gap0,
            dim=int(rng.integers(1, 50)),
        )
        tp = tuned_params(pc, float(10 ** rng.uniform(-3, 1)), int(10 ** rng.uniform(0, 6)))
        eta, kappa = tp.eta, tp.kappa
        shrink = (1 - kappa) ** 2 * (1 + 4 * eta**2 * L**2)
        assert tp.beta == (eta * (1 - kappa) / 2 + eta**2 * L * shrink) / (1 - shrink)


def test_report_surfaces_both_clip_multipliers():
    rep = parameter_report(0.05, 0.5, 2.0, 1.0)
    assert rep["clip_multiplier_plain"] == pytest.approx(1 + 2 * 0.5 / 0.5)
    assert rep["clip_multiplier_lookahead"] == pytest.approx(1 + 2 * 0.5 / (0.5 * 2.0))
    assert rep["clip_multiplier"] == max(
        rep["clip_multiplier_plain"], rep["clip_multiplier_lookahead"]
    )
    # the two step-size ceilings differ by the (1+kappa) factor
    assert rep["eta_max_loose"] == pytest.approx(1.5 * rep["eta_max_strict"])


# ---------------------------------------------------------------------------
# tuned parameters
# ---------------------------------------------------------------------------


def test_curvature_ratio_uniform_quadratic_is_one():
    # F = L/2 ||x||^2: ||grad||^2 = L^2 ||x||^2 and 2L gap = L^2 ||x||^2.
    L = 2.5
    x0 = np.array([0.3, -1.2, 0.8])
    pc = ProblemConstants(
        L=L, gap0=0.5 * L * float(x0 @ x0), grad0_sq=L**2 * float(x0 @ x0), dim=3
    )
    assert curvature_ratio(pc) == pytest.approx(1.0)


def test_curvature_ratio_flat_start_equals_inverse_condition_number():
    # Eigenvalues (1, 100), start along the flat direction: the ratio is
    # exactly mu/L = 1/100 (hand evaluation of both norms).
    c = 3.0
    gap0 = 0.5 * c**2  # (1/2) * 1 * c^2
    grad0_sq = c**2  # ||(c, 0)||^2 under H = diag(1, 100)
    pc = ProblemConstants(L=100.0, gap0=gap0, grad0_sq=grad0_sq, dim=2)
    assert curvature_ratio(pc) == pytest.approx(0.01)
    assert curvature_ratio(pc) < 1


def test_tuned_params_zero_sgd_variance_gives_unit_batch():
    pc = ProblemConstants(L=2.0, gap0=1.0, grad0_sq=2.0, sigma_sgd_sq=0.0, dim=5)
    tp = tuned_params(pc, sigma_dp=0.1, T=100_000)
    assert tp.B_min == 1
    assert 0 < tp.kappa <= 1
    assert tp.beta >= 0
    assert tp.beta <= 1 / (2 * tp.m_kappa * pc.L) + 1e-12


def test_tuned_params_flags_short_horizon():
    pc = ProblemConstants(L=2.0, gap0=1.0, grad0_sq=2.0, dim=5)
    tp = tuned_params(pc, sigma_dp=0.1, T=10)
    assert not tp.T_ok
    assert tp.T_min > 10


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------


def test_fixed_parameter_bound_vanishes_without_noise():
    pc = ProblemConstants(L=1.0, gap0=1.0, grad0_sq=1.0, sigma_sgd_sq=0.0, dim=4)
    vals = [
        convergence_bound(pc, 0.1, 0.8, -1.0, T, 1, 0.0).total
        for T in (10, 100, 10_000, 10_000_000_000)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_fixed_parameter_bound_transient_halves_with_doubled_horizon():
    pc = ProblemConstants(L=1.0, gap0=1.0, grad0_sq=1.0, sigma_sgd_sq=0.3, dim=4)
    b1 = convergence_bound(pc, 0.1, 0.8, -1.0, 100, 4, 0.05)
    b2 = convergence_bound(pc, 0.1, 0.8, -1.0, 200, 4, 0.05)
    assert b2.transient == pytest.approx(b1.transient / 2)
    assert b2.noise_floor == pytest.approx(b1.noise_floor)


def test_fixed_parameter_bound_hand_recomputation():
    # kappa = 1, gamma = -1: beta = 0, m_one = 2(1 - eta L); recompute the two
    # terms directly from the formula.
    L, eta, T, B, sigma_dp = 2.0, 0.1, 50, 4, 0.2
    pc = ProblemConstants(L=L, gap0=1.3, grad0_sq=0.7, sigma_sgd_sq=0.5, dim=6)
    b = convergence_bound(pc, eta, 1.0, -1.0, T, B, sigma_dp)
    m_one = 2 * (1 - eta * L)
    t1 = 2 * 1.3 / (m_one * eta * T)
    t2 = 2 * (eta**2 * L) / (m_one * eta) * (2 * 0.5 / B + 6 * sigma_dp**2)
    assert b.transient == pytest.approx(t1, rel=1e-12)
    assert b.noise_floor == pytest.approx(t2, rel=1e-12)


def test_tuned_bound_scalings():
    pc = ProblemConstants(L=2.0, gap0=1.0, grad0_sq=2.0, dim=8)
    assert tuned_bound(pc, 0.1, 400) == pytest.approx(tuned_bound(pc, 0.1, 100) / 2)
    pc_quarter = ProblemConstants(L=2.0, gap0=1.0, grad0_sq=2.0 / 4, dim=8)
    assert tuned_bound(pc_quarter, 0.1, 100) == pytest.approx(tuned_bound(pc, 0.1, 100) / 2)
    assert tuned_bound(pc, 0.1, 100) > 0


def test_privacy_utility_bound_values_and_monotonicity():
    # With every factor set to one and m_kappa = 1/2 the bound is exactly 4.
    pc = ProblemConstants(L=1.0, gap0=1.0, grad0_sq=1.0, dim=1)
    assert curvature_ratio(pc) == pytest.approx(0.5)
    bound, T = privacy_utility_bound(pc, N=1, epsilon=1.0, delta=math.exp(-1.0), C=1.0)
    assert bound == pytest.approx(4.0)
    assert T == pytest.approx(math.sqrt(2.0))

    b1, _ = privacy_utility_bound(pc, N=1000, epsilon=1.0, delta=1e-5, C=1.0)
    b2, _ = privacy_utility_bound(pc, N=2000, epsilon=1.0, delta=1e-5, C=1.0)
    assert b2 == pytest.approx(b1 / 2)
    b3, _ = privacy_utility_bound(pc, N=1000, epsilon=2.0, delta=1e-5, C=1.0)
    assert b3 < b1
    pc_bigd = ProblemConstants(L=1.0, gap0=1.0, grad0_sq=1.0, dim=4)
    b4, _ = privacy_utility_bound(pc_bigd, N=1000, epsilon=1.0, delta=1e-5, C=1.0)
    assert b4 == pytest.approx(2 * b1)


@pytest.mark.parametrize(
    "epsilon, C", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)],
    ids=["epsilon-inf", "epsilon-nan", "C-inf", "C-nan"],
)
def test_privacy_utility_bound_refuses_non_finite_budget_or_clip(epsilon, C):
    pc = ProblemConstants(L=1.0, gap0=1.0, grad0_sq=1.0, dim=1)
    with pytest.raises(ValueError, match="finite epsilon > 0, delta in \\(0,1\\), finite C > 0"):
        privacy_utility_bound(pc, N=1000, epsilon=epsilon, delta=1e-5, C=C)


BAD_RUNS = {  # (T, B, sigma_dp) -> the message, which names the argument
    "T-negative": ((-5, 10, 0.1), "T must be >= 1"),
    "T-zero": ((0, 10, 0.1), "T must be >= 1"),
    "T-nan": ((math.nan, 10, 0.1), "T must be >= 1"),
    "B-zero": ((100, 0, 0.1), "B must be >= 1"),
    "sigma-negative": ((100, 10, -1.0), "sigma_dp must be finite and >= 0"),
    "sigma-nan": ((100, 10, math.nan), "sigma_dp must be finite and >= 0"),
    "sigma-inf": ((100, 10, math.inf), "sigma_dp must be finite and >= 0"),
}
EVALUATORS = {  # the tuned rule takes no batch size
    "convergence_bound": lambda pc, T, B, s: convergence_bound(pc, 0.05, 0.9, -1.0, T, B, s),
    "tuned_params": lambda pc, T, B, s: tuned_params(pc, s, T),
    "tuned_bound": lambda pc, T, B, s: tuned_bound(pc, s, T),
}


@pytest.mark.parametrize(
    "evaluator, run, match",
    [
        pytest.param(ev, run, match, id=f"{ev}-{case}")
        for ev in EVALUATORS
        for case, (run, match) in BAD_RUNS.items()
        if ev == "convergence_bound" or case != "B-zero"
    ],
)
def test_bound_evaluators_refuse_a_bad_horizon_batch_or_noise(evaluator, run, match):
    """A horizon or batch below 1 and a negative or non-finite sigma_dp are
    refused by name, where they gave a negative or NaN bound or a
    ZeroDivisionError."""
    pc = ProblemConstants(L=1.0, gap0=1.0, grad0_sq=1.0, sigma_sgd_sq=0.5, dim=2)
    with pytest.raises(ValueError, match=match):
        EVALUATORS[evaluator](pc, *run)


@pytest.mark.parametrize("field", ["L", "gap0", "grad0_sq", "sigma_sgd_sq"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_problem_constants_refuse_a_non_finite_field(field, value):
    given = {"L": 1.0, "gap0": 1.0, "grad0_sq": 1.0, "sigma_sgd_sq": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ProblemConstants(**given)


# ---------------------------------------------------------------------------
# empirical bound check (small version; the full one lives in acceptance)
# ---------------------------------------------------------------------------


def run_tuned_quadratic(pc, H, x0, sigma_dp, T, tp, seed):
    obj = make_objective("quadratic", len(x0), H=H)
    ds = obj.placeholder_dataset(1)
    cfg = DiskConfig(
        kappa=tp.kappa, gamma=-1.0, eta=tp.eta, clip=None, clip_variant="none",
        sigma_dp=sigma_dp, base="sgd",
    )
    rng = seeding.substream(seed, seeding.DP_NOISE)
    state = DiskState(x=x0.copy())
    total = pc.grad0_sq
    for noise in noise_rows(rng, sigma_dp, len(x0), T):
        state = disk_step(state, (ds.X, ds.y), obj, cfg, noise)
        g = H @ state.x
        total += float(g @ g)
    return total / T


def test_tuned_parameters_meet_bound_on_quadratic():
    d = 6
    H = np.diag(np.linspace(0.5, 2.0, d))
    x0 = seeding.substream(123, seeding.INIT).standard_normal(d)
    pc = ProblemConstants(
        L=2.0, gap0=0.5 * float(x0 @ H @ x0), grad0_sq=float(np.sum((H @ x0) ** 2)),
        sigma_sgd_sq=0.0, dim=d,
    )
    sigma_dp = 0.1
    T = max(500, math.ceil(tuned_params(pc, sigma_dp, 500).T_min))
    tp = tuned_params(pc, sigma_dp, T)
    assert tp.T_ok
    rhs = tuned_bound(pc, sigma_dp, T)
    for seed in range(3):
        lhs = run_tuned_quadratic(pc, H, x0, sigma_dp, T, tp, seed)
        assert lhs <= rhs


# ---------------------------------------------------------------------------
# minimum-value estimation
# ---------------------------------------------------------------------------


def test_f_star_exact_for_quadratic():
    obj = make_objective("quadratic", 3, H=np.eye(3))
    ds = obj.placeholder_dataset(1)
    val, estimated = estimate_f_star(obj, ds, np.ones(3))
    assert val == 0.0 and not estimated


def test_f_star_exact_for_linear_regression():
    from dpkf.objectives import gen_linear_regression

    ds = gen_linear_regression(30, 4, 0.2, seed=6)
    obj = make_objective("linear-regression", 4)
    val, estimated = estimate_f_star(obj, ds, np.zeros(4))
    assert not estimated
    # least-squares residual loss: below the loss at theta* (noisy labels)
    from dpkf.objectives import full_loss

    assert val <= full_loss(obj, ds.theta_star, ds) + 1e-12
    # interpolating case has zero minimum
    ds0 = gen_linear_regression(30, 4, 0.0, seed=6)
    val0, _ = estimate_f_star(obj, ds0, np.zeros(4))
    assert val0 <= 1e-20


def test_f_star_estimate_for_logistic():
    ds = gen_classification(40, 3, seed=2)
    obj = make_objective("logistic-regression", 3)
    val, estimated = estimate_f_star(obj, ds, np.zeros(3), steps=3000)
    assert estimated
    assert val < math.log(2)  # below the loss at the origin
    pc = problem_constants_for(obj, ds, np.zeros(3), f_star=val)
    assert pc.gap0 >= 0
    assert curvature_ratio(pc) <= 1 + 1e-9
