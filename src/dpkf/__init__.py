"""Differentially private optimization with Kalman-filtered gradient denoising.

The package wraps standard DP optimizers with a simplified Kalman filter that
treats the privatised gradient as a noisy observation of the true gradient:
a two-point gradient combination predicts, an exponential average corrects.
Alongside the optimizer live the privacy machinery (clipping, an RDP
accountant, noise calibration), the full matrix filter it simplifies, the
closed-form filter-gain analysis, worst-case bound evaluators, and a small
benchmark harness.
"""

from .disk import (
    DiskConfig,
    DiskState,
    FullFilterConfig,
    disk_step,
    dpsgd_step,
    noise_rows,
)
from .kalman import (
    LinearSystem,
    kf_correct,
    kf_gain_multiplicative,
    kf_predict,
    scalar_fixed_point,
    scalar_gain_step,
)
from .objectives import (
    Dataset,
    full_gradient,
    full_loss,
    gen_linear_regression,
    make_objective,
    minibatches,
)
from .privacy import (
    PrivacyBudget,
    calibrate_noise_multiplier,
    clip_sensitivity,
    compose_and_convert,
    delta_convention,
    epsilon_schedule,
    rdp_gaussian,
    rdp_subsampled,
)
from .theory import (
    ProblemConstants,
    convergence_bound,
    convergence_constants,
    privacy_utility_bound,
    tuned_bound,
    tuned_params,
)

__version__ = "0.1.0"
