"""Reference methods the test suite checks the package against.

``nag_step`` and ``storm_step`` are the methods the filtered optimizer reduces
to; ``per_sample_loss`` is the one-sample loss the finite-difference gradient
oracles difference, and ``per_sample_grad`` the one-sample analytic gradient
of a ``sample_of`` a dataset. Nothing in ``dpkf`` calls them.
"""

import numpy as np

from dpkf.objectives import Dataset, Objective, full_gradient

Sample = tuple[np.ndarray, float]


def sample_of(dataset: Dataset, i: int) -> Sample:
    """Row ``i`` of a dataset as (features, target)."""
    return dataset.X[i], float(dataset.y[i])


def per_sample_loss(obj: Objective, x: np.ndarray, sample: Sample) -> float:
    feature, target = sample
    feature = np.atleast_2d(np.asarray(feature, dtype=float))
    return float(obj.per_sample_losses(x, feature, np.array([target]))[0])


def per_sample_grad(obj: Objective, x: np.ndarray, sample: Sample) -> np.ndarray:
    """Exact analytic gradient of f(x; xi) for one sample."""
    feature, target = sample
    feature = np.atleast_2d(np.asarray(feature, dtype=float))
    return obj.per_sample_grads(x, feature, np.array([target]))[0]


def nag_step(
    x: np.ndarray,
    m: np.ndarray,
    mu: float,
    eta: float,
    obj: Objective,
    dataset: Dataset,
) -> tuple[np.ndarray, np.ndarray]:
    """Lookahead-momentum step:

        m' = mu m + eta grad F(x - (mu/eta) m);   x' = x - m'

    The gradient is evaluated at the momentum-extrapolated point; mu = 0 gives
    plain gradient descent.
    """
    lookahead = x - (mu / eta) * m if mu != 0 else x
    m_new = mu * m + eta * full_gradient(obj, lookahead, dataset)
    return x - m_new, m_new


def storm_step(
    x: np.ndarray,
    x_prev: np.ndarray,
    m: np.ndarray,
    alpha: float,
    eta: float,
    obj: Objective,
    sample,
) -> tuple[np.ndarray, np.ndarray]:
    """Recursive variance-reduced momentum step:

        m' = (1-alpha) m + alpha grad f(x; xi)
             + (1-alpha) (grad f(x; xi) - grad f(x_prev; xi))
        x' = x - eta m'

    alpha = 1 is plain SGD on the sampled gradient.
    """
    g_here = per_sample_grad(obj, x, sample)
    g_prev = per_sample_grad(obj, x_prev, sample)
    m_new = (1.0 - alpha) * m + alpha * g_here + (1.0 - alpha) * (g_here - g_prev)
    return x - eta * m_new, m_new
