"""Closed-form and out-of-sample performance measures for fitted estimators.

The out-of-sample measures return one value per forecast day as a plain
array; a caller that wants one figure takes its ``sum()`` or ``mean()``.
"""

from __future__ import annotations

import numpy as np

from ._linalg import solve_sym
from .covariance_model import CovarianceModel
from .estimators import METHOD_GB, METHOD_RD, METHOD_UNC, Estimator

__all__ = [
    "theoretical_mse",
    "squared_bias",
    "empirical_mse",
    "directional_statistic",
    "volatility",
]


def _check_split(model: CovarianceModel, est: Estimator) -> None:
    if est.m != model.m or est.horizon != model.horizon:
        raise ValueError(
            f"estimator shape ({est.horizon}, {est.m}) does not match model split "
            f"({model.horizon}, {model.m})"
        )


def theoretical_mse(model: CovarianceModel, est: Estimator) -> float:
    """Closed-form mean squared error of the linear forecast ``zhat = C y``
    under the model, one form for every estimator:

        trace(sigma_zz) + trace(C sigma_yy C') - 2 trace(sigma_zy C').

    For unc (``C = 0``) it is trace(sigma_zz) exactly.  For gb it equals the
    shorter trace(sigma_zz) - trace(sigma_zy C') only in exact arithmetic:
    the full form is stationary at the optimal ``C``, so the rounding of the
    coefficients enters it to second order rather than first.
    """
    _check_split(model, est)
    c = est.coeff
    quad = float(np.einsum("ij,ij->", c @ model.sigma_yy, c))
    cross = float(np.einsum("ij,ij->", model.sigma_zy, c))
    return float(np.trace(model.sigma_zz)) + quad - 2.0 * cross


def squared_bias(model: CovarianceModel, est: Estimator) -> float:
    """Closed-form squared bias of the estimator under the model.

    Bias is conditional on the future block: the squared bias is
    ``E || E[zhat | z] - z ||^2``, which ``synthetic_oracle.mc_bias``
    measures.  For a linear forecast ``zhat = C y`` it is
    trace((I - C R) sigma_zz (I - C R)')
    with ``R`` the reverse conditional-mean map of the observation given the
    future block; the variance, trace(C sigma_{y|z} C'), is
    :func:`theoretical_mse` minus the squared bias.  One form serves gb and
    rd alike; the unconditional mean (``C = 0``) is all bias,
    trace(sigma_zz), with zero variance.
    """
    _check_split(model, est)
    if est.method == METHOD_UNC:
        return float(np.trace(model.sigma_zz))
    if est.method not in (METHOD_GB, METHOD_RD):
        raise ValueError(f"unknown method {est.method!r}")
    r = solve_sym(model.sigma_zz, model.sigma_zy, "sigma_zz").T
    icr = np.eye(model.horizon) - est.coeff @ r
    return float(np.einsum("ij,ij->", icr @ model.sigma_zz, icr))


def empirical_mse(predictions: np.ndarray, actuals: np.ndarray) -> np.ndarray:
    """Average squared error over samples, per forecast day."""
    predictions = np.asarray(predictions, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    if predictions.shape != actuals.shape or predictions.ndim != 2:
        raise ValueError(
            f"predictions and actuals must share a (K, H) shape, got "
            f"{predictions.shape} and {actuals.shape}"
        )
    if predictions.shape[0] < 1:
        raise ValueError("need at least one sample")
    return ((actuals - predictions) ** 2).mean(axis=0)


def directional_statistic(
    predictions_raw: np.ndarray, actuals_raw: np.ndarray, z0: np.ndarray
) -> np.ndarray:
    """Score 1 when forecast and actual sit strictly on the same side of the
    per-sample reference price ``z0``; ties score 0.  Averaged over samples,
    per forecast day."""
    predictions_raw = np.asarray(predictions_raw, dtype=float)
    actuals_raw = np.asarray(actuals_raw, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    if predictions_raw.shape != actuals_raw.shape or predictions_raw.ndim != 2:
        raise ValueError("predictions and actuals must share a (K, H) shape")
    if z0.shape != (predictions_raw.shape[0],):
        raise ValueError("z0 must hold one reference price per sample")
    ref = z0[:, None]
    hits = ((actuals_raw - ref) * (predictions_raw - ref) > 0).astype(float)
    return hits.mean(axis=0)


def volatility(est: Estimator, scale: float | None = None) -> np.ndarray:
    """Per-day forecast standard deviation from the posterior covariance.

    Diagonal entries are clamped at zero before the square root; ``scale``
    (a window's day-M price) converts to price units.
    """
    std = np.sqrt(np.clip(np.diag(est.posterior_cov), 0.0, None))
    if scale is not None:
        std = std * float(scale)
    return std
