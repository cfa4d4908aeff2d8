"""Ground-truth Gaussian sampler and Monte-Carlo checks for the closed forms.

Estimators fitted from a known covariance can be scored against brute-force
sampling: :func:`mc_mse` replays the forecast on fresh draws
(:func:`mc_squared_errors` keeps the error of every draw), and
:func:`mc_bias` estimates the conditional bias by stratifying on the future
block and replicating observations from the reverse conditional law.  Both
take a sequence of estimators, draw once and score every estimator on the
same draws, and return one estimate with its sampling standard error per
estimator, in order.

Fixture covariances come from :func:`random_covariance`, which pins an exact
eigenvalue spectrum on a random orthogonal basis so conditioning is
controllable.  Synthetic price paths come from :func:`gbm_prices` (well
conditioned) and :func:`smooth_prices` (nearly collinear windows); the tests,
the benchmark and ``scripts/make_synthetic_prices.py`` all draw from them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._linalg import solve_sym, symmetrize
from .errors import DomainError, ParseError
from .estimators import Estimator

__all__ = [
    "GaussianSpec",
    "McEstimate",
    "sample",
    "mc_squared_errors",
    "mc_mse",
    "mc_bias",
    "random_covariance",
    "geometric_spectrum",
    "load_gaussian_spec",
    "gbm_prices",
    "smooth_prices",
]

# Observations replicated per future-block stratum in :func:`mc_bias`.
MC_BIAS_REPLICATES = 100


@dataclass(frozen=True)
class GaussianSpec:
    """A ground-truth zero-mean Gaussian law: covariance and a sampling seed."""

    dim: int
    true_cov: np.ndarray
    seed: int = 0

    def __post_init__(self):
        cov = np.asarray(self.true_cov, dtype=float)
        if cov.shape != (self.dim, self.dim):
            raise ValueError(f"true_cov must be ({self.dim}, {self.dim}), got {cov.shape}")
        scale = float(np.abs(cov).max(initial=0.0))
        if scale > 0 and float(np.abs(cov - cov.T).max()) > 1e-12 * scale:
            raise DomainError("true_cov must be symmetric")
        cov = symmetrize(cov)
        eigs = np.linalg.eigvalsh(cov)
        if float(eigs.min()) < -1e-10 * max(float(eigs.max()), 1e-300):
            raise DomainError("true_cov must be positive semidefinite")
        cov.flags.writeable = False
        object.__setattr__(self, "true_cov", cov)


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its sampling standard error."""

    value: float
    se: float
    n: int

    def __float__(self) -> float:
        return self.value


def _sqrt_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via its eigendecomposition."""
    s, v = np.linalg.eigh(symmetrize(cov))
    return (v * np.sqrt(np.clip(s, 0.0, None))) @ v.T


def sample(spec: GaussianSpec, n: int) -> np.ndarray:
    """Draw ``n`` vectors; deterministic per seed (same seed, same matrix)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    factor = _sqrt_factor(spec.true_cov)
    return rng.standard_normal((n, spec.dim)) @ factor


def _check_shapes(spec: GaussianSpec, ests: Sequence[Estimator], split: int) -> None:
    """Raise ``ValueError`` unless every estimator fits the spec split at ``split``."""
    if not ests:
        raise ValueError("need at least one estimator")
    h = spec.dim - split
    for est in ests:
        if split != est.m or h != est.horizon:
            raise ValueError(
                f"estimator shape ({est.horizon}, {est.m}) does not match spec dim "
                f"{spec.dim} split at {split}"
            )


def mc_squared_errors(
    spec: GaussianSpec, ests: Sequence[Estimator], split: int, n: int
) -> list[np.ndarray]:
    """Squared forecast error ``||z - C y||^2`` of each estimator on each of
    ``n`` fresh draws.

    One :func:`sample` serves every estimator (common random numbers), so the
    errors of a list equal those of one-element calls bit for bit, and
    differences between estimators carry no independent sampling noise.
    """
    _check_shapes(spec, ests, split)
    x = sample(spec, n)
    y, z = x[:, :split], x[:, split:]
    out = []
    for est in ests:
        err = z - y @ est.coeff.T
        out.append(np.einsum("ij,ij->i", err, err))
    return out


def mc_mse(
    spec: GaussianSpec, ests: Sequence[Estimator], split: int, n: int
) -> list[McEstimate]:
    """Empirical mean squared error of each estimator over ``n`` fresh draws,
    the means of :func:`mc_squared_errors`."""
    out = []
    for sq in mc_squared_errors(spec, ests, split, n):
        se = float(sq.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
        out.append(McEstimate(value=float(sq.mean()), se=se, n=n))
    return out


def mc_bias(
    spec: GaussianSpec, ests: Sequence[Estimator], split: int, n: int
) -> list[McEstimate]:
    """Empirical squared conditional bias of each estimator, stratified on the
    future block.

    For each of ``n // MC_BIAS_REPLICATES`` draws of the future block z,
    ``MC_BIAS_REPLICATES`` observation vectors are replicated from the
    reverse conditional law (mean ``R z``), the forecasts are averaged to
    estimate the conditional mean, and its squared distance to z is recorded.
    The replication noise that inflates that distance is estimated from the
    within-stratum scatter and subtracted, so the estimator is unbiased for
    ``E || E[zhat | z] - z ||^2``.

    The strata and their replicates are drawn once and scored for every
    estimator (common random numbers): the estimates of a list equal those of
    one-element calls bit for bit.
    """
    _check_shapes(spec, ests, split)
    cov = spec.true_cov
    syy, szy, szz = cov[:split, :split], cov[split:, :split], cov[split:, split:]
    n_rep = max(2, min(MC_BIAS_REPLICATES, n))
    n_z = max(1, n // n_rep)
    # reverse conditional: y | z is Gaussian with mean R z
    r = solve_sym(szz, szy, "sigma_zz").T
    cond_cov = symmetrize(syy - r @ szy)
    y_factor = _sqrt_factor(cond_cov)
    z_factor = _sqrt_factor(szz)
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((n_z, spec.dim - split)) @ z_factor
    eps = rng.standard_normal((n_z, n_rep, split)) @ y_factor
    y = (z @ r.T)[:, None, :] + eps
    out = []
    for est in ests:
        zhat = y @ est.coeff.T
        m_k = zhat.mean(axis=1)
        resid = zhat - m_k[:, None, :]
        noise = np.einsum("kij,kij->k", resid, resid) / (n_rep - 1)
        b_k = np.einsum("ki,ki->k", m_k - z, m_k - z) - noise / n_rep
        se = float(b_k.std(ddof=1) / math.sqrt(n_z)) if n_z > 1 else float("inf")
        out.append(McEstimate(value=float(b_k.mean()), se=se, n=n_z * n_rep))
    return out


def random_covariance(dim: int, spectrum: np.ndarray, seed: int = 0) -> np.ndarray:
    """Covariance with the given eigenvalues on a random orthogonal basis."""
    s = np.asarray(spectrum, dtype=float)
    if s.shape != (dim,):
        raise ValueError(f"spectrum must have shape ({dim},), got {s.shape}")
    if np.any(s < 0):
        raise ValueError("spectrum must be nonnegative")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return symmetrize((q * s) @ q.T)


def geometric_spectrum(dim: int, condition: float) -> np.ndarray:
    """Eigenvalues decaying geometrically from 1 down to ``1 / condition``."""
    if dim < 2 or condition < 1:
        raise ValueError("need dim >= 2 and condition >= 1")
    return condition ** (-np.arange(dim) / (dim - 1))


def load_gaussian_spec(path: str, seed: int = 0) -> GaussianSpec:
    """Read a covariance matrix from a plain CSV file (testing convenience)."""
    try:
        cov = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        if isinstance(exc, OSError):
            raise
        raise ParseError(f"{path}: not a numeric CSV matrix: {exc}") from exc
    return GaussianSpec(dim=cov.shape[0], true_cov=cov, seed=seed)


def gbm_prices(n, seed, mu=2e-4, sigma=0.015, start=100.0):
    """Plain geometric Brownian motion, the everyday well-behaved input."""
    rng = np.random.default_rng(seed)
    steps = mu + sigma * rng.standard_normal(n - 1)
    return start * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def smooth_prices(n, seed, sigma=0.004, rho=0.9, start=100.0):
    """Slow trends plus an AR(1)-smoothed random walk.

    Windows drawn from this path are highly collinear, which drives the
    observation-block condition number past 1e5 for M around 80 — the
    deliberately ill-conditioned input.  Its properties are asserted where
    it is used.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    log_trend = (
        0.00025 * t
        + 0.10 * np.sin(2 * np.pi * t / 750)
        + 0.04 * np.sin(2 * np.pi * t / 180)
    )
    eps = rng.standard_normal(n)
    ar = np.empty(n)
    ar[0] = eps[0]
    for i in range(1, n):
        ar[i] = rho * ar[i - 1] + eps[i]
    noise = np.cumsum(sigma * ar * np.sqrt(1.0 - rho**2))
    return start * np.exp(log_trend + noise)
