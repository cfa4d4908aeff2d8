"""Ground-truth Gaussian sampler and Monte-Carlo checks for the closed forms.

Estimators fitted from a known covariance can be scored against brute-force
sampling: :func:`mc_mse` replays the forecast on fresh draws
(:func:`mc_squared_errors` keeps the error of every draw), and
:func:`mc_bias` estimates the conditional bias by stratifying on the future
block and replicating observations from the reverse conditional law.  Each
takes a sequence of estimators, scores every estimator on the same draws,
and returns one result per estimator, in order.

Both oracles read rows ``g`` of standard normals of the spec's dimension,
one matrix per seed.  The errors read its first ``n`` rows: a draw is
``x = g @ F`` with ``F`` the covariance's square root, so a forecast error
``z - C y`` is ``g @ (F[:, m:] - F[:, :m] C')``, scored without forming
``x``.  The bias reads stratum ``k`` from rows ``k n_rep .. (k + 1) n_rep - 1``:
its future block from the last ``h`` normals of its first row,
``g[k n_rep, m:] @ F_zz^(1/2)``, and its replicates from the first ``m``
normals of every row, ``g[rows, :m] @ F_(y|z)^(1/2)``.  Those are disjoint
normals, so the future block and the replicates are independent.  The rows
are drawn a block of whole strata at a time into one reused buffer, and
each block serves both oracles, so :func:`mc_squared_errors_and_bias`
draws each normal once, no call holds every draw at once, and the normals
are those of one unblocked draw.

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

from ._linalg import covariance_eigh, solve_sym, symmetrize
from .errors import ParseError
from .estimators import Estimator

__all__ = [
    "GaussianSpec",
    "McEstimate",
    "sample",
    "mc_squared_errors",
    "mc_mse",
    "mc_bias",
    "mc_squared_errors_and_bias",
    "random_covariance",
    "geometric_spectrum",
    "load_gaussian_spec",
    "gbm_prices",
    "smooth_prices",
]

# Observations replicated per future-block stratum in :func:`mc_bias`.
MC_BIAS_REPLICATES = 100
# Rows drawn and scored at a time by the Monte-Carlo oracles, rounded down to
# whole strata (2,000 rows of 100 replicates): a block of the 30-dimensional
# verify law is 0.5 MB, so it and its forecast errors stay in a core's cache
# between the draw and the scoring.
SAMPLE_BLOCK = 2048
# Drift of :func:`gbm_prices` and AR(1) coefficient of :func:`smooth_prices`;
# every benchmark input and pinned benchmark result is drawn with these values.
GBM_DRIFT = 2e-4
SMOOTH_AR = 0.9


@dataclass(frozen=True)
class GaussianSpec:
    """A ground-truth zero-mean Gaussian law: covariance and a sampling seed."""

    true_cov: np.ndarray
    seed: int = 0

    def __post_init__(self):
        cov = np.asarray(self.true_cov, dtype=float)
        cov, _, _ = covariance_eigh(cov, "true_cov", vectors=False)
        cov.flags.writeable = False
        object.__setattr__(self, "true_cov", cov)

    @property
    def dim(self) -> int:
        return self.true_cov.shape[0]


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its sampling standard error."""

    value: float
    se: float
    n: int

    @classmethod
    def of(cls, samples: np.ndarray, n: int | None = None) -> "McEstimate":
        """The mean of ``samples`` with its standard error
        ``std(ddof=1) / sqrt(len(samples))``, ``inf`` for one sample; ``n``
        is the draw count, ``len(samples)`` unless given."""
        k = samples.shape[0]
        se = float(samples.std(ddof=1) / math.sqrt(k)) if k > 1 else float("inf")
        return cls(value=float(samples.mean()), se=se, n=k if n is None else n)


def _sqrt_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via its eigendecomposition."""
    s, v = np.linalg.eigh(symmetrize(cov))
    return (v * np.sqrt(np.clip(s, 0.0, None))) @ v.T


def _check_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")


def sample(spec: GaussianSpec, n: int) -> np.ndarray:
    """Draw ``n`` vectors; deterministic per seed (same seed, same matrix)."""
    _check_count(n)
    g = np.random.default_rng(spec.seed).standard_normal((n, spec.dim))
    return g @ _sqrt_factor(spec.true_cov)


def _check_inputs(spec: GaussianSpec, ests: Sequence[Estimator], n: int) -> int:
    """The ``m`` every estimator shares: raise ``ValueError`` unless they share
    one, ``m + horizon`` is the spec dim, and ``n`` asks for at least one draw."""
    if not ests:
        raise ValueError("need at least one estimator")
    split = ests[0].m
    for est in ests:
        if (est.m, est.m + est.horizon) != (split, spec.dim):
            raise ValueError(
                f"estimator shape ({est.horizon}, {est.m}) does not match spec dim "
                f"{spec.dim} split at {split}"
            )
    _check_count(n)
    return split


def _monte_carlo(
    spec: GaussianSpec, ests: Sequence[Estimator], n: int, errors: bool, bias: bool
) -> tuple[list[np.ndarray], list[McEstimate]]:
    """The squared errors of :func:`mc_squared_errors` if ``errors`` and the
    estimates of :func:`mc_bias` if ``bias``, an empty list for a half not
    asked for, from one loop over blocks of whole strata of the rows both
    read.  Every input is checked, and the reverse conditional law (which
    may raise) set up, before the first draw."""
    split = _check_inputs(spec, ests, n)
    factor = _sqrt_factor(spec.true_cov)
    gaps = [factor[:, split:] - factor[:, :split] @ est.coeff.T for est in ests]
    n_rep = max(2, min(MC_BIAS_REPLICATES, n))
    n_z = max(1, n // n_rep)
    sq = [np.empty(n) for _ in ests] if errors else []
    strata = [np.empty(n_z) for _ in ests] if bias else []
    if bias:
        cov = spec.true_cov
        syy, szy, szz = cov[:split, :split], cov[split:, :split], cov[split:, split:]
        # reverse conditional: y | z is Gaussian with mean R z
        r = solve_sym(szz, szy, "sigma_zz").T
        y_factor = _sqrt_factor(symmetrize(syy - r @ szy))
        z_factor = _sqrt_factor(szz)
        grams = [(est.coeff.T @ est.coeff).ravel() for est in ests]
    n_bias = n_z * n_rep if bias else 0
    total = max(n if errors else 0, n_bias)
    step = n_rep * (SAMPLE_BLOCK // n_rep)
    rng = np.random.default_rng(spec.seed)
    buf = np.empty((min(step, total), spec.dim))
    for start in range(0, total, step):
        g = rng.standard_normal(out=buf[: min(step, total - start)])
        for gap, s in zip(gaps, sq):
            err = g[: n - start] @ gap
            s[start : start + len(err)] = np.einsum("ij,ij->i", err, err)
        if start < n_bias:
            rows = g[: n_bias - start]
            k = slice(start // n_rep, (start + len(rows)) // n_rep)
            z = rows[::n_rep, split:] @ z_factor
            eps = (rows[:, :split] @ y_factor).reshape(-1, n_rep, split)
            eps_mean = eps.mean(axis=1)
            resid = eps - eps_mean[:, None, :]
            scatter = (resid.transpose(0, 2, 1) @ resid).reshape(len(z), -1)
            y_mean = z @ r.T + eps_mean
            for est, gram, b_k in zip(ests, grams, strata):
                dev = y_mean @ est.coeff.T - z
                noise = scatter @ gram / (n_rep - 1)
                b_k[k] = np.einsum("ki,ki->k", dev, dev) - noise / n_rep
    return sq, [McEstimate.of(b_k, n_bias) for b_k in strata]


def mc_squared_errors(spec: GaussianSpec, ests: Sequence[Estimator], n: int) -> list[np.ndarray]:
    """Squared forecast error ``||z - C y||^2`` of each estimator on each of
    ``n`` fresh draws, the draws of :func:`sample` ``(spec, n)``, split after
    the estimators' ``m`` observed coordinates.

    The draws are scored one block of rows at a time, and each block serves
    every estimator (common random numbers), so the errors of a list equal
    those of one-element calls bit for bit, and differences between
    estimators carry no independent sampling noise.
    """
    return _monte_carlo(spec, ests, n, errors=True, bias=False)[0]


def mc_mse(spec: GaussianSpec, ests: Sequence[Estimator], n: int) -> list[McEstimate]:
    """Empirical mean squared error of each estimator over ``n`` fresh draws,
    the means of :func:`mc_squared_errors`."""
    return [McEstimate.of(sq) for sq in mc_squared_errors(spec, ests, n)]


def mc_bias(spec: GaussianSpec, ests: Sequence[Estimator], n: int) -> list[McEstimate]:
    """Empirical squared conditional bias of each estimator, stratified on the
    future block.

    Each of ``n_z = max(1, n // n_rep)`` draws of the future block z gets
    ``n_rep = max(2, min(MC_BIAS_REPLICATES, n))`` observation vectors
    ``y_i = R z + eps_i`` replicated from the reverse conditional law, so
    ``McEstimate.n`` is ``n_z * n_rep``, which is not ``n`` unless ``n_rep``
    divides it.  The forecasts averaged over a stratum estimate the
    conditional mean, and its squared distance to z is recorded.  The
    replication noise that inflates that distance is estimated from the
    within-stratum scatter and subtracted, so the estimator is unbiased for
    ``E || E[zhat | z] - z ||^2``.

    A forecast is linear in ``y``, so each stratum is kept only as its
    observation mean ``ybar = R z + mean_i eps_i`` and its replicate scatter
    ``S = sum_i (eps_i - epsbar)(eps_i - epsbar)^T``: an estimator ``C`` has
    forecast mean ``C ybar`` and forecast scatter ``<S, C^T C>``.  Stratum
    ``k`` reads rows ``k n_rep .. (k + 1) n_rep - 1`` of the normals
    :func:`mc_squared_errors` reads from the same seed: z from the last
    ``h`` normals of its first row, the replicates from the first ``m`` of
    every row.

    The strata and their replicates are drawn once and scored for every
    estimator (common random numbers): the estimates of a list equal those of
    one-element calls bit for bit.
    """
    return _monte_carlo(spec, ests, n, errors=False, bias=True)[1]


def mc_squared_errors_and_bias(
    spec: GaussianSpec, ests: Sequence[Estimator], n: int
) -> tuple[list[np.ndarray], list[McEstimate]]:
    """:func:`mc_squared_errors` and :func:`mc_bias` of the same call, equal
    to theirs, from one loop that draws each normal once for both."""
    return _monte_carlo(spec, ests, n, errors=True, bias=True)


def random_covariance(spectrum: np.ndarray, seed: int = 0) -> np.ndarray:
    """Covariance with the given eigenvalues on a random orthogonal basis."""
    s = np.asarray(spectrum, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"spectrum must be 1-d, got shape {s.shape}")
    if np.any(s < 0):
        raise ValueError("spectrum must be nonnegative")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((s.size, s.size)))
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
    except ValueError as exc:
        raise ParseError(f"{path}: not a numeric CSV matrix: {exc}") from exc
    return GaussianSpec(cov, seed)


def gbm_prices(n, seed, sigma=0.015, start=100.0):
    """Geometric Brownian motion with drift ``GBM_DRIFT``, the everyday well-behaved input."""
    rng = np.random.default_rng(seed)
    steps = GBM_DRIFT + sigma * rng.standard_normal(n - 1)
    return start * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def smooth_prices(n, seed, sigma=0.004, start=100.0):
    """Slow trends plus an AR(1)-smoothed random walk (coefficient ``SMOOTH_AR``).

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
        ar[i] = SMOOTH_AR * ar[i - 1] + eps[i]
    noise = np.cumsum(sigma * ar * np.sqrt(1.0 - SMOOTH_AR**2))
    return start * np.exp(log_trend + noise)
