"""Internal linear-algebra helpers.

No inverse is formed explicitly.  The conditional mean and the squared-bias
closed form solve against the symmetric blocks ``sigma_yy`` and ``sigma_zz``
(:func:`solve_sym`); the reduced-dimension ladder uses QR, Cholesky and
triangular solves (``estimators.SubspaceLadder``).
This module holds the singularity threshold they share, so the
ill-conditioning policy lives in one place.  :func:`spectral_condition`
serves ``sigma_yy`` (and the matrices of failed solves); the ladder takes
``cond(sigma_ww)`` as ``cond(Y_L)**2`` from the SVD of a triangular product
and applies the same threshold on the ``cond(sigma_ww)`` scale.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import linalg as sla

from .errors import DomainError, IllConditionedError

# s_min at or below s_max times this counts as numerically singular.
SINGULARITY_RTOL = 1e-15


def covariance_eigh(a: np.ndarray, what: str, vectors: bool = True):
    """``(symmetric a, ascending eigenvalues, eigenvectors or None)`` of a
    covariance: :class:`DomainError` names ``what`` unless ``a`` is square,
    symmetric to 1e-12 relative and no eigenvalue is below ``-1e-10`` times
    the largest."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{what} must be square, got {a.shape}")
    scale = float(np.abs(a).max(initial=0.0))
    if scale > 0 and float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise DomainError(f"{what} is not symmetric within 1e-12 relative")
    a = symmetrize(a)
    s, v = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    if float(s.min()) < -1e-10 * max(float(s.max(initial=0.0)), 1e-300):
        raise DomainError(f"{what} is not positive semidefinite within 1e-10 relative")
    return a, s, v


def spectral_condition(a: np.ndarray) -> float:
    """Ratio of extreme singular values, ``inf`` at numerical singularity."""
    a = np.asarray(a, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    if smin <= smax * SINGULARITY_RTOL:
        return float("inf")
    return smax / smin


def solve_sym(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric ``a``.

    Ill-conditioned systems are solved anyway (callers report the condition
    number as a diagnostic); only exact numerical singularity raises
    :class:`IllConditionedError`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            x = sla.solve(a, b, assume_a="sym")
    except (sla.LinAlgError, np.linalg.LinAlgError) as exc:
        raise IllConditionedError(
            f"{what} is numerically singular", condition_number=spectral_condition(a)
        ) from exc
    if not np.all(np.isfinite(x)):
        raise IllConditionedError(
            f"solve against {what} produced non-finite values",
            condition_number=spectral_condition(a),
        )
    return x


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose; the result is exactly symmetric."""
    return (a + a.T) / 2.0
