"""Linear forecasters for the future block of a window.

Three estimators share one interface: the unconditional mean (coefficients
zero), the full conditional mean given the observation block, and a
reduced-dimension conditional mean that first filters the observation onto
the leading principal subspace.  All operate in the centered ratio domain.
One :class:`SubspaceLadder` per covariance model yields the reduced-dimension
estimator of every subspace size.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, solve_triangular

from ._linalg import SINGULARITY_RTOL, solve_sym, spectral_condition, symmetrize
from .covariance_model import CovarianceModel
from .errors import IllConditionedError

__all__ = [
    "METHOD_UNC",
    "METHOD_GB",
    "METHOD_RD",
    "METHODS",
    "SubspaceLadder",
    "Estimator",
    "fit_unconditional",
    "fit_gauss_bayes",
    "predict",
]

METHOD_UNC = "unc"
METHOD_GB = "gb"
METHOD_RD = "rd"
METHODS = (METHOD_UNC, METHOD_GB, METHOD_RD)

# power and inverse steps of SubspaceLadder.cond_ww_bounds
_BOUND_STEPS = 3


@dataclass(frozen=True)
class Estimator:
    """Fitted linear forecaster: centered observation to centered forecast.

    ``cond`` is the condition number of the matrix that was inverted during
    fitting (None for the unconditional mean); ``subspace_dim`` is the L of
    the reduced-dimension method.
    """

    method: str
    coeff: np.ndarray
    posterior_cov: np.ndarray
    cond: float | None = None
    subspace_dim: int | None = None

    @property
    def m(self) -> int:
        return self.coeff.shape[1]

    @property
    def horizon(self) -> int:
        return self.coeff.shape[0]


def fit_unconditional(model: CovarianceModel) -> Estimator:
    """Forecast the (zero) mean; posterior covariance is sigma_zz itself."""
    return Estimator(
        method=METHOD_UNC,
        coeff=np.zeros((model.horizon, model.m)),
        posterior_cov=model.sigma_zz.copy(),
    )


def fit_gauss_bayes(model: CovarianceModel) -> Estimator:
    """Full conditional mean of the future block given the observation block.

    The coefficient matrix is sigma_zy @ inv(sigma_yy), realized as a solve;
    the posterior covariance is the Schur complement of sigma_yy.  An
    ill-conditioned sigma_yy is solved anyway and reported through ``cond``;
    a numerically singular one (``cond`` is ``inf``) raises
    :class:`IllConditionedError` carrying that ``inf``.
    """
    cond_yy = spectral_condition(model.sigma_yy)
    if np.isinf(cond_yy):
        raise IllConditionedError("sigma_yy is numerically singular", condition_number=cond_yy)
    coeff = solve_sym(model.sigma_yy, model.sigma_yz, "sigma_yy").T
    posterior = symmetrize(model.sigma_zz - coeff @ model.sigma_yz)
    return Estimator(method=METHOD_GB, coeff=coeff, posterior_cov=posterior, cond=cond_yy)


class SubspaceLadder:
    """Reduced-dimension estimators of every subspace size from one factorization.

    The estimator of size ``L`` depends only on the span of the first ``L``
    columns of ``V_ML``, the observation rows of the eigenvectors, and the QR
    and Cholesky factors of nested columns are nested.  With ``V_ML = Q R``,
    ``S = Q' sigma_yy Q = K K'`` (``K`` lower triangular) and
    ``W = inv(K) Q' sigma_yz``, every size is a leading block:

    * ``coeff_L = W_L' inv(K_L) Q_L'`` (``R`` cancels),
    * ``posterior_L = sigma_zz - W_L' W_L``.

    The filtered covariance in the paper's coordinates ``w = G y`` with
    ``G = inv(R_L) Q_L'`` is ``sigma_ww(L) = X_L X_L'``, ``X_L = inv(R_L) K_L``,
    so ``inv(sigma_ww(L)) = Y_L' Y_L`` with ``Y_L = inv(K_L) R_L``.  A lower
    times an upper triangular factor has the product of their leading blocks
    as its leading block, so ``Y_L`` is the leading block of ``Y = inv(K) R``,
    formed once, and ``cond_ww(L) = cond(Y_L)**2`` takes one SVD of ``Y_L``:
    no per-size solve and no product that squares before the SVD.

    Each size's ``cond_ww`` is stored on the ladder when first computed, so
    the condition profile, every cap and ``fit`` share one SVD per size.
    :meth:`cond_ww_bounds` gives a lower bound on every size's ``cond_ww``
    from a few batched products and triangular solves, without an SVD.

    Sizes past ``rank`` are unusable: the basis loses rank there (judged from
    ``|R_ii|`` of the basis itself), ``S`` stops being positive definite
    (the first bad Cholesky pivot), or, for a sample covariance of ``k``
    rows, the size reaches ``k - 1`` (``k`` centered rows span ``k - 1``
    dimensions, so that size fits the sample exactly: its posterior is zero
    and its MSE rounding).  Their curve points are ``inf`` and fitting them
    raises :class:`IllConditionedError`.
    """

    def __init__(self, model: CovarianceModel):
        self.model = model
        q, r = np.linalg.qr(model.V[: model.m, : model.m])
        d = np.abs(np.diag(r))
        full = d > SINGULARITY_RTOL * np.maximum.accumulate(d)
        n_basis = d.size if full.all() else int(np.argmin(full))
        q = q[:, :n_basis]
        s = symmetrize(q.T @ model.sigma_yy @ q)
        k, info = lapack.dpotrf(s, lower=1, clean=1)
        if info > 0:  # leading minor of order ``info`` is not positive definite
            k, _ = lapack.dpotrf(s[: info - 1, : info - 1], lower=1, clean=1)
        if model.n_samples is not None:  # n centered rows span n - 1 dimensions
            k = k[: model.n_samples - 2, : model.n_samples - 2]
        self.rank = k.shape[0]
        self.basis_rank = n_basis
        self._q = q[:, : self.rank]
        self._r = r[: self.rank, : self.rank]
        self._k = k
        self._w = solve_triangular(k, self._q.T @ model.sigma_yz, lower=True)
        self._y = solve_triangular(k, self._r, lower=True)
        self._cond_ww: dict[int, float] = {}
        self._bounds: np.ndarray | None = None

    def check(self, L: int) -> None:
        """Raise unless size ``L`` can be fitted."""
        if not 1 <= L <= self.model.m:
            raise ValueError(f"L must be in [1, {self.model.m}], got {L}")
        rows = self.model.n_samples
        if rows is not None and L >= rows - 1:
            why = (f"{rows} centered training rows span {rows - 1} dimensions, "
                   f"which L={L} fits exactly (zero posterior)")
        elif L > self.basis_rank:
            why = f"subspace basis with L={L} is rank deficient over the observation rows"
        elif L > self.rank:
            why = f"sigma_yy restricted to the L={L} subspace is not positive definite"
        else:
            return
        raise IllConditionedError(why, condition_number=float("inf"))

    def cond_ww(self, L: int) -> float:
        """Condition number of ``sigma_ww(L)``, ``cond(Y_L)**2``.

        ``inf`` past ``rank`` and where ``sigma_ww(L)`` counts as numerically
        singular (``cond_ww * SINGULARITY_RTOL >= 1``, the cut-off of
        ``spectral_condition``).  Stored on the ladder after the first call.
        """
        if L > self.rank:
            return float("inf")
        cond = self._cond_ww.get(L)
        if cond is None:
            cond = self._cond_ww[L] = self._svd_cond_ww(L)
        return cond

    def _svd_cond_ww(self, L: int) -> float:
        """``cond(Y_L)**2`` from one SVD of ``Y_L``, with the singular cut-off."""
        s = np.linalg.svd(self._y[:L, :L], compute_uv=False)
        ratio = float(s[0]) / float(s[-1]) if s[-1] > 0 else float("inf")
        cond = ratio * ratio  # a float product overflows to inf, ``**`` raises
        return float("inf") if cond * SINGULARITY_RTOL >= 1 else cond

    def cond_ww_bounds(self) -> np.ndarray:
        """Lower bounds on ``cond_ww(L)`` for ``L = 1..rank``, entry ``L - 1``.

        Any vectors ``v`` and ``u`` give ``|Y_L' v| / |v| <= s_max(Y_L)`` and
        ``|Y_L u| / |u| >= s_min(Y_L)``.  Power steps with ``Y_L' Y_L`` choose
        ``v`` and inverse steps through the triangular factors,
        ``inv(Y_L) = inv(R_L) K_L``, choose ``u``; the solves only choose the
        vector, so the bound holds however they round.  Every size runs at
        once: column ``L - 1`` of an upper triangular batch holds size ``L``'s
        vector with zeros below row ``L``, so ``triu(Y @ X)`` is ``Y_L x_L``
        for every ``L`` and an upper triangular solve keeps the zeros.
        ``s_min`` is raised by ``4 L eps s_max``, the rounding of both the
        products and the SVD, so the bound stays at or below ``cond_ww(L)``.
        Where every size's exact ``cond_ww`` is already stored, as after
        ``build_l_curve``, those values are the bounds and none of this runs.
        Non-finite bounds are 0.  Computed once and stored on the ladder,
        read-only.
        """
        if self._bounds is None:
            if len(self._cond_ww) == self.rank:
                bounds = np.array([self._cond_ww[L] for L in range(1, self.rank + 1)])
            else:
                bounds = self._estimate_bounds()
            self._bounds = np.where(np.isfinite(bounds), bounds, 0.0)
            self._bounds.flags.writeable = False
        return self._bounds

    def _estimate_bounds(self) -> np.ndarray:
        """The power and inverse steps of :meth:`cond_ww_bounds`, every size at once."""
        y, r, k = self._y, self._r, self._k
        start = np.triu(np.ones_like(y))
        x = start
        for _ in range(_BOUND_STEPS):
            v = np.triu(y @ x)
            x = np.triu(y.T @ v)
        u = start
        for _ in range(_BOUND_STEPS):
            w = k.T @ np.triu(solve_triangular(r, u, trans=1, check_finite=False))
            u = solve_triangular(r, np.triu(k @ w), check_finite=False)
        with np.errstate(all="ignore"):
            s_max = np.linalg.norm(x, axis=0) / np.linalg.norm(v, axis=0)
            s_min = np.linalg.norm(np.triu(y @ u), axis=0) / np.linalg.norm(u, axis=0)
            slack = 4 * np.finfo(float).eps * np.arange(1, self.rank + 1) * s_max
            return (s_max / (s_min + slack)) ** 2

    def fit(self, L: int) -> Estimator:
        """The reduced-dimension estimator of size ``L``."""
        self.check(L)
        w = self._w[:L]
        a, info = lapack.dtrtrs(self._k[:L, :L], w, lower=1, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed, LAPACK info {info}")
        return Estimator(
            method=METHOD_RD,
            coeff=(self._q[:, :L] @ a).T,
            posterior_cov=symmetrize(self.model.sigma_zz - w.T @ w),
            cond=self.cond_ww(L),
            subspace_dim=L,
        )

    def mse_order(self) -> list[int]:
        """The exact order of the closed-form MSE of ``L = 1..rank``, entry
        ``L - 1``: minus the count of nonzero rows of ``W`` through row ``L``.

        ``mse_rd(L - 1) - mse_rd(L) = |W row L|^2`` (``posterior_L`` above),
        so a size is strictly better than a smaller one exactly when a row
        between them is nonzero, and ties with it across rows that are zero.
        """
        return (-np.cumsum(self._w.any(axis=1))).tolist()

    def forecasts(self, y: np.ndarray) -> Iterator[np.ndarray]:
        """Forecasts of the observation rows ``y`` for ``L = 1..rank`` in turn.

        ``y @ coeff_L' = U[:, :L] W_L`` with ``U = y Q inv(K)'``, so each size
        adds one rank-one term to the previous forecast; nothing is refitted.
        """
        u = solve_triangular(self._k, (y @ self._q).T, lower=True).T
        pred = np.zeros((y.shape[0], self.model.horizon))
        for i in range(self.rank):
            pred = pred + np.outer(u[:, i], self._w[i])
            yield pred


def predict(est: Estimator, y: np.ndarray) -> np.ndarray:
    """Apply the fitted coefficients to one centered observation vector."""
    y = np.asarray(y, dtype=float)
    if y.shape != (est.m,):
        raise ValueError(f"observation must have shape ({est.m},), got {y.shape}")
    return est.coeff @ y
