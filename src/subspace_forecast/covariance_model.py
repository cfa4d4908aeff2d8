"""Sample covariance of windowed data, its block partition, and its spectrum.

The covariance of the centered window coordinates is split at column ``m``
into an observation block ``sigma_yy``, a future block ``sigma_zz``, and the
cross blocks.  Its eigendecomposition (which realizes the singular value
decomposition, the matrix being symmetric positive semidefinite) supplies the
principal subspaces used by the reduced-dimension estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import symmetrize
from .data_pipeline import DataMatrix
from .errors import DomainError, InsufficientDataError

__all__ = [
    "CovarianceModel",
    "empirical_covariance",
    "dump_covariance_csv",
]


@dataclass(frozen=True)
class CovarianceModel:
    """Symmetric PSD covariance with a y/z block split and its eigenvectors.

    ``V`` holds the orthonormal eigenvectors as columns, ordered by
    descending eigenvalue.
    """

    sigma_xx: np.ndarray
    m: int
    V: np.ndarray

    def __post_init__(self):
        for name in ("sigma_xx", "V"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_matrix(cls, sigma: np.ndarray, m: int) -> "CovarianceModel":
        """Build a model from an explicit covariance matrix.

        The matrix must be square, symmetric to 1e-12 relative, and positive
        semidefinite up to round-off (eigenvalues above ``-1e-10 * s_max``).
        """
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"covariance must be square, got {sigma.shape}")
        d = sigma.shape[0]
        if not 1 <= m < d:
            raise ValueError(f"split m must be in [1, {d - 1}], got {m}")
        scale = float(np.abs(sigma).max())
        if scale > 0 and float(np.abs(sigma - sigma.T).max()) > 1e-12 * scale:
            raise DomainError("covariance is not symmetric within 1e-12 relative")
        sigma = symmetrize(sigma)
        s, vecs = np.linalg.eigh(sigma)
        smax = float(s.max(initial=0.0))
        if float(s.min()) < -1e-10 * max(smax, 1e-300):
            raise DomainError("covariance is not positive semidefinite within tolerance")
        order = np.argsort(-s, kind="stable")
        return cls(sigma_xx=sigma, m=m, V=vecs[:, order])

    @property
    def dim(self) -> int:
        return self.sigma_xx.shape[0]

    @property
    def horizon(self) -> int:
        return self.dim - self.m

    @property
    def sigma_yy(self) -> np.ndarray:
        return self.sigma_xx[: self.m, : self.m]

    @property
    def sigma_yz(self) -> np.ndarray:
        return self.sigma_xx[: self.m, self.m :]

    @property
    def sigma_zy(self) -> np.ndarray:
        # transpose view of sigma_yz, equal to it by construction
        return self.sigma_xx[: self.m, self.m :].T

    @property
    def sigma_zz(self) -> np.ndarray:
        return self.sigma_xx[self.m :, self.m :]


def empirical_covariance(train: DataMatrix) -> CovarianceModel:
    """Sample covariance of centered training rows (divided by ``k - 1``),
    split at ``train.split_m``."""
    k = train.n_samples
    if k < 2:
        raise InsufficientDataError(f"covariance needs at least 2 training rows, got {k}")
    sigma = train.X.T @ train.X / (k - 1)
    return CovarianceModel.from_matrix(symmetrize(sigma), train.split_m)


def dump_covariance_csv(model: CovarianceModel, path: str) -> None:
    """Write ``sigma_xx`` as plain CSV, full-precision scientific notation."""
    np.savetxt(path, model.sigma_xx, delimiter=",", fmt="%.17e")
