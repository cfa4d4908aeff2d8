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

from ._linalg import covariance_eigh
from .data_pipeline import DataMatrix
from .errors import InsufficientDataError

__all__ = [
    "CovarianceModel",
    "empirical_covariance",
    "dump_covariance_csv",
]


@dataclass(frozen=True)
class CovarianceModel:
    """Symmetric PSD covariance with a y/z block split and its eigenvectors.

    ``V`` holds the orthonormal eigenvectors as columns, ordered by
    descending eigenvalue.  ``n_samples`` is the number of centered rows a
    sample covariance was taken from (``None`` for a given matrix); its rank
    is at most one less.
    """

    sigma_xx: np.ndarray
    m: int
    V: np.ndarray
    n_samples: int | None = None

    def __post_init__(self):
        for name in ("sigma_xx", "V"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_matrix(
        cls, sigma: np.ndarray, m: int, n_samples: int | None = None
    ) -> "CovarianceModel":
        """Build a model from an explicit covariance matrix, taken from
        ``n_samples`` centered rows if given.

        The matrix must be a valid covariance
        (:func:`~subspace_forecast._linalg.covariance_eigh`).
        """
        sigma, s, vecs = covariance_eigh(np.asarray(sigma, dtype=float), "covariance")
        d = sigma.shape[0]
        if not 1 <= m < d:
            raise ValueError(f"split m must be in [1, {d - 1}], got {m}")
        order = np.argsort(-s, kind="stable")
        return cls(sigma_xx=sigma, m=m, V=vecs[:, order], n_samples=n_samples)

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
    return CovarianceModel.from_matrix(train.X.T @ train.X / (k - 1), train.split_m, k)


def dump_covariance_csv(model: CovarianceModel, path: str) -> None:
    """Write ``sigma_xx`` as plain CSV, full-precision scientific notation."""
    np.savetxt(path, model.sigma_xx, delimiter=",", fmt="%.17e")
