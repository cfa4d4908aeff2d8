"""Empirical covariance fitting, eigenstructure, block views, and the
spectral condition number that ``cond_yy`` reports."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from subspace_forecast import (
    CovarianceModel,
    DomainError,
    GaussianSpec,
    InsufficientDataError,
    centered_windows,
    dump_covariance_csv,
    empirical_covariance,
)
from subspace_forecast._linalg import spectral_condition, symmetrize

from conftest import gbm_prices, to_series


def make_data(n_prices=80, m_days=6, horizon=3, seed=0):
    return centered_windows(to_series(gbm_prices(n_prices, seed)), m_days, horizon)[0]


def test_empirical_covariance_matches_np_cov():
    data = make_data()
    model = empirical_covariance(data)
    assert_allclose(model.sigma_xx, np.cov(data.X, rowvar=False), rtol=1e-12)
    assert model.m == data.split_m
    assert model.dim == data.dim
    assert model.n_samples == data.n_samples
    assert CovarianceModel.from_matrix(model.sigma_xx, model.m).n_samples is None


def test_empirical_covariance_two_sample_arithmetic():
    # Two centered rows [1, 0] and [-1, 0]: K - 1 = 1, so the covariance is
    # the plain sum of outer products.
    template = make_data(n_prices=10, m_days=2, horizon=1)
    data = type(template)(
        X=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        mean=np.zeros(2),
        scales=np.ones(2),
        M=template.M,
    )
    model = empirical_covariance(data)
    assert_allclose(model.sigma_xx, [[2.0, 0.0], [0.0, 0.0]], atol=0)
    assert model.m == 1


def test_empirical_covariance_needs_two_rows():
    data = make_data()
    single = type(data)(
        X=data.X[:1],
        mean=data.mean,
        scales=data.scales[:1],
        M=data.M,
    )
    with pytest.raises(InsufficientDataError):
        empirical_covariance(single)


def test_from_matrix_validates_input():
    with pytest.raises(ValueError):
        CovarianceModel.from_matrix(np.ones((3, 4)), m=2)
    asym = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(DomainError, match="symmetric"):
        CovarianceModel.from_matrix(asym, m=1)
    neg = np.diag([1.0, -0.5])
    with pytest.raises(DomainError, match="positive semidefinite"):
        CovarianceModel.from_matrix(neg, m=1)
    with pytest.raises(ValueError):
        CovarianceModel.from_matrix(np.eye(3), m=3)  # horizon would be empty


# Both constructors of a covariance apply the one validity rule.
COVARIANCE_TAKERS = {
    "GaussianSpec": GaussianSpec,
    "from_matrix": lambda a: CovarianceModel.from_matrix(a, m=2),
}


def covariance_with(min_eig, asym):
    """A 4 x 4 matrix with eigenvalues ``1, 0.3, 0.1, min_eig`` whose entry
    ``(0, 1)`` is raised by ``asym`` times its largest entry."""
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    a = symmetrize((q * [1.0, 0.3, 0.1, min_eig]) @ q.T)
    a[0, 1] += asym * np.abs(a).max()
    return a


@pytest.mark.parametrize("take", sorted(COVARIANCE_TAKERS))
def test_both_constructors_apply_one_covariance_rule(take):
    take = COVARIANCE_TAKERS[take]
    with pytest.raises(DomainError, match=r"must be square, got \(4, 5\)"):
        take(np.ones((4, 5)))
    with pytest.raises(DomainError, match="not symmetric within 1e-12 relative"):
        take(covariance_with(0.0, 1e-11))
    with pytest.raises(DomainError, match="not positive semidefinite within 1e-10 relative"):
        take(covariance_with(-1e-9, 0.0))
    take(covariance_with(-0.5e-10, 0.5e-12))  # just inside both tolerances


def test_eigen_decomposition_descending_and_orthonormal():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 12))
    cov = a @ a.T
    model = CovarianceModel.from_matrix(cov, m=8)
    v = model.V
    assert_allclose(v.T @ v, np.eye(12), atol=1e-10)
    s = np.diag(v.T @ cov @ v)  # Rayleigh quotients: the eigenvalues
    assert np.all(np.diff(s) <= 1e-12)  # sorted high to low
    assert_allclose(s, np.linalg.eigvalsh(cov)[::-1], rtol=1e-9, atol=1e-9)
    assert_allclose(v @ np.diag(s) @ v.T, cov, rtol=1e-9, atol=1e-9)


def test_identity_covariance_keeps_identity_eigenvectors():
    # the stable sort must not permute the basis when all eigenvalues tie
    model = CovarianceModel.from_matrix(np.eye(5), m=3)
    assert_allclose(model.V, np.eye(5))


def test_block_views():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 9))
    cov = a @ a.T
    model = CovarianceModel.from_matrix(cov, m=6)
    assert model.horizon == 3
    assert model.sigma_yy.shape == (6, 6)
    assert model.sigma_zz.shape == (3, 3)
    assert model.sigma_yz.shape == (6, 3)
    assert_allclose(model.sigma_zy, model.sigma_yz.T)
    sym = (cov + cov.T) / 2.0
    assert_allclose(model.sigma_yy, sym[:6, :6])
    assert_allclose(model.sigma_zz, sym[6:, 6:])


def test_condition_number_known_values():
    assert spectral_condition(np.eye(4)) == pytest.approx(1.0)
    assert spectral_condition(np.diag([100.0, 4.0, 1.0])) == pytest.approx(100.0)
    assert spectral_condition(np.ones((3, 3))) == np.inf  # rank deficient


def test_covariance_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 7))
    model = CovarianceModel.from_matrix(a @ a.T, m=5)
    path = tmp_path / "cov.csv"
    dump_covariance_csv(model, str(path))
    back = np.loadtxt(path, delimiter=",")
    assert_allclose(back, model.sigma_xx, rtol=0, atol=0)  # full precision
