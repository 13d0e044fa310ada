import numpy as np
import pytest

from persymdet import (
    DimensionError,
    ModelError,
    NormalizationError,
    PersymmetricCovariance,
    SteeringVector,
    build_transform,
    canonicalize,
    covariance_model,
    exchange_matrix,
    is_persymmetric,
    steering,
    transform_covariance,
)


class TestExchangeMatrix:
    def test_n2(self):
        assert np.array_equal(exchange_matrix(2), [[0, 1], [1, 0]])

    def test_n3(self):
        assert np.array_equal(exchange_matrix(3), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_involution(self, n):
        j = exchange_matrix(n)
        assert np.array_equal(j @ j, np.eye(n))

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            exchange_matrix(0)


class TestIsPersymmetric:
    def test_identity(self):
        assert is_persymmetric(np.eye(5))

    def test_hermitian_toeplitz(self):
        # first row (1, 0.9 e^{j0.3}, 0.81 e^{j0.6}); direct J M* J evaluation
        # below is the oracle for the expected answer
        row = np.array([1.0, 0.9 * np.exp(0.3j), 0.81 * np.exp(0.6j)])
        m = np.empty((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                m[i, j] = row[j - i] if j >= i else row[i - j].conj()
        jx = exchange_matrix(3)
        assert np.allclose(m, jx @ m.conj() @ jx)
        assert is_persymmetric(m)

    def test_generic_hermitian_is_not(self):
        gen = np.random.default_rng(7)
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        m = 0.5 * (a + a.conj().T)
        assert not is_persymmetric(m)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_persymmetric(np.ones((2, 3)))

    @pytest.mark.parametrize("scale", [1.0, 1e160])
    def test_checks_are_scale_free(self, scale):
        # the checks' norms once overflowed past 1e154 and passed any matrix
        m = np.array(covariance_model(4, 0.5, 0.1, 0.0).entries)
        for big in (1e300, 1e-300):
            assert is_persymmetric(big * m) and PersymmetricCovariance(big * m).n == 4
        assert not is_persymmetric(scale * (m + np.diag([0.1, 0.0, 0.0, 0.0])))
        m[0, 1] += 0.3
        with pytest.raises(ModelError, match="not Hermitian"):
            PersymmetricCovariance(scale * m)


class TestBuildTransform:
    def test_n2_closed_form(self):
        s = np.array([1.0, 1.0]) / np.sqrt(2.0)
        xf = build_transform(s)
        expected_t = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
        assert np.allclose(xf.t, expected_t, atol=1e-15)
        assert np.allclose(xf.t @ s, [1.0, 0.0], atol=1e-15)
        assert np.array_equal(xf.v, np.eye(2))

    def test_n3_householder(self):
        s = np.ones(3) / np.sqrt(3.0)
        xf = build_transform(s)
        x = xf.t @ s
        assert np.max(np.abs(x.imag)) < 1e-14
        assert abs(x[2]) < 1e-14  # bottom (imaginary-part) block is empty
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(xf.v @ x.real, e1, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 12, 15])
    @pytest.mark.parametrize("nu", [0.0, 0.1, -0.37, 0.49])
    def test_defining_properties(self, n, nu):
        sv = steering(n, nu)
        xf = build_transform(sv)
        x = xf.t @ sv.entries
        assert np.max(np.abs(x.imag)) < 1e-10
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.linalg.norm(xf.v @ x.real - e1) < 1e-10
        assert np.linalg.norm(xf.t @ xf.t.conj().T - np.eye(n)) < 1e-12 * n
        assert np.linalg.norm(xf.v @ xf.v.T - np.eye(n)) < 1e-12 * n

    def test_deterministic(self):
        sv = steering(9, 0.23)
        a = build_transform(sv)
        b = build_transform(sv)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.v, b.v)

    def test_non_persymmetric_rejected(self):
        s = np.array([1.0, 1j, 0.0, 0.0])
        with pytest.raises(ModelError):
            build_transform(s)

    def test_non_unit_norm_rejected(self):
        with pytest.raises(NormalizationError):
            build_transform(np.array([1.0, 1.0]))


class TestCanonicalize:
    def _setup(self, n=6, nu=0.2):
        sv = steering(n, nu)
        return sv, build_transform(sv)

    def test_pure_steering(self):
        sv, xf = self._setup()
        rk = np.tile(sv.entries, (3, 1))
        data = canonicalize(sv.entries, rk, xf)
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert np.allclose(data.z1, e1, atol=1e-10)
        assert np.allclose(data.z2, 0.0, atol=1e-10)

    def test_rotated_steering(self):
        sv, xf = self._setup()
        data = canonicalize(1j * sv.entries, [sv.entries], xf)
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert np.allclose(data.z1, 0.0, atol=1e-10)
        assert np.allclose(data.z2, e1, atol=1e-10)

    def test_zero_input(self):
        sv, xf = self._setup()
        data = canonicalize(np.zeros(6, complex), [sv.entries], xf)
        assert np.all(data.z1 == 0.0) and np.all(data.z2 == 0.0)

    def test_energy_preserved(self):
        sv, xf = self._setup(n=7, nu=-0.12)
        gen = np.random.default_rng(3)
        r = gen.standard_normal(7) + 1j * gen.standard_normal(7)
        rk = gen.standard_normal((4, 7)) + 1j * gen.standard_normal((4, 7))
        data = canonicalize(r, rk, xf)
        lhs = np.linalg.norm(data.z1) ** 2 + np.linalg.norm(data.z2) ** 2
        rhs = np.linalg.norm(r) ** 2
        assert abs(lhs - rhs) < 1e-10 * rhs
        for i in range(4):
            lhs_k = np.linalg.norm(data.z1k[i]) ** 2 + np.linalg.norm(data.z2k[i]) ** 2
            assert abs(lhs_k - np.linalg.norm(rk[i]) ** 2) < 1e-10 * rhs

    def test_dimension_mismatch(self):
        sv, xf = self._setup()
        with pytest.raises(DimensionError):
            canonicalize(np.zeros(5, complex), [sv.entries], xf)
        with pytest.raises(DimensionError):
            canonicalize(sv.entries, np.zeros((2, 5), complex), xf)


class TestTransformCovariance:
    @pytest.mark.parametrize("n,rho,fc,cnr", [(4, 0.0, 0.0, 0.0), (8, 0.9, 0.2, 10.0), (7, 0.5, -0.3, 5.0)])
    def test_real_symmetric_pd(self, n, rho, fc, cnr):
        m0 = covariance_model(n, rho, fc, cnr)
        xf = build_transform(steering(n, 0.1))
        m = transform_covariance(m0, xf)
        assert m.dtype == float
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m)[0] > 0.0

    def test_rejects_non_persymmetric(self):
        gen = np.random.default_rng(1)
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        m = 0.5 * (a + a.conj().T) + 10.0 * np.eye(4)
        xf = build_transform(steering(4, 0.0))
        with pytest.raises(ModelError):
            transform_covariance(m, xf)


def test_steering_vector_validation():
    with pytest.raises(NormalizationError, match=r"^steering vector norm 2\.0 is not 1$"):
        SteeringVector(np.array([2.0, 0.0]))
    sv = steering(5, 0.3)
    assert sv.n == 5
    with pytest.raises(ValueError):
        sv.entries[0] = 0.0  # frozen contents
