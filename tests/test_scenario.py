import numpy as np
import pytest

from persymdet import (
    PersymmetricCovariance,
    ScenarioConfig,
    alpha_for_sinr,
    as_hypothesis,
    build_transform,
    covariance_model,
    is_persymmetric,
    sample_dataset,
    sinr,
    steering,
    transform_covariance,
)
from persymdet import scenario
from persymdet.streams import derive_stream


class TestSteering:
    def test_zero_frequency(self):
        sv = steering(5, 0.0)
        assert np.allclose(sv.entries, np.ones(5) / np.sqrt(5.0))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
    @pytest.mark.parametrize("nu", [0.0, 0.1, -0.33, 0.49])
    def test_unit_norm_and_persymmetry(self, n, nu):
        sv = steering(n, nu)  # SteeringVector construction enforces both
        assert abs(np.linalg.norm(sv.entries) - 1.0) < 1e-12
        j = np.fliplr(np.eye(n))
        assert np.max(np.abs(sv.entries - j @ sv.entries.conj())) < 1e-12


_CLUTTER = [(0.0, 0.0, 0.0), (0.5, 0.2, 5.0), (0.99, -0.3, 20.0), (0.3, -0.5, -3.0),
            (0.9, 0.45, 30.0)]


class TestCovarianceModel:
    def test_white_case(self):
        m0 = covariance_model(4, 0.0, 0.0, 0.0)
        assert np.allclose(m0.entries, 2.0 * np.eye(4))

    @pytest.mark.parametrize("rho,fc,cnr", _CLUTTER)
    def test_always_persymmetric(self, rho, fc, cnr):
        assert is_persymmetric(covariance_model(8, rho, fc, cnr).entries, tol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 32])
    @pytest.mark.parametrize("rho,fc,cnr", _CLUTTER)
    def test_matches_scipy_toeplitz(self, n, rho, fc, cnr):
        from scipy.linalg import toeplitz

        lags = np.arange(n)
        col = rho**lags * np.exp(2j * np.pi * fc * lags)
        ref = PersymmetricCovariance(10.0 ** (cnr / 10.0) * toeplitz(col, col.conj()) + np.eye(n))
        assert covariance_model(n, rho, fc, cnr).entries.tobytes() == ref.entries.tobytes()

    def test_noise_floor(self):
        m0 = covariance_model(8, 0.99, 0.1, 15.0)
        assert np.linalg.eigvalsh(m0.entries)[0] > 1.0

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            covariance_model(4, 1.0)
        with pytest.raises(ValueError):
            covariance_model(4, -0.1)


class TestScenarioConfig:
    def test_h0_rejects_amplitude(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, alpha=1.0 + 0j)
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, sinr_db=10.0)

    def test_h1_needs_exactly_one(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, hypothesis="H1")
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, hypothesis="H1", alpha=1.0, sinr_db=3.0)
        ScenarioConfig(n=8, k=16, hypothesis="H1", alpha=1.0)
        ScenarioConfig(n=8, k=16, hypothesis="H1", sinr_db=3.0)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, gamma=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, rho=1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, nu=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(n=8, k=16, hypothesis="h2")
        for field, value in (("n", 8.5), ("k", 16.5), ("n", "8"), ("k", None)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                ScenarioConfig(**{"n": 8, "k": 16, field: value})

    @pytest.mark.parametrize("value", [8, np.int64(8), 8.0])
    def test_integral_counts_stored_as_int(self, value):
        cfg = ScenarioConfig(n=value, k=2 * value)
        assert (cfg.n, cfg.k) == (8, 16)
        assert type(cfg.n) is int and type(cfg.k) is int
        assert cfg == ScenarioConfig(n=8, k=16)

    def test_bool_is_not_a_count(self):
        for field in ("n", "k"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                ScenarioConfig(**{"n": 8, "k": 16, field: True})

    @pytest.mark.parametrize("field,value", [
        ("cnr_db", np.nan), ("cnr_db", np.inf), ("cnr_db", 1e5),
        ("sinr_db", np.nan), ("sinr_db", np.inf), ("sinr_db", 1e5), ("sinr_db", 3083.0),
        ("alpha", complex(np.nan, 0.0)), ("alpha", complex(0.0, np.inf)),
        ("gamma", np.inf), ("gamma", np.nan),
    ])
    def test_non_finite_levels_rejected(self, field, value):
        h1 = {"sinr_db": 3.0} if field != "alpha" else {}
        kwargs = {"n": 8, "k": 16, "hypothesis": "H1", **h1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ScenarioConfig(**kwargs)

    def test_extreme_finite_levels_accepted(self):
        # -inf dB is zero power: no clutter, or no target
        cfg = ScenarioConfig(n=4, k=8, cnr_db=-np.inf, hypothesis="H1", sinr_db=-np.inf)
        assert np.array_equal(covariance_model(4, 0.5, 0.0, -np.inf).entries, np.eye(4))
        assert scenario._prepare(cfg).alpha == 0.0
        ScenarioConfig(n=4, k=8, cnr_db=300.0, hypothesis="H1", sinr_db=3000.0)

    def test_as_hypothesis(self):
        base = ScenarioConfig(n=8, k=16, rho=0.4)
        h1 = as_hypothesis(base, "H1", sinr_db=12.0)
        assert h1.hypothesis == "H1" and h1.sinr_db == 12.0 and h1.rho == 0.4
        assert as_hypothesis(h1, "H0").alpha is None
        assert as_hypothesis(base, "H0") is base  # an H0 config is already H0


class TestSampleDataset:
    def test_seed_determinism(self):
        cfg = ScenarioConfig(n=6, k=12, rho=0.7, cnr_db=8.0, seed=99)
        a = sample_dataset(cfg)
        b = sample_dataset(cfg)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.rk, b.rk)

    def test_zero_amplitude_matches_h0(self):
        h0 = ScenarioConfig(n=6, k=12, rho=0.3, seed=5)
        h1 = ScenarioConfig(n=6, k=12, rho=0.3, seed=5, hypothesis="H1", alpha=0.0)
        a = sample_dataset(h0)
        b = sample_dataset(h1)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.rk, b.rk)

    def test_sample_covariance_matches_model(self):
        n, trials = 4, 100_000
        cfg = ScenarioConfig(n=n, k=1, rho=0.8, cnr_db=6.0, doppler_fc=0.15)
        m0 = covariance_model(n, 0.8, 0.15, 6.0).entries
        rng = derive_stream(7, 0)
        chol = np.linalg.cholesky(m0)
        x = (rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))) / np.sqrt(2)
        draws = x @ chol.T
        m_hat = draws.T @ draws.conj() / trials
        assert np.linalg.norm(m_hat - m0) / np.linalg.norm(m0) < 0.02
        del cfg

    def test_secondary_power_scaling(self):
        n, k, gamma, trials = 4, 8, 3.0, 1250  # 1e4 secondary snapshots
        cfg = ScenarioConfig(n=n, k=k, rho=0.5, cnr_db=5.0, gamma=gamma)
        e_sec, e_prim = 0.0, 0.0
        for i in range(trials):
            ds = sample_dataset(cfg, derive_stream(17, i))
            e_sec += np.mean(np.sum(np.abs(ds.rk) ** 2, axis=1))
            e_prim += np.sum(np.abs(ds.r) ** 2)
        assert e_sec / e_prim == pytest.approx(gamma, rel=0.05)


class TestSinr:
    def test_white_unit_amplitude(self):
        s = steering(5, 0.0)
        assert sinr(1.0, s, np.eye(5)) == pytest.approx(2.0, rel=1e-14)

    def test_covariance_scaling(self):
        s = steering(6, 0.2)
        m0 = covariance_model(6, 0.7, 0.1, 10.0).entries
        assert sinr(0.5, s, 4.0 * m0) == pytest.approx(sinr(0.5, s, m0) / 4.0, rel=1e-12)

    def test_canonical_domain_equality(self):
        n, nu = 8, 0.12
        s = steering(n, nu)
        m0 = covariance_model(n, 0.9, -0.2, 12.0)
        xf = build_transform(s)
        m = transform_covariance(m0, xf)
        e1 = np.zeros(n)
        e1[0] = 1.0
        alpha = 0.4 - 0.9j
        canonical = abs(alpha) ** 2 * (e1 @ np.linalg.solve(m, e1))
        assert sinr(alpha, s, m0) == pytest.approx(canonical, rel=1e-10)


class TestAlphaForSinr:
    def test_round_trip(self):
        s = steering(8, 0.05)
        m0 = covariance_model(8, 0.8, 0.0, 10.0)
        for target_db in (-10.0, 0.0, 12.0, 30.0):
            alpha = alpha_for_sinr(target_db, 0.7, s, m0)
            achieved = 10.0 * np.log10(sinr(alpha, s, m0))
            assert achieved == pytest.approx(target_db, abs=1e-10)

    def test_minus_infinity(self):
        s = steering(4, 0.0)
        assert alpha_for_sinr(-np.inf, 0.0, s, np.eye(4)) == 0.0

    def test_phase_passthrough(self):
        s = steering(4, 0.0)
        alpha = alpha_for_sinr(6.0, 1.234, s, np.eye(4))
        assert np.angle(alpha) == pytest.approx(1.234)
