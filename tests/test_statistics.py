import numpy as np
import pytest

from persymdet import (
    CanonicalizedData,
    ConditioningError,
    DegenerateStatisticError,
    PsiPair,
    ScenarioConfig,
    SingularSecondaryError,
    SufficientStatistic,
    assemble,
    build_transform,
    canonicalize,
    compute_psi,
    mis,
    sample_dataset,
    scale_estimates,
    steering,
)
from persymdet import group
from persymdet.statistics import _eig2, _gamma_hat, _psi_batch
from persymdet.streams import derive_stream


class TestAssemble:
    def test_rank_one_secondaries(self):
        # sum-of-outer-products structure: axis-aligned secondaries give a
        # diagonal scatter (2K >= N keeps the shape legal)
        n = 4
        z1k = np.zeros((2, n))
        z1k[0, 0] = 3.0
        z2k = np.zeros((2, n))
        z2k[0, 1] = 2.0
        data = CanonicalizedData(z1=np.zeros(n), z2=np.zeros(n), z1k=z1k, z2k=z2k)
        with pytest.warns(UserWarning):
            stat = assemble(data)
        assert np.array_equal(stat.s, np.diag([9.0, 4.0, 0.0, 0.0]))

    def test_single_secondary_pair(self):
        a, b = 3.0, 2.0
        data = CanonicalizedData(
            z1=np.zeros(2), z2=np.zeros(2), z1k=[[a, 0.0]], z2k=[[0.0, b]]
        )
        with pytest.warns(UserWarning):
            stat = assemble(data)
        assert np.array_equal(stat.s, np.diag([a**2, b**2]))

    def test_block_views_consistent(self, stat_factory):
        stat = stat_factory(0)
        assert np.array_equal(stat.s[1:, :1], stat.s[:1, 1:].T)
        assert stat.zp.shape == (stat.n, 2) and stat.s.shape == (stat.n, stat.n)

    def test_too_few_secondaries_rejected(self):
        with pytest.raises(SingularSecondaryError):
            SufficientStatistic(zp=np.zeros((8, 2)), s=np.eye(8), k=3)

    @pytest.mark.parametrize("scale", [1.0, 1e160])
    def test_symmetry_check_is_scale_free(self, scale):
        # the check's norms once overflowed past 1e154 and passed any S
        a = np.random.default_rng(5).standard_normal((4, 16))
        s = a @ a.T
        for big in (1e300, 1e-300):
            assert np.array_equal(SufficientStatistic(np.ones((4, 2)), big * s, k=8).s, big * s)
        s[0, 1] += 1.0
        with pytest.raises(ValueError, match="S is not symmetric"):
            SufficientStatistic(zp=np.ones((4, 2)), s=scale * s, k=8)

    def test_largest_finite_scale(self):
        # symmetrizing as (S + S') / 2 once froze an inf into S at this scale
        a = np.random.default_rng(5).standard_normal((4, 16))
        s = a @ a.T
        s *= 1e308 / np.abs(s).max()
        s[0, 1] = np.nextafter(s[0, 1], np.inf)
        with np.errstate(over="raise", invalid="raise"):
            stat = SufficientStatistic(np.ones((4, 2)), s, k=8)
        assert np.isfinite(stat.s).all()
        assert np.array_equal(stat.s, stat.s.T) and np.array_equal(stat.s, 0.5 * s + 0.5 * s.T)

    def test_low_support_warns(self):
        with pytest.warns(UserWarning, match="K >= 2N"):
            SufficientStatistic(zp=np.zeros((4, 2)), s=np.eye(4), k=4)

    def test_scatter_consistency_monte_carlo(self):
        # S / (2K) converges to gamma * M, the canonical-domain covariance
        n, k = 4, 10_000
        gamma = 1.7
        cfg = ScenarioConfig(n=n, k=k, rho=0.6, cnr_db=3.0, gamma=gamma, nu=0.1)
        ds = sample_dataset(cfg, derive_stream(123, 0))
        xf = build_transform(steering(n, 0.1))
        stat = assemble(canonicalize(ds.r, ds.rk, xf))
        from persymdet import covariance_model, transform_covariance

        m = transform_covariance(covariance_model(n, 0.6, 0.0, 3.0), xf)
        err = np.linalg.norm(stat.s / (2 * k) - gamma * m) / np.linalg.norm(gamma * m)
        assert err < 0.05


class TestComputePsi:
    def test_zero_bottom_block(self):
        zp = np.zeros((4, 2))
        zp[0] = [1.0, 2.0]
        stat = SufficientStatistic(zp=zp, s=np.eye(4), k=8)
        psis = compute_psi(stat)
        assert np.allclose(psis.psi1, 0.0)
        assert psis.lam[2] == 0.0 and psis.lam[3] == 0.0

    def test_hand_example(self):
        zp = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(UserWarning):
            stat = SufficientStatistic(zp=zp, s=np.eye(3), k=2)
        psis = compute_psi(stat)
        assert np.allclose(psis.psi0, [[2.0, 0.0], [0.0, 1.0]])
        assert np.allclose(psis.psi1, np.eye(2))
        assert psis.lam == (2.0, 1.0, 1.0, 1.0)

    def test_matches_general_eigensolver(self, stat_factory):
        for seed in range(30):
            stat = stat_factory(seed)
            psis = compute_psi(stat)
            ref0 = np.linalg.eigvalsh(stat.zp.T @ np.linalg.solve(stat.s, stat.zp))[::-1]
            z2p, s22 = stat.zp[1:], stat.s[1:, 1:]
            ref1 = np.linalg.eigvalsh(z2p.T @ np.linalg.solve(s22, z2p))[::-1]
            assert np.allclose(psis.lam[:2], ref0, rtol=1e-10, atol=1e-12)
            assert np.allclose(psis.lam[2:], ref1, rtol=1e-10, atol=1e-12)

    def test_ill_conditioned_rejected(self):
        s = np.diag([1.0, 1.0, 1.0, 1e-13])
        stat = SufficientStatistic(zp=np.ones((4, 2)), s=s, k=8)
        with pytest.raises(ConditioningError):
            compute_psi(stat)

    @pytest.mark.parametrize("spectrum", [(3.0, 2.0, 1.0, -1.0), (-1.0, -2.0, -1.0, -3.0)])
    def test_indefinite_rejected(self, spectrum):
        # well conditioned in the 2-norm, but not a scatter matrix
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
        stat = SufficientStatistic(zp=np.ones((4, 2)), s=q @ np.diag(spectrum) @ q.T, k=8)
        with pytest.raises(ConditioningError, match="positive definite"):
            compute_psi(stat)

    def test_is_engine_kernel_on_batch_of_one(self, stat_factory):
        for seed in range(30):
            stat = stat_factory(seed, n=(8, 32, 5)[seed % 3], k=(16, 64, 10)[seed % 3])
            psis = compute_psi(stat)
            psi0, psi1 = _psi_batch(stat.zp[None], stat.s[None])
            assert np.array_equal(psis.psi0, psi0[0]) and np.array_equal(psis.psi1, psi1[0])


def _eig2_of(m):
    """``_eig2`` on the entries of one (2, 2) or stacked (..., 2, 2) array."""
    return _eig2(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])


class TestEig2:
    def test_diagonal(self):
        assert _eig2_of(np.diag([2.0, 1.0])) == (2.0, 1.0)

    def test_constant_row_sum(self):
        assert _eig2_of(np.array([[2.0, 1.0], [1.0, 2.0]])) == (3.0, 1.0)

    def test_against_eigensolver(self):
        gen = np.random.default_rng(11)
        for _ in range(500):
            a = gen.standard_normal((2, 2))
            m = a @ a.T
            lmax, lmin = _eig2_of(m)
            ref = np.linalg.eigvalsh(m)
            scale = max(ref[1], 1.0)
            assert abs(lmax - ref[1]) < 1e-12 * scale
            assert abs(lmin - ref[0]) < 1e-12 * scale

    def test_batched(self):
        gen = np.random.default_rng(5)
        a = gen.standard_normal((64, 2, 2))
        m = a @ np.swapaxes(a, 1, 2)
        lmax, lmin = _eig2_of(m)
        for i in range(64):
            ref = np.linalg.eigvalsh(m[i])
            assert abs(lmax[i] - ref[1]) < 1e-12 * max(1.0, ref[1])
            assert abs(lmin[i] - ref[0]) < 1e-12 * max(1.0, ref[1])


class TestMis:
    def test_hand_ratios(self):
        psis = PsiPair(psi0=np.diag([2.0, 1.0]), psi1=np.diag([1.5, 0.5]))
        t = mis(psis)
        assert (t.t1, t.t2, t.t3) == (4.0, 2.0, 3.0)

    def test_equal_forms(self):
        t = mis(PsiPair(psi0=np.eye(2), psi1=np.eye(2)))
        assert (t.t1, t.t2, t.t3) == (1.0, 1.0, 1.0)

    def test_degenerate_lambda4(self):
        psis = PsiPair(psi0=np.diag([2.0, 1.0]), psi1=np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateStatisticError, match="lambda"):
            mis(psis)

    def test_non_finite_form_is_rejected(self):
        # a pair with a NaN or infinite entry never reaches mis or a detector;
        # mis's NaN rule is covered on floats by the engine's lambda4 test
        for bad in (np.nan, np.inf, -np.inf):
            form = [[1.0, 0.0], [0.0, bad]]
            for psi0, psi1 in ((form, np.eye(2)), (np.eye(2), form)):
                with pytest.raises(ValueError, match="non-finite"):
                    PsiPair(psi0=psi0, psi1=psi1)

    def test_scale_invariance_of_mis(self, stat_factory):
        # scaling S alone rescales all four eigenvalues and cancels in t
        from persymdet import act_scale

        for seed in range(10):
            stat = stat_factory(seed)
            base = mis(compute_psi(stat)).as_array()
            for phi in (1e-3, 0.1, 7.0, 1e3):
                scaled = mis(compute_psi(act_scale(phi, stat))).as_array()
                assert np.max(np.abs(scaled - base) / base) < 1e-12


class TestScaleEstimates:
    def test_identity_hand_values(self):
        est = scale_estimates(PsiPair(psi0=np.eye(2), psi1=np.eye(2)), 4, 2)
        assert est.beta0 == pytest.approx(10.0, rel=1e-14)
        assert est.gamma0_hat == pytest.approx(0.25, rel=1e-14)

    def test_diag_hand_values(self):
        psis = PsiPair(psi0=np.diag([2.0, 1.0]), psi1=np.diag([1.5, 0.5]))
        est = scale_estimates(psis, 8, 4)
        assert est.beta0 == pytest.approx(np.sqrt(673.0), rel=1e-14)
        assert est.gamma0_hat == pytest.approx((np.sqrt(673.0) - 15.0) / 56.0, rel=1e-13)
        assert est.gamma1_hat == pytest.approx((np.sqrt(268.0) - 10.0) / 21.0, rel=1e-13)

    def test_vanishing_determinant_limit(self):
        # det -> 0 with trace fixed: gamma_hat -> N / ((K+1-N) Tr)
        k, n, tr = 8, 4, 2.0
        psi = np.diag([tr - 0.5e-14 / tr, 0.5e-14 / tr])  # det ~ 0.5e-14
        est = scale_estimates(PsiPair(psi0=psi, psi1=psi), k, n)
        limit = n / ((k + 1 - n) * tr)
        assert est.gamma0_hat == pytest.approx(limit, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi", [1e-300, 1e-200, 1e200, 1e300])
    def test_equivariant_at_every_scale(self, stat_factory, phi):
        # gamma_hat(phi S) = phi gamma_hat(S) and beta(phi S) = beta(S) / phi,
        # at scales where the squared trace and the determinant of the raw
        # forms over- or underflow
        from persymdet import act_scale

        stat = stat_factory(0)
        ref = scale_estimates(compute_psi(stat), stat.k, stat.n)
        got = scale_estimates(compute_psi(act_scale(phi, stat)), stat.k, stat.n)
        assert got.gamma0_hat == pytest.approx(phi * ref.gamma0_hat, rel=1e-12)
        assert got.gamma1_hat == pytest.approx(phi * ref.gamma1_hat, rel=1e-12)
        assert got.beta0 == pytest.approx(ref.beta0 / phi, rel=1e-12)
        assert got.beta1 == pytest.approx(ref.beta1 / phi, rel=1e-12)

    def test_zero_trace_rejected(self):
        for psi0 in (np.zeros((2, 2)), -np.eye(2)):
            with pytest.raises(DegenerateStatisticError, match="Tr\\[psi\\] must be positive"):
                scale_estimates(PsiPair(psi0=psi0, psi1=np.eye(2)), 8, 4)

    def test_insufficient_support_rejected(self):
        with pytest.raises(ValueError):
            scale_estimates(PsiPair(psi0=np.eye(2), psi1=np.eye(2)), 4, 5)

    def test_positivity_and_beta_bound(self, stat_factory):
        for seed in range(25):
            stat = stat_factory(seed)
            psis = compute_psi(stat)
            est = scale_estimates(psis, stat.k, stat.n)
            c = stat.k + 1 - stat.n
            tr0 = np.trace(psis.psi0)
            tr1 = np.trace(psis.psi1)
            assert est.gamma0_hat > 0.0 and est.gamma1_hat > 0.0
            assert est.beta0 >= c * tr0 - 1e-12
            assert est.beta1 >= c * tr1 - 1e-12

    def test_gamma_hat_scaling_degree(self):
        # gamma_hat(c * psi) = gamma_hat(psi) / c: basis for the MIS forms
        g1, _ = _gamma_hat(3.0, 2.0, 16, 8)
        g2, _ = _gamma_hat(3.0 * 7.5, 2.0 * 7.5**2, 16, 8)
        assert g2 == pytest.approx(g1 / 7.5, rel=1e-14)


class TestRankOneStructure:
    def test_decomposition_identity(self, stat_factory):
        # psi0 - psi1 == w' w / s_{1.2} with w the regression residual row
        for seed in range(40):
            stat = stat_factory(seed)
            psis = compute_psi(stat)
            s12, s22 = stat.s[:1, 1:], stat.s[1:, 1:]
            y = np.linalg.solve(s22, stat.zp[1:])
            w = stat.zp[:1] - s12 @ y
            s_cond = stat.s[0, 0] - (s12 @ np.linalg.solve(s22, stat.s[1:, :1])).item()
            assert s_cond > 0.0
            update = (w.T @ w) / s_cond
            diff = psis.psi0 - psis.psi1
            assert np.linalg.norm(diff - update) <= 1e-10 * max(np.linalg.norm(diff), 1.0)

    def test_interlacing(self, stat_factory):
        # worst breach of t1 >= t3 >= t2 >= 1 and of psi0 - psi1 rank-one PSD
        assert group._identity_deviations(list(map(stat_factory, range(60))), [])[0] <= 1e-10
