import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persymdet import (
    DegenerateStatisticError,
    DetectorKind,
    NearSingularDenominatorError,
    PsiPair,
    ScenarioConfig,
    SufficientStatistic,
    compute_psi,
    glr,
    mis,
    mis_form,
    rao,
    scale_estimates,
    two_step_glr,
    wald,
)
from persymdet import detectors, group
from persymdet.statistics import _gamma_hat, _psi_batch

from conftest import draw_task

K, N = 8, 4
PSIS = PsiPair(psi0=np.diag([2.0, 1.0]), psi1=np.diag([1.5, 0.5]))
EQUAL = PsiPair(psi0=np.diag([2.0, 1.0]), psi1=np.diag([2.0, 1.0]))
# hand values for PSIS at K=8, N=4
G0 = (np.sqrt(673.0) - 15.0) / 56.0
G1 = (np.sqrt(268.0) - 10.0) / 21.0


class TestGlr:
    def test_equal_forms_give_one(self):
        assert glr(EQUAL, K, N) == pytest.approx(1.0, rel=1e-14)

    def test_hand_value(self):
        expected = (G0 ** (-N / (K + 1)) * (1 + 2 * G0) * (1 + G0)) / (
            G1 ** (-N / (K + 1)) * (1 + 1.5 * G1) * (1 + 0.5 * G1)
        )
        assert glr(PSIS, K, N) == pytest.approx(expected, rel=1e-12)

    def test_matches_mis_form(self, stat_factory):
        assert group._identity_deviations(list(map(stat_factory, range(50))), ["glr"])[0] <= 1e-9


class TestTwoStepGlr:
    def test_equal_forms(self):
        assert two_step_glr(EQUAL) == 1.0

    def test_trace_ratio(self):
        assert two_step_glr(PSIS) == pytest.approx(1.5, rel=1e-15)

    def test_exact_mis_identity(self, stat_factory):
        for seed in range(50):
            psis = compute_psi(stat_factory(seed))
            t = mis(psis)
            lhs = two_step_glr(psis)
            rhs = (t.t1 + t.t2) / (1.0 + t.t3)
            assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_zero_trace_rejected(self):
        bad = PsiPair(psi0=np.eye(2), psi1=np.zeros((2, 2)))
        with pytest.raises(DegenerateStatisticError):
            two_step_glr(bad)


class TestRao:
    def test_equal_forms_give_zero(self):
        assert rao(EQUAL, K, N) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        num = G0 * (0.5 / (1 + 2 * G0) ** 2 + 0.5 / (1 + G0) ** 2)
        den = 1.0 - G0 * (0.5 / (1 + 2 * G0) + 0.5 / (1 + G0))
        assert rao(PSIS, K, N) == pytest.approx(num / den, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_near_singular_denominator(self):
        # craft psi1 = psi0 - delta I so gamma0 Tr[(psi0-psi1) A^-1] = 1;
        # needs gamma0 * Tr[psi0] > 1, i.e. K < 2N - 1
        k, n = 4, 4
        psi0 = np.diag([0.3, 1e-6])
        g0 = scale_estimates(PsiPair(psi0=psi0, psi1=psi0), k, n).gamma0_hat
        a_inv_trace = 1.0 / (1.0 + g0 * psi0[0, 0]) + 1.0 / (1.0 + g0 * psi0[1, 1])
        delta = (1.0 / g0) / a_inv_trace
        psi1 = psi0 - delta * np.eye(2)
        assert np.trace(psi1) > 0.0
        with pytest.raises(NearSingularDenominatorError):
            rao(PsiPair(psi0=psi0, psi1=psi1), k, n)


    def test_matches_matrix_reference(self):
        # the entry-wise formula against inverses and traces of the 2x2 forms
        cfg = ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=10.0, nu=0.1, hypothesis="H1",
                             sinr_db=10.0)
        zp, s = draw_task(cfg, 0, 512, 8)
        psi0, psi1 = _psi_batch(zp, s)
        values = detectors._batch_values("rao", psi0, psi1, cfg.k, cfg.n)
        for p0, p1, value in zip(psi0, psi1, values):
            g0 = scale_estimates(PsiPair(psi0=p0, psi1=p1), cfg.k, cfg.n).gamma0_hat
            a_inv = np.linalg.inv(np.eye(2) + g0 * p0)
            d = p0 - p1
            ref = g0 * np.trace(d @ a_inv @ a_inv) / (1.0 - g0 * np.trace(d @ a_inv))
            assert value == pytest.approx(ref, rel=1e-12)


class TestWald:
    def test_equal_forms_give_zero(self):
        assert wald(EQUAL, K, N) == 0.0

    def test_hand_value(self):
        # gamma1_hat * (Tr[psi0] - Tr[psi1]) = gamma1_hat * (3 - 2)
        assert wald(PSIS, K, N) == pytest.approx(G1 * 1.0, rel=1e-12)

    def test_matches_mis_form(self, stat_factory):
        assert group._identity_deviations(list(map(stat_factory, range(50))), ["wald"])[0] <= 1e-10

    def test_nonnegative(self, stat_factory):
        for seed in range(30):
            stat = stat_factory(seed)
            assert wald(compute_psi(stat), stat.k, stat.n) >= 0.0


def _g(ratio, k, n):
    # (larger eigenvalue) * gamma_hat of a form with eigenvalues (ratio, 1)
    return ratio * _gamma_hat(ratio + 1.0, ratio, k, n)[0]


class TestGGamma:
    """Scale law ``c gamma_hat(c tr, c^2 det) = gamma_hat(tr, det)`` of the MLE."""

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_ratio_one_is_scale_free(self, c):
        psis = PsiPair(psi0=np.diag([c, c]), psi1=np.diag([c, c]))
        est = scale_estimates(psis, 16, 8)
        assert _g(1.0, 16, 8) == pytest.approx(c * est.gamma0_hat, rel=1e-13)

    def test_equals_lambda_times_gamma(self, stat_factory):
        for seed in range(30):
            stat = stat_factory(seed)
            psis = compute_psi(stat)
            est = scale_estimates(psis, stat.k, stat.n)
            l1, l2, l3, l4 = psis.lam
            gn = _g(l1 / l2, stat.k, stat.n)
            gd = _g(l3 / l4, stat.k, stat.n)
            assert gn == pytest.approx(l1 * est.gamma0_hat, rel=1e-11)
            assert gd == pytest.approx(l3 * est.gamma1_hat, rel=1e-11)


class TestMisForm:
    def test_two_step_unit(self):
        assert mis_form("2s-glr", (1.0, 1.0, 1.0), 16, 8) == 1.0

    def test_two_step_hand(self):
        assert mis_form("2s-glr", (4.0, 2.0, 3.0), 16, 8) == pytest.approx(1.5)

    def test_rao_hand(self):
        # the representative of t = (4, 2, 3): psi1 = diag(3, 1) and
        # psi0 = psi1 + w w' with w = (sqrt(1/2), sqrt(3/2))
        w = np.sqrt([0.5, 1.5])
        psis = PsiPair(psi0=np.diag([3.0, 1.0]) + np.outer(w, w), psi1=np.diag([3.0, 1.0]))
        assert mis(psis).as_array() == pytest.approx([4.0, 2.0, 3.0], rel=1e-15)
        assert mis_form("rao", (4.0, 2.0, 3.0), 16, 8) == pytest.approx(
            rao(psis, 16, 8), rel=1e-14
        )

    def test_interlacing_violation_rejected(self):
        # each order of t1 >= t3 >= t2 >= 1 broken by 1e-8, beyond the slack
        for t in ((2.0, 1.0, 2.0 + 1e-8), (3.0, 2.0 + 1e-8, 2.0), (3.0, 1.0 - 1e-8, 2.0),
                  (float("nan"), 1.0, 1.0)):
            with pytest.raises(ValueError, match="breaks"):
                mis_form("glr", t, 16, 8)
        assert mis_form("glr", (2.0, 1.0, 2.0 + 1e-11), 16, 8) > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.tuples(*3 * [st.one_of(st.just(0.0), st.floats(0.0, 1e4))]),
    )
    def test_representative_property(self, gaps):
        # interlaced t2 = 1 + a, t3 = t2 + b, t1 = t3 + c, ties and t3 = 1 included
        t2 = 1.0 + gaps[0]
        t3 = t2 + gaps[1]
        t1 = t3 + gaps[2]
        e0, e1 = detectors._representative(t1, t2, t3)
        back = mis(PsiPair(psi0=np.reshape(e0, (2, 2)), psi1=np.reshape(e1, (2, 2))))
        # mis divides by lambda4 = ((t3 + 1) - (t3 - 1)) / 2, which rounds like eps * t3
        assert np.abs(back.as_array() - [t1, t2, t3]) == pytest.approx(0.0, abs=2e-15 * t1 * t3)
        for kind in DetectorKind:
            for k, n in ((16, 8), (6, 3)):
                assert np.isfinite(mis_form(kind, (t1, t2, t3), k, n)), (kind, k, n)

    def test_two_step_at_least_one(self, stat_factory):
        for seed in range(30):
            stat = stat_factory(seed)
            assert two_step_glr(compute_psi(stat)) >= 1.0


def test_branch_continuity_near_degenerate_determinant():
    # detector values move smoothly through the tiny-determinant regime
    k, n, tr = 16, 8, 2.0
    eps = 1e-12 * max(1.0, tr * tr)
    values = []
    for det in (0.25 * eps, 2.0 * eps):
        lo = det / tr  # eigenvalues ~ (tr - lo, lo)
        psi = np.diag([tr - lo, lo])
        psis = PsiPair(psi0=psi, psi1=psi)
        est = scale_estimates(psis, k, n)
        limit = n / ((k + 1 - n) * tr)
        assert est.gamma0_hat == pytest.approx(limit, rel=1e-6)
        values.append(glr(psis, k, n))
    assert values[0] == pytest.approx(values[1], rel=1e-6)


def test_mis_form_identities(stat_factory):
    # every detector's MIS form, and interlacing and rank-one structure of t
    names = [kind.value for kind in DetectorKind]
    assert np.all(group._identity_deviations(list(map(stat_factory, range(30))), names) <= 1e-9)


# the public scalar value of each statistic (trace-psi0 as the CLI takes it)
SCALAR = {
    "glr": glr,
    "2s-glr": lambda psis, k, n: two_step_glr(psis),
    "rao": rao,
    "wald": wald,
    "trace-psi0": lambda psis, k, n: float(psis.psi0[0, 0] + psis.psi0[1, 1]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, which",
    # the trace ratio checks only its denominator Tr[psi1]
    [(name, w) for name in ("glr", "rao", "wald") for w in ("psi0", "psi1")]
    + [("2s-glr", "psi1")],
)
def test_nonpositive_trace_is_typed(name, which):
    # the batched message, and no numeric warning on the float path
    bad = np.diag([0.5, -1.0])
    if which == "psi0":
        psis = PsiPair(psi0=bad, psi1=0.25 * np.eye(2))
    else:
        psis = PsiPair(psi0=np.eye(2), psi1=bad)
    message = rf"instance 0: Tr\[{which}\] is not positive"
    with pytest.raises(DegenerateStatisticError, match=message):
        SCALAR[name](psis, K, N)


def _assert_scalar_equals_batched(cfg, trials, seed):
    zp, s = draw_task(cfg, 0, trials, seed)
    stats = [SufficientStatistic(zp=z, s=m, k=cfg.k) for z, m in zip(zp, s)]
    psi0, psi1 = _psi_batch(np.stack([x.zp for x in stats]), np.stack([x.s for x in stats]))
    k, n = cfg.k, cfg.n
    batched = {name: detectors._batch_values(name, psi0, psi1, k, n) for name in SCALAR}
    for i, stat in enumerate(stats):
        psis = compute_psi(stat)
        assert np.array_equal(psis.psi0, psi0[i]) and np.array_equal(psis.psi1, psi1[i])
        for name, scalar in SCALAR.items():
            assert scalar(psis, k, n) == batched[name][i], (name, i)


class TestScalarEqualsBatched:
    """The scalar API runs the engine's psi kernel and formula body on floats."""

    @pytest.mark.parametrize("n, k", [(8, 16), (32, 64)])
    def test_bit_exact(self, n, k):
        cfg = ScenarioConfig(n=n, k=k, rho=0.9, cnr_db=10.0, gamma=4.0, nu=0.1,
                             hypothesis="H1", sinr_db=10.0)
        _assert_scalar_equals_batched(cfg, 64, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 12),
        data=st.data(),
        rho=st.floats(0.0, 0.99),
        log_gamma=st.floats(-3.0, 3.0),
        nu=st.floats(-0.5, 0.5, exclude_max=True),
        h1=st.booleans(),
        seed=st.integers(0, 2**63),
    )
    def test_property(self, n, data, rho, log_gamma, nu, h1, seed):
        k = data.draw(st.integers(2 * n, 4 * n), label="k")
        cfg = ScenarioConfig(
            n=n, k=k, rho=rho, cnr_db=10.0, gamma=10.0**log_gamma, nu=nu,
            hypothesis="H1" if h1 else "H0", sinr_db=10.0 if h1 else None,
        )
        _assert_scalar_equals_batched(cfg, 8, seed)

    def test_shared_prelude_in_any_order(self):
        # GLR, Rao and Wald share one cached prelude per (k, n), on a PsiPair
        # and on an engine block; any call order must give the uncached
        # body's and the engine's bits
        cfg = ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=10.0, gamma=4.0, nu=0.1,
                             hypothesis="H1", sinr_db=10.0)
        zp, s = draw_task(cfg, 0, 8, 7)
        psi0, psi1 = _psi_batch(zp, s)
        calls = [(name, k, n) for name in ("glr", "rao", "wald") for k, n in ((16, 8), (40, 5))]
        batched = {c: detectors._batch_values(*c[:1], psi0, psi1, *c[1:]) for c in calls}
        # the engine shares one prelude per block through a memo dict
        for shift in range(len(calls)):
            memo = {}
            for c in calls[shift:] + calls[:shift] + calls[::-1]:
                got = detectors._batch_values(*c[:1], psi0, psi1, *c[1:], memo=memo)
                assert got.tobytes() == batched[c].tobytes(), (c, shift)
        for i, (z, m) in enumerate(zip(zp, s)):
            stat = SufficientStatistic(zp=z, s=m, k=cfg.k)
            for shift in range(len(calls)):
                psis = compute_psi(stat)
                for name, k, n in calls[shift:] + calls[:shift] + calls[::-1]:
                    got = SCALAR[name](psis, k, n)
                    assert got == float(detectors._values(name, *psis.entries, k, n))
                    assert got == batched[name, k, n][i], (name, k, n, i)

    def test_order_exact_when_rank_one_term_vanishes(self):
        # z1p = s12 S22^-1 Z2p makes psi0 = psi1 up to round-off, where a
        # difference of separately rounded traces would go either way
        cfg = ScenarioConfig(n=8, k=16, gamma=0.25, cnr_db=10.0, nu=0.1)
        zp, s = draw_task(cfg, 0, 512, 5)
        zp[:, 0, :] = (s[:, :1, 1:] @ np.linalg.solve(s[:, 1:, 1:], zp[:, 1:, :]))[:, 0, :]
        for z, m in zip(zp, s):
            psis = compute_psi(SufficientStatistic(zp=z, s=m, k=cfg.k))
            assert psis.psi0[0, 0] + psis.psi0[1, 1] >= psis.psi1[0, 0] + psis.psi1[1, 1]
            assert wald(psis, cfg.k, cfg.n) >= 0.0
