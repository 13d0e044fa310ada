import numpy as np
import pytest

from persymdet import (
    DimensionError,
    GroupElement,
    PsiPair,
    SufficientStatistic,
    act,
    act_linear,
    act_scale,
    compose,
    compute_psi,
    discrimination_check,
    factorization_deviation,
    identity_element,
    inverse,
    invariance_report,
    mis,
    sample_group_element,
)
from persymdet import group


def _close_element(a, b, tol=1e-10):
    return (
        np.allclose(a.g, b.g, atol=tol, rtol=tol)
        and np.allclose(a.u, b.u, atol=tol, rtol=tol)
        and abs(a.phi - b.phi) <= tol * max(a.phi, 1.0)
    )


def _reference_element(rng, n, cap):
    """The sampler's element stream drawn call by call, with cond(G) and
    cond(G22) both checked: ``(G, phi, candidates drawn)``."""
    drawn = 0
    while True:
        drawn += 1
        g = np.zeros((n, n))
        g[0, 0] = rng.standard_normal()
        g[0, 1:] = rng.standard_normal(n - 1)
        g[1:, 1:] = rng.standard_normal((n - 1, n - 1))
        if g[0, 0] != 0.0 and np.linalg.cond(g) <= cap and np.linalg.cond(g[1:, 1:]) <= cap:
            break
    rng.uniform(0.0, 2.0 * np.pi)
    rng.random()
    return g, float(np.exp(rng.uniform(*group._LOG_PHI_RANGE))), drawn


class TestSampling:
    def test_orthogonal_u(self, rng):
        for _ in range(50):
            e = sample_group_element(6, rng)
            assert np.linalg.norm(e.u @ e.u.T - np.eye(2)) < 1e-12

    def test_block_triangular_exact_zeros(self, rng):
        for _ in range(20):
            e = sample_group_element(5, rng)
            assert np.all(e.g[1:, 0] == 0.0)

    def test_condition_bound_respected(self, rng):
        for _ in range(20):
            e = sample_group_element(6, rng, max_condition=50.0)
            assert np.linalg.cond(e.g) <= 50.0

    @pytest.mark.filterwarnings("error")
    def test_condition_number_is_numpy_cond(self, rng):
        twin = rng.standard_normal((7, 7))
        twin[3] = twin[5]
        mats = [rng.standard_normal((8, 8)) for _ in range(50)]
        mats += [rng.standard_normal((7, 7)) for _ in range(50)]
        mats += [twin, np.diag([1.0, 2.0, 0.0]), np.zeros((3, 3))]
        for m in mats:
            assert group._cond(m) == np.linalg.cond(m)
        assert group._cond(np.diag([1.0, 2.0, 0.0])) == np.inf

    def test_sampler_stream_as_with_numpy_cond(self, monkeypatch):
        # the same candidates are accepted, so the stream is consumed alike
        def draw():
            gen = np.random.default_rng(9)
            return [sample_group_element(8, gen, max_condition=1e2) for _ in range(20)]

        ours = draw()
        monkeypatch.setattr(group, "_cond", np.linalg.cond)
        for a, b in zip(ours, draw()):
            assert np.array_equal(a.g, b.g) and np.array_equal(a.u, b.u) and a.phi == b.phi

    @pytest.mark.parametrize("n, cap", [(2, 1e2), (3, 1e2), (8, 1e2), (32, 1e8), (32, 1e2)])
    def test_one_normal_draw_is_the_three_call_stream(self, n, cap):
        # G's n^2 - n + 1 normals come from one call; g11, the rest of row 0
        # and G22 drawn by three calls give the same candidates, a reference
        # that checks both cond(G) and cond(G22) accepts the same ones, and
        # the draws after G read the same stream. Where the cap rejects
        # candidates (n >= 3, cap 1e2), at least 20,000 of them are compared.
        wanted = 20_000 if n >= 3 and cap == 1e2 else 0
        seed = candidates = 0
        while seed < 50 or candidates < wanted:
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                e = sample_group_element(n, ours, max_condition=cap)
                g, phi, drawn = _reference_element(ref, n, cap)
                assert np.array_equal(e.g, g) and e.phi == phi
                assert ours.bit_generator.state == ref.bit_generator.state
                candidates += drawn
            seed += 1

    @pytest.mark.parametrize("cap", [1e2, 1e8])
    def test_subblock_condition_is_implied(self, rng, cap):
        # the sampler checks cond(G) alone; interlacing bounds cond(G22) by it
        for i in range(2_000):
            e = sample_group_element(2 + i % 9, rng, max_condition=cap)
            assert np.linalg.cond(e.g[1:, 1:]) <= np.linalg.cond(e.g) <= cap

    def test_one_condition_number_per_candidate(self, monkeypatch):
        shapes = []

        def counting(a):
            shapes.append(a.shape)
            return np.linalg.cond(a)

        monkeypatch.setattr(group, "_cond", counting)
        gen, ref = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(100):
            shapes.clear()
            sample_group_element(8, gen, max_condition=1e2)
            assert shapes == [(8, 8)] * _reference_element(ref, 8, 1e2)[2]
        # a cap of 1 rejects every candidate, each after one condition number
        shapes.clear()
        with pytest.raises(RuntimeError, match="no acceptably conditioned element"):
            sample_group_element(5, gen, max_condition=1.0)
        assert shapes == [(5, 5)] * group._SAMPLING_ATTEMPTS

    def test_sampled_elements_pass_public_checks(self, rng):
        # the sampler skips the constructor's checks; each must still hold
        for i in range(400):
            e = sample_group_element(2 + i % 9, rng, max_condition=(1e2, 1e8)[i % 2])
            checked = GroupElement(e.g, e.u, e.phi)
            assert np.array_equal(checked.g, e.g) and np.array_equal(checked.u, e.u)
            assert checked.phi == e.phi and type(e.phi) is float
            assert not e.g.flags.writeable and not e.u.flags.writeable

    def test_actions_and_forms_pass_public_checks(self, rng):
        # act and compute_psi skip the constructors' checks; each must still
        # hold, and the constructors must return the very same bytes
        for i in range(200):
            n = 2 + i % 9
            stat = group._random_statistic(rng, n, 2 * n + i % 3)
            e = sample_group_element(n, rng, max_condition=1e3)
            for moved in (act(e, stat), act_linear(e, stat), act_scale(e.phi, stat)):
                checked = SufficientStatistic(moved.zp, moved.s, moved.k)
                assert checked.zp.tobytes() == moved.zp.tobytes()
                assert checked.s.tobytes() == moved.s.tobytes() and checked.k == moved.k
                assert not moved.zp.flags.writeable and not moved.s.flags.writeable
                psis = compute_psi(moved)
                public = PsiPair(psis.psi0, psis.psi1)
                assert public.psi0.tobytes() == psis.psi0.tobytes()
                assert public.psi1.tobytes() == psis.psi1.tobytes()
                assert public.entries == psis.entries and public.lam == psis.lam
                assert not psis.psi0.flags.writeable and not psis.psi1.flags.writeable

    def test_action_rejects_non_finite_image(self, stat_factory):
        stat = stat_factory(0)
        elem = GroupElement(np.diag([1e300] + [1.0] * (stat.n - 1)), np.eye(2), 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                act_scale(1e308, stat)
            with pytest.raises(ValueError, match="non-finite"):
                act(elem, stat)

    @pytest.mark.parametrize("cap", [np.inf, np.nan, 0.5, 0.0, -1.0])
    def test_unbounded_condition_cap_rejected(self, rng, stat_factory, cap):
        # no condition number is below 1, so such a cap is rejected before
        # any candidate is drawn
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^max_condition must be finite and at least 1"):
            sample_group_element(4, rng, max_condition=cap)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="^max_condition"):
            invariance_report(stat_factory(0, n=4, k=8), lambda s: s.n, 1, rng,
                              max_condition=cap)

    def test_structure_validation(self):
        g = np.eye(3)
        g[2, 0] = 0.5
        with pytest.raises(ValueError):
            GroupElement(g=g, u=np.eye(2), phi=1.0)
        with pytest.raises(ValueError):
            GroupElement(g=np.eye(3), u=np.eye(2), phi=-1.0)

    @pytest.mark.parametrize("part, index, bad", [
        ("g", (0, 0), np.inf), ("g", (0, 2), np.nan), ("g", (0, 2), -np.inf),
        ("g", (2, 0), np.nan), ("u", (1, 0), np.nan), ("u", (1, 0), np.inf),
        ("phi", None, np.inf), ("phi", None, np.nan),
    ])
    def test_non_finite_parts_rejected(self, part, index, bad):
        # checked before the other checks: a NaN passed the orthogonality test
        # of U, and a NaN below g11 is reported as non-finite, not as structure
        parts = {"g": np.eye(3), "u": np.eye(2), "phi": 1.0}
        if index is None:
            parts[part] = bad
        else:
            parts[part][index] = bad
        message = {"g": "G contains non-finite", "u": "U contains non-finite",
                   "phi": "phi must be finite"}[part]
        with pytest.raises(ValueError, match=f"^{message}"):
            GroupElement(**parts)

    def test_inverse_of_a_subnormal_scale_rejected(self):
        # 1 / 1e-320 overflows: the inverse once carried phi = inf
        with pytest.raises(ValueError, match="^phi must be finite"):
            inverse(GroupElement(g=np.eye(3), u=np.eye(2), phi=1e-320))
        assert inverse(GroupElement(g=np.eye(3), u=np.eye(2), phi=1e-300)).phi == 1.0 / 1e-300


class TestComposition:
    def test_identity_neutral(self, rng):
        e = identity_element(6)
        a = sample_group_element(6, rng)
        assert _close_element(compose(e, a), a, tol=1e-14)
        assert _close_element(compose(a, e), a, tol=1e-14)

    def test_inverse_axiom(self, rng):
        for _ in range(20):
            a = sample_group_element(6, rng)
            assert _close_element(compose(a, inverse(a)), identity_element(6), 1e-10)
            assert _close_element(compose(inverse(a), a), identity_element(6), 1e-10)

    def test_associativity(self, rng):
        for _ in range(20):
            a, b, c = (sample_group_element(5, rng) for _ in range(3))
            assert _close_element(compose(compose(a, b), c), compose(a, compose(b, c)), 1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            compose(sample_group_element(4, rng), sample_group_element(5, rng))


class TestAction:
    def test_identity_action_bit_exact(self, stat_factory):
        stat = stat_factory(0)
        moved = act(identity_element(stat.n), stat)
        assert np.array_equal(moved.zp, stat.zp)
        assert np.array_equal(moved.s, stat.s)

    def test_scale_only_action(self, stat_factory):
        stat = stat_factory(1)
        elem = GroupElement(g=np.eye(stat.n), u=np.eye(2), phi=3.5)
        moved = act(elem, stat)
        assert np.array_equal(moved.zp, stat.zp)
        assert np.allclose(moved.s, 3.5 * stat.s, rtol=1e-15)

    def test_composed_action_consistency(self, stat_factory, rng):
        stat = stat_factory(2)
        for _ in range(10):
            a = sample_group_element(stat.n, rng)
            b = sample_group_element(stat.n, rng)
            lhs = act(compose(a, b), stat)
            rhs = act(b, act(a, stat))
            assert np.allclose(lhs.zp, rhs.zp, rtol=1e-10, atol=1e-10)
            assert np.allclose(lhs.s, rhs.s, rtol=1e-10, atol=1e-10)

    def test_closure(self, stat_factory, rng):
        stat = stat_factory(0)
        for _ in range(10):
            moved = act(sample_group_element(stat.n, rng), stat)
            assert np.array_equal(moved.s, moved.s.T)
            assert np.linalg.eigvalsh(moved.s)[0] > 0.0

    def test_factorization(self, stat_factory, rng):
        stat = stat_factory(1)
        for _ in range(20):
            elem = sample_group_element(stat.n, rng)
            assert factorization_deviation(elem, stat) < 1e-12


class TestEigenvalueLaws:
    def test_scaling_law(self, stat_factory):
        # scatter scaling phi divides the whole eigenvalue quadruple by phi
        for seed in range(5):
            stat = stat_factory(seed)
            lam = np.array(compute_psi(stat).lam)
            for phi in (1e-2, 1.0, 1e2):
                lam_s = np.array(compute_psi(act_scale(phi, stat)).lam)
                assert np.max(np.abs(lam_s * phi - lam) / lam) < 1e-10

    def test_linear_subaction_preserves_quadruple(self, stat_factory, rng):
        for seed in range(5):
            stat = stat_factory(seed)
            lam = np.array(compute_psi(stat).lam)
            for _ in range(10):
                elem = sample_group_element(stat.n, rng, max_condition=1e2)
                lam_m = np.array(compute_psi(act_linear(elem, stat)).lam)
                assert np.max(np.abs(lam_m - lam) / lam) < 1e-8


class TestInvarianceReport:
    def test_mis_is_invariant(self, stat_factory, rng):
        fn = lambda s: mis(compute_psi(s)).as_array()
        assert invariance_report(stat_factory(0), fn, 200, rng, max_condition=1e2) < 1e-8

    def test_trace_is_not_invariant(self, stat_factory, rng):
        fn = lambda s: np.trace(compute_psi(s).psi0)
        assert invariance_report(stat_factory(0), fn, 50, rng) > 1e-3

    def test_constant_gives_zero(self, stat_factory, rng):
        assert invariance_report(stat_factory(0), lambda s: 1.0, 20, rng) == 0.0

    def test_nan_is_not_invariance(self, stat_factory, rng):
        # NaN before or after the action must fail every tolerance
        stat = stat_factory(0)
        for fn in (lambda s: float("nan"), lambda s: 1.0 if s is stat else float("nan")):
            assert np.isnan(invariance_report(stat, fn, 5, rng))

    @pytest.mark.parametrize("count, message", [
        (0, "n_elements must be >= 1"),
        (-3, "n_elements must be >= 1"),
        (1.9, "n_elements must be an integer"),
    ])
    def test_element_count_checked(self, stat_factory, rng, count, message):
        # the trace is not invariant, so a run of no elements would pass it
        stat = stat_factory(0)
        fn = lambda s: np.trace(compute_psi(s).psi0)
        with pytest.raises(ValueError, match=message):
            invariance_report(stat, fn, count, rng)

    def test_detectors_are_invariant(self, stat_factory, rng):
        names = ["glr", "2s-glr", "wald", "rao"]
        devs = group._invariance_deviations([stat_factory(2)], names, 50, rng, 1e2)
        assert np.all(devs[1:] < [1e-8, 1e-8, 1e-8, 1e-6])


class TestDiscrimination:
    def test_independent_draws_distinct(self, rng):
        assert discrimination_check(rng, 1000) == 1.0

    def test_same_orbit_not_distinct(self, stat_factory, rng):
        fn = lambda s: mis(compute_psi(s)).as_array()
        assert invariance_report(stat_factory(0), fn, 20, rng, max_condition=1e2) < 1e-8

    def test_zero_pairs_rejected(self, rng):
        with pytest.raises(ValueError):
            discrimination_check(rng, 0)

    @pytest.mark.parametrize("count, message", [
        (-2, "n_pairs must be >= 1"),
        (2.5, "n_pairs must be an integer"),
    ])
    def test_pair_count_checked(self, rng, count, message):
        with pytest.raises(ValueError, match=message):
            discrimination_check(rng, count)
