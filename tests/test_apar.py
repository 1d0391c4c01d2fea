import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recsuite import apar
from recsuite.numeric import grad_check, make_rng


class TestGamma:
    def test_plain_sum(self):
        assert apar.gamma_value(0.5, 0.0) == 0.5
        assert apar.gamma_value(0.0, 0.3) == 0.3

    def test_clamped_above(self):
        assert apar.gamma_value(0.5, 0.8) == 1.0

    def test_clamped_below(self):
        assert apar.gamma_value(-0.2, 0.1) == 0.0

    def test_vector_with_override(self):
        g = apar.gamma_vector(["u1", "u2"], {"u1": 0.9, "u2": 0.1}, beta=0.5, override=0.5)
        assert list(g) == [0.5, 0.5]

    def test_vector_from_knowledge(self):
        g = apar.gamma_vector(["u1", "u2", "u3"], {"u1": 0.9, "u2": 0.1}, beta=0.5)
        assert list(g) == [1.0, 0.6, 0.5]  # missing user falls back to beta


def two_user_state(gamma, neighbors=True):
    P = np.array([[2.0, 0.0], [1.0, 0.0]])
    Q = np.array([[2.0, 0.0]])  # p0·q0 = 4, p1·q0 = 2
    L = np.array([[0.0, 1.0], [1.0, 0.0]]) if neighbors else np.zeros((2, 2))
    return apar.AparState(
        P=P, Q=Q, gamma=np.array([gamma, gamma]), L=L, config=apar.AparConfig(d=2)
    )


class TestPredict:
    def test_gamma_one_is_own_product(self):
        st_ = two_user_state(1.0)
        assert st_.predict_rating(0, 0) == pytest.approx(4.0)

    def test_gamma_zero_single_neighbor(self):
        st_ = two_user_state(0.0)
        assert st_.predict_rating(0, 0) == pytest.approx(2.0)  # neighbor's p1·q0

    def test_half_blend(self):
        st_ = two_user_state(0.5)
        assert st_.predict_rating(0, 0) == pytest.approx(3.0)

    def test_no_neighbors_ignores_gamma(self):
        st_ = two_user_state(0.0, neighbors=False)
        assert st_.predict_rating(0, 0) == pytest.approx(4.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_convex_combination(self, g):
        st_ = two_user_state(g)
        r = st_.predict_rating(0, 0)
        assert min(4.0, 2.0) - 1e-12 <= r <= max(4.0, 2.0) + 1e-12

    def test_neighbor_mean_of_clique(self):
        P = np.array([[1.0], [3.0], [5.0]])
        Q = np.array([[1.0]])
        L = np.ones((3, 3)) - np.eye(3)
        st_ = apar.AparState(
            P=P, Q=Q, gamma=np.zeros(3), L=L, config=apar.AparConfig(d=1)
        )
        assert st_.predict_rating(0, 0) == pytest.approx((3.0 + 5.0) / 2)


class TestMixMatrix:
    def test_pair_half(self):
        A = apar.mix_matrix(np.array([0.5, 0.5]), np.array([[0, 1], [1, 0]], dtype=float))
        assert np.allclose(A, [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_row_is_identity(self):
        A = apar.mix_matrix(np.array([0.3]), np.zeros((1, 1)))
        assert np.allclose(A, [[1.0]])

    def test_rows_sum_to_one(self):
        rng = make_rng(0)
        L = (rng.random((6, 6)) < 0.4).astype(float)
        L = np.triu(L, 1)
        L = L + L.T
        A = apar.mix_matrix(rng.random(6), L)
        assert np.allclose(A.sum(axis=1), 1.0)
        assert A.min() >= 0


class TestObjective:
    def test_perfect_fit_no_reg(self):
        P = np.array([[1.0, 2.0]])
        Q = np.array([[3.0, 0.5]])
        W = P @ Q.T
        prob = apar.AparProblem.build(
            W, np.ones_like(W, dtype=bool), np.zeros((1, 1)), np.array([1.0]),
            alpha1=0.0, alpha2=0.0, lam=0.0,
        )
        assert apar.objective(P, Q, prob) == 0.0

    def test_single_cell_error_two(self):
        P = np.array([[1.0]])
        Q = np.array([[3.0]])
        W = np.array([[1.0]])  # error = 2
        prob = apar.AparProblem.build(
            W, np.ones_like(W, dtype=bool), np.zeros((1, 1)), np.array([1.0]),
            alpha1=0.0, alpha2=0.0, lam=0.0,
        )
        assert apar.objective(P, Q, prob) == pytest.approx(2.0)

    def test_equal_rows_kill_personality_term(self):
        P = np.array([[1.0, 2.0], [1.0, 2.0]])
        Q = np.array([[1.0, 1.0]])
        L = np.array([[0, 1], [1, 0]], dtype=float)
        W = np.zeros((2, 1))
        mask = np.zeros_like(W, dtype=bool)
        with_lam = apar.AparProblem.build(W, mask, L, np.ones(2), 0.0, 0.0, lam=5.0)
        without = apar.AparProblem.build(W, mask, L, np.ones(2), 0.0, 0.0, lam=0.0)
        assert apar.objective(P, Q, with_lam) == apar.objective(P, Q, without)

    def test_brute_force_oracle(self):
        rng = make_rng(4)
        P = rng.random((3, 2)) + 0.1
        Q = rng.random((4, 2)) + 0.1
        W = rng.random((3, 4)) * 4 + 1
        mask = rng.random((3, 4)) < 0.5
        L = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        gam = np.array([0.5, 0.5, 1.0])
        a1, a2, lam = 0.07, 0.03, 0.2
        prob = apar.AparProblem.build(W, mask, L, gam, a1, a2, lam)

        A = apar.mix_matrix(gam, L)
        total = 0.0
        for i in range(3):
            for j in range(4):
                if mask[i, j]:
                    pred = sum(A[i, k] * (P[k] @ Q[j]) for k in range(3))
                    total += 0.5 * (pred - W[i, j]) ** 2
        total += a1 * (P**2).sum() + a2 * (Q**2).sum()
        for j in range(3):
            for jp in range(3):
                total += 0.5 * lam * L[j, jp] * ((P[j] - P[jp]) ** 2).sum()
        assert apar.objective(P, Q, prob) == pytest.approx(total, abs=1e-10)


class TestLaplacianIdentity:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_trace_equals_pairwise_sum(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(2, 7))
        L = (rng.random((n, n)) < 0.5).astype(float)
        L = np.triu(L, 1)
        L = L + L.T
        P = rng.normal(size=(n, 3))
        Y = apar.laplacian(L)
        trace_form = float(np.trace(P.T @ Y @ P))
        pairwise = 0.5 * sum(
            L[j, jp] * ((P[j] - P[jp]) ** 2).sum()
            for j in range(n)
            for jp in range(n)
        )
        assert abs(trace_form - pairwise) < 1e-8


def small_problem(seed=0, n_users=6, n_items=8, d=2, lam=0.1):
    rng = make_rng(seed)
    P0 = rng.uniform(0.5, 1.5, size=(n_users, d))
    Q0 = rng.uniform(0.5, 1.5, size=(n_items, d))
    W = P0 @ Q0.T
    mask = rng.random((n_users, n_items)) < 0.6
    half = n_users // 2
    L = np.zeros((n_users, n_users))
    for blk in (range(half), range(half, n_users)):
        for a in blk:
            for b in blk:
                if a != b:
                    L[a, b] = 1.0
    prob = apar.AparProblem.build(
        W, mask, L, np.full(n_users, 0.5), alpha1=0.01, alpha2=0.01, lam=lam
    )
    return prob


class TestMultiplicativeStep:
    def test_perfect_fit_is_fixed_point(self):
        rng = make_rng(1)
        P = rng.uniform(0.5, 1.5, size=(4, 2))
        Q = rng.uniform(0.5, 1.5, size=(5, 2))
        W = P @ Q.T
        prob = apar.AparProblem.build(
            W, np.ones_like(W, dtype=bool), np.zeros((4, 4)), np.ones(4), 0.0, 0.0, 0.0
        )
        P2, Q2 = apar.multiplicative_step(P, Q, prob)
        assert np.allclose(P2, P, rtol=1e-9)
        assert np.allclose(Q2, Q, rtol=1e-9)

    def test_nonnegativity_preserved(self):
        prob = small_problem()
        rng = make_rng(2)
        P = 0.1 * (1.0 - rng.random((6, 2)))
        Q = 0.1 * (1.0 - rng.random((8, 2)))
        for _ in range(10):
            P, Q = apar.multiplicative_step(P, Q, prob)
            assert P.min() >= 0 and Q.min() >= 0

    def test_objective_drops_90_percent_in_50_steps(self):
        rng = make_rng(7)
        P0 = rng.uniform(0.5, 1.5, size=(20, 3))
        Q0 = rng.uniform(0.5, 1.5, size=(30, 3))
        W = P0 @ Q0.T
        mask = rng.random((20, 30)) < 0.4
        L = np.zeros((20, 20))
        prob = apar.AparProblem.build(W, mask, L, np.ones(20), 0.01, 0.01, 0.0)
        P = 0.1 * (1.0 - rng.random((20, 3)))
        Q = 0.1 * (1.0 - rng.random((30, 3)))
        start = apar.objective(P, Q, prob)
        prev = start
        for _ in range(50):
            P, Q, _used, cur = apar.guarded_step(P, Q, prob, prev)
            assert cur == apar.objective(P, Q, prob)
            assert cur <= prev + 1e-9
            prev = cur
        assert prev <= 0.1 * start

    def test_holding_position_returns_prev_objective(self):
        # no step can reach an objective below zero, so the step holds
        prob = small_problem()
        rng = make_rng(5)
        P = rng.random((6, 2))
        Q = rng.random((8, 2))
        P2, Q2, used, val = apar.guarded_step(P, Q, prob, -1.0)
        assert used and val == -1.0
        assert P2 is P and Q2 is Q

    def test_non_finite_rejected(self):
        prob = small_problem()
        P = np.full((6, 2), np.inf)
        Q = np.ones((8, 2))
        with pytest.raises(FloatingPointError):
            apar.guarded_step(P, Q, prob, np.inf)


class TestGradients:
    def test_reduces_to_mf_and_passes_grad_check(self):
        # lam=0, L=0, gamma=1 -> plain regularized MF
        rng = make_rng(3)
        W = rng.random((4, 5)) * 4 + 1
        mask = rng.random((4, 5)) < 0.7
        prob = apar.AparProblem.build(
            W, mask, np.zeros((4, 4)), np.ones(4), alpha1=0.05, alpha2=0.05, lam=0.0
        )
        P = rng.uniform(0.2, 1.0, size=(4, 3))
        Q = rng.uniform(0.2, 1.0, size=(5, 3))

        def f(params):
            val = apar.objective(params[0], params[1], prob)
            gP, gQ = apar.objective_grads(params[0], params[1], prob)
            return val, [gP, gQ]

        assert grad_check(f, [P, Q]) < 1e-4

    def test_full_model_grad_check(self):
        prob = small_problem(lam=0.3)
        rng = make_rng(9)
        P = rng.uniform(0.2, 1.0, size=(6, 2))
        Q = rng.uniform(0.2, 1.0, size=(8, 2))

        def f(params):
            val = apar.objective(params[0], params[1], prob)
            return val, list(apar.objective_grads(params[0], params[1], prob))

        assert grad_check(f, [P, Q]) < 1e-4


class TestTrainApar:
    def test_trace_monotone_and_converges(self):
        prob_seed = 0
        rng = make_rng(prob_seed)
        P0 = rng.uniform(0.5, 1.5, size=(10, 2))
        Q0 = rng.uniform(0.5, 1.5, size=(12, 2))
        W = P0 @ Q0.T
        mask = rng.random((10, 12)) < 0.6
        L = np.zeros((10, 10))
        cfg = apar.AparConfig(d=2, alpha1=0.01, alpha2=0.01, lam=0.0, seed=1,
                              gamma_override=1.0, max_iters=2000)
        state = apar.train_apar(W, mask, L, None, cfg)
        tr = np.array(state.trace)
        assert np.all(np.isfinite(tr))
        assert np.all(np.diff(tr) <= 1e-9)
        assert state.converged

    def test_trace_matches_recomputed_objective(self):
        # the trace holds the objective guarded_step accepted; recomputing
        # it after each step gives the same floats and the same factors
        rng = make_rng(4)
        W = rng.random((8, 9)) * 4 + 1
        mask = rng.random((8, 9)) < 0.6
        L = np.zeros((8, 8))
        L[:4, :4] = 1.0 - np.eye(4)
        gamma = np.full(8, 0.6)
        cfg = apar.AparConfig(d=3, lam=0.3, seed=2, max_iters=60, tol=1e-9)
        state = apar.train_apar(W, mask, L, gamma, cfg)

        prob = apar.AparProblem.build(W, mask, L, gamma, cfg.alpha1, cfg.alpha2, cfg.lam)
        init = make_rng(cfg.seed)
        P = 0.1 * (1.0 - init.random((8, cfg.d)))
        Q = 0.1 * (1.0 - init.random((9, cfg.d)))
        prev, trace = apar.objective(P, Q, prob), []
        for _ in range(len(state.trace)):
            P, Q, _used, _val = apar.guarded_step(P, Q, prob, prev)
            prev = apar.objective(P, Q, prob)
            trace.append(prev)
        assert state.trace == trace
        assert np.array_equal(state.P, P) and np.array_equal(state.Q, Q)

    def test_non_convergence_flagged(self):
        rng = make_rng(0)
        W = rng.random((5, 6)) * 4 + 1
        mask = np.ones_like(W, dtype=bool)
        cfg = apar.AparConfig(d=2, seed=0, max_iters=2, tol=0.0)
        state = apar.train_apar(W, mask, np.zeros((5, 5)), None, cfg)
        assert not state.converged
        assert len(state.trace) == 2

    def test_deterministic(self):
        rng = make_rng(0)
        W = rng.random((5, 6)) * 4 + 1
        mask = rng.random((5, 6)) < 0.7
        cfg = apar.AparConfig(d=2, seed=3, max_iters=20)
        a = apar.train_apar(W, mask, np.zeros((5, 5)), None, cfg)
        b = apar.train_apar(W, mask, np.zeros((5, 5)), None, cfg)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)

    def test_nonnegative_after_training(self):
        rng = make_rng(0)
        W = rng.random((6, 7)) * 4 + 1
        mask = rng.random((6, 7)) < 0.5
        L = np.zeros((6, 6))
        L[0, 1] = L[1, 0] = 1.0
        cfg = apar.AparConfig(d=3, lam=0.2, seed=2, max_iters=40)
        state = apar.train_apar(W, mask, L, np.full(6, 0.7), cfg)
        assert state.P.min() >= 0 and state.Q.min() >= 0

    def test_fit_ratings_wires_knowledge(self):
        from recsuite import data

        evs = [
            data.Interaction("u1", "a", 0, "rate", 4.0),
            data.Interaction("u1", "b", 1, "rate", 2.0),
            data.Interaction("u2", "a", 2, "rate", 5.0),
            data.Interaction("u2", "b", 3, "rate", 1.0),
        ]
        m = data.RatingMatrix.from_interactions(evs)
        cfg = apar.AparConfig(d=1, seed=0, max_iters=10, beta=0.25)
        state = apar.fit_ratings(m, np.zeros((2, 2)), {"u1": 0.5}, cfg)
        assert list(state.gamma) == [0.75, 0.25]  # beta + kl, kl=0 fallback
