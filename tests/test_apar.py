import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import apar_oracles as dense
from gradcheck import grad_check
import oracles
from recsuite import apar, personality
from recsuite.numeric import make_rng


class TestGamma:
    def test_plain_sum(self):
        assert apar.gamma_vector([0.0], 0.5).tolist() == [0.5]
        assert apar.gamma_vector([0.3], 0.0).tolist() == [0.3]

    def test_clamped_above(self):
        assert apar.gamma_vector([0.8], 0.5).tolist() == [1.0]

    def test_clamped_below(self):
        assert apar.gamma_vector([0.1], -0.2).tolist() == [0.0]
        assert apar.gamma_vector([0.1], np.nan).tolist() == [0.0]

    def test_vector_with_override(self):
        g = apar.gamma_vector(np.array([0.9, 0.1]), beta=0.5, override=0.5)
        assert g.tolist() == [0.5, 0.5]

    def test_vector_from_knowledge(self):
        g = apar.gamma_vector(np.array([0.9, 0.1, 0.0]), beta=0.5)
        assert g.tolist() == [1.0, 0.6, 0.5]  # level 0 leaves beta


def two_user_state(gamma, neighbors=True):
    P = np.array([[2.0, 0.0], [1.0, 0.0]])
    Q = np.array([[2.0, 0.0]])  # p0·q0 = 4, p1·q0 = 2
    groups = np.array([0, 0]) if neighbors else np.array([0, 1])
    return apar.AparState(
        P=P, Q=Q, gamma=np.array([gamma, gamma]), groups=groups, config=apar.AparConfig(d=2)
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
        st_ = apar.AparState(
            P=P, Q=Q, gamma=np.zeros(3), groups=np.zeros(3, dtype=int),
            config=apar.AparConfig(d=1),
        )
        assert st_.predict_rating(0, 0) == pytest.approx((3.0 + 5.0) / 2)


def mix_matrix(groups, gamma):
    """A itself, as the group kernel's product with the identity."""
    return apar.CliqueGraph(groups, gamma).mix(np.eye(len(groups)))


class TestMixMatrix:
    def test_pair_half(self):
        A = mix_matrix([0, 0], np.array([0.5, 0.5]))
        assert np.allclose(A, [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_row_is_identity(self):
        A = mix_matrix([0], np.array([0.3]))
        assert np.allclose(A, [[1.0]])

    def test_rows_sum_to_one(self):
        rng = make_rng(0)
        groups = rng.integers(0, 3, size=6)
        A = mix_matrix(groups, rng.random(6))
        assert np.allclose(A.sum(axis=1), 1.0)
        assert A.min() >= 0


class TestObjective:
    def test_perfect_fit_no_reg(self):
        P = np.array([[1.0, 2.0]])
        Q = np.array([[3.0, 0.5]])
        W = P @ Q.T
        prob = apar.AparProblem.build(
            W, np.ones_like(W, dtype=bool), np.array([0]), np.array([1.0]),
            alpha1=0.0, alpha2=0.0, lam=0.0,
        )
        assert apar.objective(P, Q, prob) == 0.0

    def test_single_cell_error_two(self):
        P = np.array([[1.0]])
        Q = np.array([[3.0]])
        W = np.array([[1.0]])  # error = 2
        prob = apar.AparProblem.build(
            W, np.ones_like(W, dtype=bool), np.array([0]), np.array([1.0]),
            alpha1=0.0, alpha2=0.0, lam=0.0,
        )
        assert apar.objective(P, Q, prob) == pytest.approx(2.0)

    def test_equal_rows_kill_personality_term(self):
        P = np.array([[1.0, 2.0], [1.0, 2.0]])
        Q = np.array([[1.0, 1.0]])
        groups = np.array([0, 0])
        W = np.zeros((2, 1))
        mask = np.zeros_like(W, dtype=bool)
        with_lam = apar.AparProblem.build(W, mask, groups, np.ones(2), 0.0, 0.0, lam=5.0)
        without = apar.AparProblem.build(W, mask, groups, np.ones(2), 0.0, 0.0, lam=0.0)
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
        prob = apar.AparProblem.build(W, mask, np.array([0, 0, 1]), gam, a1, a2, lam)

        A = dense.mix_matrix(gam, L)
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
        groups = rng.integers(0, n, size=n)
        L = dense.clique_matrix(groups)
        P = rng.normal(size=(n, 3))
        YP = apar.CliqueGraph(groups, np.ones(n)).laplacian(P)
        trace_form = float((P * YP).sum())
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
    groups = np.arange(n_users) >= n_users // 2  # two cliques
    prob = apar.AparProblem.build(
        W, mask, groups, np.full(n_users, 0.5), alpha1=0.01, alpha2=0.01, lam=lam
    )
    return prob


class TestMultiplicativeStep:
    def test_perfect_fit_is_fixed_point(self):
        rng = make_rng(1)
        P = rng.uniform(0.5, 1.5, size=(4, 2))
        Q = rng.uniform(0.5, 1.5, size=(5, 2))
        W = P @ Q.T
        prob = apar.AparProblem.build(
            W, np.ones_like(W, dtype=bool), np.arange(4), np.ones(4), 0.0, 0.0, 0.0
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
        prob = apar.AparProblem.build(W, mask, np.arange(20), np.ones(20), 0.01, 0.01, 0.0)
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
        # lam=0, every user alone, gamma=1 -> plain regularized MF
        rng = make_rng(3)
        W = rng.random((4, 5)) * 4 + 1
        mask = rng.random((4, 5)) < 0.7
        prob = apar.AparProblem.build(
            W, mask, np.arange(4), np.ones(4), alpha1=0.05, alpha2=0.05, lam=0.0
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
        cfg = apar.AparConfig(d=2, alpha1=0.01, alpha2=0.01, lam=0.0, seed=1,
                              gamma_override=1.0, max_iters=2000)
        gamma = apar.gamma_vector(np.zeros(10), cfg.beta, cfg.gamma_override)
        state = apar.train_apar(W, mask, np.arange(10), gamma, cfg)
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
        groups = np.array([0, 0, 0, 0, 4, 5, 6, 7])  # one clique of four
        gamma = np.full(8, 0.6)
        cfg = apar.AparConfig(d=3, lam=0.3, seed=2, max_iters=60, tol=1e-9)
        state = apar.train_apar(W, mask, groups, gamma, cfg)

        prob = apar.AparProblem.build(W, mask, groups, gamma, cfg.alpha1, cfg.alpha2, cfg.lam)
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
        gamma = apar.gamma_vector(np.zeros(5), cfg.beta, cfg.gamma_override)
        state = apar.train_apar(W, mask, np.arange(5), gamma, cfg)
        assert not state.converged
        assert len(state.trace) == 2

    def test_deterministic(self):
        rng = make_rng(0)
        W = rng.random((5, 6)) * 4 + 1
        mask = rng.random((5, 6)) < 0.7
        cfg = apar.AparConfig(d=2, seed=3, max_iters=20)
        gamma = apar.gamma_vector(np.zeros(5), cfg.beta, cfg.gamma_override)
        a = apar.train_apar(W, mask, np.arange(5), gamma, cfg)
        b = apar.train_apar(W, mask, np.arange(5), gamma, cfg)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)

    def test_nonnegative_after_training(self):
        rng = make_rng(0)
        W = rng.random((6, 7)) * 4 + 1
        mask = rng.random((6, 7)) < 0.5
        groups = np.array([0, 0, 2, 3, 4, 5])
        cfg = apar.AparConfig(d=3, lam=0.2, seed=2, max_iters=40)
        state = apar.train_apar(W, mask, groups, np.full(6, 0.7), cfg)
        assert state.P.min() >= 0 and state.Q.min() >= 0

    def test_fit_ratings_wires_knowledge(self):
        from recsuite import data

        evs = [
            oracles.Interaction("u1", "a", 0, "rate", 4.0),
            oracles.Interaction("u1", "b", 1, "rate", 2.0),
            oracles.Interaction("u2", "a", 2, "rate", 5.0),
            oracles.Interaction("u2", "b", 3, "rate", 1.0),
        ]
        m = data.RatingMatrix.from_interactions(oracles.from_rows(evs))
        cfg = apar.AparConfig(d=1, seed=0, max_iters=10, beta=0.25)
        state = apar.fit_ratings(m, np.arange(2), np.array([0.5, 0.0]), cfg)
        assert list(state.gamma) == [0.75, 0.25]  # beta + kl


@st.composite
def group_problems(draw):
    """A random problem over a clique partition with singletons and unprofiled users.

    Users draw a dominant trait or none (no review text); trait_groups turns
    that into labels and the dense oracle into L. Returns (groups, L, W,
    mask, gamma, alpha1, alpha2, lam, P, Q).
    """
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=3))
    dominants = draw(st.lists(st.sampled_from("OCEN-"), min_size=n, max_size=n))
    gamma = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    lam = draw(st.sampled_from([0.0, 0.3]))
    rng = make_rng(draw(st.integers(min_value=0, max_value=10_000)))

    corpus, profiles = oracles.with_dominants(dominants)
    groups = personality.trait_groups(corpus, profiles, corpus.users)
    L = dense.similarity(oracles.profiles_of(corpus.users, profiles), corpus.users)
    W = rng.uniform(1.0, 5.0, size=(n, m))
    mask = rng.random((n, m)) < 0.6
    P = rng.uniform(0.1, 1.0, size=(n, d))
    Q = rng.uniform(0.1, 1.0, size=(m, d))
    return groups, L, W, mask, gamma, 0.05, 0.02, lam, P, Q


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class TestGroupKernelsMatchDense:
    @given(group_problems())
    def test_objective_and_gradients(self, case):
        groups, L, W, mask, gamma, a1, a2, lam, P, Q = case
        prob = apar.AparProblem.build(W, mask, groups, gamma, a1, a2, lam)
        ref = dense.DenseProblem.build(W, mask, L, gamma, a1, a2, lam)
        close(apar.objective(P, Q, prob), dense.objective(P, Q, ref))
        for got, want in zip(apar.objective_grads(P, Q, prob),
                             dense.objective_grads(P, Q, ref)):
            close(got, want)

    @given(group_problems())
    def test_multiplicative_step(self, case):
        groups, L, W, mask, gamma, a1, a2, lam, P, Q = case
        prob = apar.AparProblem.build(W, mask, groups, gamma, a1, a2, lam)
        ref = dense.DenseProblem.build(W, mask, L, gamma, a1, a2, lam)
        for got, want in zip(apar.multiplicative_step(P, Q, prob),
                             dense.multiplicative_step(P, Q, ref)):
            close(got, want)

    @given(group_problems())
    def test_predictions(self, case):
        groups, L, _W, _mask, gamma, _a1, _a2, _lam, P, Q = case
        state = apar.AparState(P=P, Q=Q, gamma=gamma, groups=groups,
                               config=apar.AparConfig(d=P.shape[1]))
        for u in range(P.shape[0]):
            want = dense.blend_row(P, L, gamma, u) @ Q.T
            close(state.score_items(u, [], []), want)
            close(state.predict_rating(u, Q.shape[0] - 1), want[-1])

    def test_group_problem_grad_check(self):
        rng = make_rng(11)
        groups = np.array([0, 0, 0, 1, 2, 2, 6])
        W = rng.uniform(1.0, 5.0, size=(7, 5))
        mask = rng.random((7, 5)) < 0.6
        prob = apar.AparProblem.build(W, mask, groups, rng.random(7), 0.03, 0.02, 0.4)
        P = rng.uniform(0.2, 1.0, size=(7, 3))
        Q = rng.uniform(0.2, 1.0, size=(5, 3))

        def f(params):
            val = apar.objective(params[0], params[1], prob)
            return val, list(apar.objective_grads(params[0], params[1], prob))

        assert grad_check(f, [P, Q]) < 1e-4


def workspace_case(seed, n=12, m=10, d=3, low=1.0):
    """(W, mask, groups, gamma, config) of a 50-step run; ratings below 0 make
    the multiplicative update overshoot, so the guard falls back."""
    rng = make_rng(seed)
    W = rng.uniform(low, 5.0, size=(n, m))
    mask = rng.random((n, m)) < 0.6
    groups = rng.integers(0, 3, size=n)
    cfg = apar.AparConfig(d=d, lam=0.3, seed=seed, max_iters=50, tol=0.0)
    return W, mask, groups, rng.random(n), cfg


class TestWorkspace:
    """The step that writes into AparProblem's buffers, against the allocating one."""

    # seed 2 takes multiplicative steps only, seed 4 accepts one projected-
    # gradient step, seed 7 holds its position from some step on
    @pytest.mark.parametrize("seed, low, fell_back, held", [
        (2, 1.0, False, False), (4, -2.0, True, False), (7, -2.0, True, True)])
    def test_fifty_steps_equal_the_allocating_loop_byte_for_byte(self, seed, low, fell_back,
                                                                  held):
        W, mask, groups, gamma, cfg = workspace_case(seed, low=low)
        state = apar.train_apar(W, mask, groups, gamma, cfg)
        P, Q, trace, fallbacks = dense.group_train(W, mask, groups, gamma, cfg)
        assert len(state.trace) == 50
        assert state.P.tobytes() == P.tobytes() and state.Q.tobytes() == Q.tobytes()
        assert state.trace == trace
        assert state.fallback_steps == fallbacks
        assert (fallbacks > 0, any(a == b for a, b in zip(trace, trace[1:]))) == (fell_back,
                                                                                  held)

    def test_product_left_in_fitted_is_the_one_at_the_returned_factors(self):
        W, mask, groups, gamma, cfg = workspace_case(7, low=-2.0)
        prob = apar.AparProblem.build(W, mask, groups, gamma, cfg.alpha1, cfg.alpha2, cfg.lam)
        rng = make_rng(0)
        P, Q = rng.random((12, 3)), rng.random((10, 3))
        prev = apar.objective(P, Q, prob)
        for forced in (None, -1.0, None, -1.0):  # -1.0: no step can get there
            P, Q, _used, prev = apar.guarded_step(
                P, Q, prob, prev if forced is None else forced, prob.fitted)
            want = prob.mask * (prob.graph.mix(P) @ Q.T)
            assert prob.fitted.tobytes() == want.tobytes()

    def test_a_step_takes_three_group_sums(self):
        # one for each mix_t, one for P2; the objective and the next step
        # reuse the sums of P2
        W, mask, groups, gamma, cfg = workspace_case(2)
        prob = apar.AparProblem.build(W, mask, groups, gamma, cfg.alpha1, cfg.alpha2, cfg.lam)
        rng = make_rng(3)
        P, Q = 0.1 * rng.random((12, 3)), 0.1 * rng.random((10, 3))
        prev = apar.objective(P, Q, prob)
        sums = apar.CliqueGraph.sums
        with mock.patch.object(apar.CliqueGraph, "sums", autospec=True,
                               side_effect=sums) as counted:
            for _ in range(5):
                P, Q, used, prev = apar.guarded_step(P, Q, prob, prev, prob.fitted,
                                                     prob.sums)
                assert not used
        assert counted.call_count == 15
        assert prob.sums.tobytes() == prob.graph.sums(P).tobytes()

    def test_a_step_allocates_no_users_by_items_array(self):
        n, m, d = 200, 150, 2
        W, mask, groups, gamma, cfg = workspace_case(5, n=n, m=m, d=d)
        prob = apar.AparProblem.build(W, mask, groups, gamma, cfg.alpha1, cfg.alpha2, cfg.lam)
        rng = make_rng(1)
        P, Q = 0.1 * rng.random((n, d)), 0.1 * rng.random((m, d))
        prev = apar.objective(P, Q, prob)
        P, Q, _used, prev = apar.guarded_step(P, Q, prob, prev, prob.fitted)
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                P, Q, used, prev = apar.guarded_step(P, Q, prob, prev, prob.fitted)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert not used
                assert peak < W.nbytes // 2
        finally:
            tracemalloc.stop()
