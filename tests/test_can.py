import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recsuite import can, data
from recsuite.numeric import grad_check, make_rng


def zeros_state(n_items=5, n_users=2, D=3, D_u=2, N_f=4, window=3, D_p=3, D_q=2, **kw):
    cfg = can.CanConfig(
        D=D, D_u=D_u, N_f=N_f, window=window, D_p=D_p, D_q=D_q, dropout=0.0, **kw
    )
    return can.CanState(
        E=np.zeros((n_items, D)),
        U=np.zeros((D_u, n_users)),
        K_w=np.zeros((N_f, window * D)),
        b_w=np.zeros(N_f),
        W1=np.zeros((D_p, D_u)),
        b1=np.zeros(D_p),
        W2=np.zeros((N_f, D_p)),
        b2=np.zeros(N_f),
        W3=np.zeros((D_q, D)),
        b3=np.zeros(D_q),
        W4=np.zeros((N_f, D_q)),
        b4=np.zeros(N_f),
        V_out=np.zeros((n_items, N_f)),
        config=cfg,
    )


class TestConv:
    def test_zero_kernel_gives_relu_bias(self):
        st_ = zeros_state()
        st_.b_w[:] = [-1.0, 0.0, 2.0, 0.5]
        C = can.conv_context(st_, [0, 1, 2])
        assert C.shape == (3, 4)
        assert np.allclose(C, [[0.0, 0.0, 2.0, 0.5]] * 3)

    def test_single_item_padding(self):
        # kernel block layout is [left | center | right]; pick each block out
        st_ = zeros_state(D=2, N_f=2, window=3)
        e = np.array([0.7, -0.3])
        st_.E[1] = e
        st_.K_w[:, 2:4] = np.eye(2)  # center block -> c = relu(e)
        C = can.conv_context(st_, [1])
        assert np.allclose(C, [np.maximum(e, 0.0)])
        st_.K_w[:] = 0.0
        st_.K_w[:, 0:2] = np.eye(2)  # left block sees zero padding
        assert np.allclose(can.conv_context(st_, [1]), 0.0)

    def test_neighbor_block_reads_neighbor(self):
        st_ = zeros_state(D=1, N_f=1, window=3)
        st_.E[0] = [2.0]
        st_.E[1] = [5.0]
        st_.K_w[0, 2] = 1.0  # right-neighbor block
        C = can.conv_context(st_, [0, 1])
        assert np.allclose(C.ravel(), [5.0, 0.0])  # item 0 sees item 1; item 1 sees pad

    def test_window_one_is_per_item_map(self):
        st_ = zeros_state(D=2, N_f=2, window=1)
        st_.K_w = np.eye(2)
        st_.b_w = np.array([0.1, -10.0])
        st_.E[0] = [0.5, 3.0]
        st_.E[1] = [-2.0, 1.0]
        C = can.conv_context(st_, [0, 1])
        expected = np.maximum(st_.E[[0, 1]] + st_.b_w, 0.0)
        assert np.allclose(C, expected)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            can.CanConfig(window=2).validate()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            can.conv_context(zeros_state(), [])


class TestPurposeVector:
    def test_zero_layer(self):
        assert np.allclose(can.purpose_vector(zeros_state(), 0), 0.0)

    def test_nonnegative(self):
        st_ = can.init_can(3, 6, can.CanConfig(D=4, D_u=3, N_f=4, D_p=3, D_q=3, seed=2))
        for u in range(3):
            assert np.all(can.purpose_vector(st_, u) >= 0)

    def test_unknown_user(self):
        with pytest.raises(IndexError):
            can.purpose_vector(zeros_state(n_users=2), 9)


class TestPurposeEncode:
    def test_single_vector_passthrough(self):
        st_ = zeros_state()
        C = np.array([[1.0, 2.0, 3.0, 4.0]])
        m, alpha = can.purpose_encode(st_, C, np.zeros(3))
        assert np.allclose(alpha, [1.0])
        assert np.allclose(m, C[0])

    def test_identical_rows_convexity(self):
        st_ = zeros_state()
        row = np.array([0.5, 0.1, 0.9, 0.3])
        C = np.tile(row, (4, 1))
        m, _ = can.purpose_encode(st_, C, np.ones(3))
        assert np.allclose(m, row)

    def test_convex_hull(self):
        st_ = can.init_can(2, 5, can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2, seed=0))
        rng = make_rng(1)
        C = rng.random((5, 4))
        m, alpha = can.purpose_encode(st_, C, can.purpose_vector(st_, 0))
        assert np.all(m >= C.min(axis=0) - 1e-12)
        assert np.all(m <= C.max(axis=0) + 1e-12)
        assert abs(alpha.sum() - 1.0) <= 1e-9 and np.all(alpha >= 0)

    def test_two_users_attend_differently(self):
        # nonzero W2 routes user embeddings into the attention logits
        st_ = zeros_state(n_users=2)
        st_.U[:, 0] = [3.0, 0.0]
        st_.U[:, 1] = [0.0, 3.0]
        st_.W1[:2, :2] = np.eye(2)
        st_.W2[:2, :2] = [[2.0, -2.0], [-2.0, 2.0]]
        C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        _, a0 = can.purpose_encode(st_, C, can.purpose_vector(st_, 0))
        _, a1 = can.purpose_encode(st_, C, can.purpose_vector(st_, 1))
        assert np.max(np.abs(a0 - a1)) > 0.05


class TestPreferenceEncode:
    def test_single_item(self):
        st_ = can.init_can(2, 6, can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2, seed=3))
        u, ap = can.preference_encode(st_, [4], np.ones(4))
        e = st_.E[4]
        pd = np.maximum(st_.W3 @ e + st_.b3, 0.0)
        q = np.tanh(st_.W4 @ pd + st_.b4)
        assert np.allclose(ap, [1.0])
        assert np.allclose(u, q)

    def test_zero_purpose_uniform_weights(self):
        st_ = can.init_can(2, 6, can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2, seed=4))
        _, ap = can.preference_encode(st_, [0, 2, 5], np.zeros(4))
        assert np.allclose(ap, 1 / 3)

    @given(st.permutations(range(4)))
    def test_permutation_invariant(self, perm):
        st_ = can.init_can(2, 6, can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2, seed=5))
        m = make_rng(0).random(4)
        items = [0, 2, 3, 5]
        u0, _ = can.preference_encode(st_, items, m)
        u1, _ = can.preference_encode(st_, [items[p] for p in perm], m)
        assert np.allclose(u0, u1, atol=1e-12)

    def test_weights_sum_to_one(self):
        st_ = can.init_can(2, 6, can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2, seed=6))
        _, ap = can.preference_encode(st_, [1, 1, 4], make_rng(2).random(4))
        assert abs(ap.sum() - 1.0) <= 1e-9 and np.all(ap >= 0)


class TestScore:
    def test_zero_user_vector(self):
        # with no history the user vector is zero, so every item scores 0
        st_ = zeros_state()
        st_.V_out[:] = make_rng(0).random(st_.V_out.shape)
        assert np.array_equal(st_.score_items(0, [], []), np.zeros(5))


def one_triple(user=0, G=(0, 1), S=(2,), pos=3, neg=4):
    return can.Batch(
        users=[user], longs=[list(G)], shorts=[list(S)],
        positives=[pos], negatives=[neg],
    )


class TestBprLoss:
    def test_equal_scores_ln2(self):
        st_ = zeros_state()
        loss, _ = can.loss_and_grads(st_, one_triple())
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert loss == pytest.approx(0.693147, abs=1e-6)

    def test_large_margin_vanishes(self):
        # lambdas off so only the data term is measured
        st_ = zeros_state(lam_uv=0.0, lam_a=0.0)
        st_.b4[:] = 1.0  # u = tanh(1) * ones
        st_.V_out[3, :] = 100.0
        st_.V_out[4, :] = -100.0
        loss, _ = can.loss_and_grads(st_, one_triple(pos=3, neg=4))
        assert loss < 1e-9

    def test_clamped_loss_finite(self):
        st_ = zeros_state(lam_uv=0.0, lam_a=0.0)
        st_.b4[:] = 1.0
        st_.V_out[3, :] = -1e8
        st_.V_out[4, :] = 1e8
        loss, grads = can.loss_and_grads(st_, one_triple(pos=3, neg=4))
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12), rel=1e-6)
        assert all(np.all(np.isfinite(g)) for g in grads)

    def test_regularizers_added_once(self):
        st_ = zeros_state(lam_uv=0.5, lam_a=0.25)
        st_.E[:] = 1.0  # 5*3 entries
        st_.W4[:] = 2.0  # 4*2 entries, sum sq 32
        loss, _ = can.loss_and_grads(st_, one_triple())
        # E != 0 changes the data term too, so compare against a direct forward
        x = st_.score_items(0, [0, 1], [2])
        data_term = np.log(1 + np.exp(-(x[3] - x[4])))
        assert loss == pytest.approx(data_term + 0.5 * 15 + 0.25 * 32, rel=1e-9)


def small_cfg(**kw):
    base = dict(D=6, D_u=3, N_f=6, window=3, D_p=4, D_q=5,
                dropout=0.0, lam_uv=0.01, lam_a=0.02, seed=9)
    base.update(kw)
    return can.CanConfig(**base)


class TestGradCheck:
    def _run(self, cfg, G=(0, 1, 2, 3), S=(4, 4, 5), pos=6, neg=7):
        st_ = can.init_can(2, 8, cfg)
        # perturb away from the tiny symmetric init: at init the attention
        # weights are near-uniform and several gradients sit at noise level,
        # where the finite-difference quotient is meaningless
        rng = make_rng(11)
        for p in st_.params():
            p += rng.normal(0, 0.3, size=p.shape)
        batch = can.Batch(
            users=[1], longs=[list(G)], shorts=[list(S)],
            positives=[pos], negatives=[neg],
        )

        def f(plist):
            probe = can.CanState.from_params(plist, cfg)
            return can.loss_and_grads(probe, batch)

        return grad_check(f, st_.params())

    def test_full_model(self):
        assert self._run(small_cfg()) < 1e-4

    def test_empty_long_term(self):
        assert self._run(small_cfg(), G=()) < 1e-4

    def test_tied_embeddings(self):
        assert self._run(small_cfg(N_f=6, tie_embeddings=True)) < 1e-4

    def test_purpose_only(self):
        assert self._run(small_cfg(disable_preference=True)) < 1e-4

    def test_preference_only(self):
        assert self._run(small_cfg(disable_purpose=True)) < 1e-4


class TestDropout:
    def test_inference_ignores_dropout_rate(self):
        a = can.init_can(3, 8, small_cfg(dropout=0.0, seed=1))
        b = can.CanState.from_params(a.params(), small_cfg(dropout=0.2, seed=1))
        sa = a.score_items(0, [0, 1, 2], [3])
        sb = b.score_items(0, [0, 1, 2], [3])
        assert np.allclose(sa, sb)

    def test_inverted_scaling_mean_one(self):
        rng = make_rng(0)
        m = can.dropout_mask(rng, (200, 50), 0.2)
        vals = np.unique(m)
        assert set(np.round(vals, 6)) <= {0.0, round(1 / 0.8, 6)}
        assert abs(m.mean() - 1.0) < 0.02

    def test_zero_rate_all_ones(self):
        rng = make_rng(0)
        assert np.all(can.dropout_mask(rng, (4, 4), 0.0) == 1.0)


def tiny_corpus(seed=0):
    rng = make_rng(seed)
    trans = data.make_successor_map(8, rng)
    sessions = data.synth_sequential(8, 4, 3, trans, 0.3, rng, session_len=3)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    sp = data.split(ds.sessions, "random-80-20", make_rng(1))
    return ds, sp


class TestTrain:
    def test_deterministic(self):
        ds, sp = tiny_corpus()
        cfg = small_cfg(D=4, N_f=4, D_u=2, D_p=3, D_q=3, lr=0.05, epochs=2,
                        batch=8, dropout=0.2, seed=11)
        a = can.train_can(sp, ds, cfg)
        b = can.train_can(sp, ds, cfg)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_trace_descends(self):
        ds, sp = tiny_corpus()
        cfg = small_cfg(D=4, N_f=4, D_u=2, D_p=3, D_q=3, lr=0.1, epochs=8,
                        batch=8, dropout=0.0, seed=2)
        state = can.train_can(sp, ds, cfg)
        assert len(state.trace) == 8
        assert all(np.isfinite(v) for v in state.trace)
        assert state.trace[-1] < state.trace[0]

    def test_divergence_aborts(self):
        ds, sp = tiny_corpus()
        cfg = small_cfg(D=4, N_f=4, D_u=2, D_p=3, D_q=3, lr=1e155, epochs=4, batch=4)
        with pytest.raises(FloatingPointError):
            can.train_can(sp, ds, cfg)

    def test_tied_embeddings_shared_table(self):
        ds, sp = tiny_corpus()
        cfg = small_cfg(D=4, N_f=4, D_u=2, D_p=3, D_q=3, lr=0.05, epochs=1,
                        batch=8, tie_embeddings=True)
        state = can.train_can(sp, ds, cfg)
        assert state.V_out is state.E
