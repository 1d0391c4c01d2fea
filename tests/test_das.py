import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import grad_check
import loop_oracles
import oracles
from recsuite import das, data, metrics, minibatch
from recsuite.numeric import make_rng, pooled_attention, sigmoid


def zero_state(k=2, n_items=3, n_users=2, **cfg_kwargs):
    cfg = das.DasConfig(k=k, **cfg_kwargs)
    return das.DasState(
        W1=np.zeros((k, n_items)),
        W2=np.zeros((k, n_users)),
        w_alpha=np.zeros(k),
        w_beta=np.zeros(k),
        W=np.zeros((k, 2 * k)),
        b=np.zeros(k),
        Wout=np.zeros((n_items, 2 * k)),
        bout=np.zeros(n_items),
        config=cfg,
    )


class TestEmbed:
    """Item embeddings are sigmoid-ed columns of W1, read by score_items."""

    def test_zero_column_is_half(self):
        st_ = zero_state()
        st_.W[:, 2:] = np.eye(2)  # mixture passes the short-term vector through
        st_.Wout[0, 0] = st_.Wout[1, 1] = 1.0
        assert np.allclose(st_.score_items(0, [], [1]), [0.5, 0.5, 0.0])

    def test_unknown_item(self):
        st_ = zero_state()
        with pytest.raises(IndexError):
            st_.score_items(0, [], [99])


def attend(H, w):
    """Attention pooling of H's columns by query w, as `das.forward` runs it."""
    pooled, alpha = pooled_attention(H.T[None], w[None], np.ones((1, H.shape[1]), dtype=bool))
    return pooled[0], alpha[0]


class TestAttend:
    def test_single_column(self):
        H = np.array([[0.3], [0.9]])
        u, w = attend(H, np.array([5.0, -2.0]))
        assert np.allclose(w, [1.0])
        assert np.allclose(u, H[:, 0])

    def test_zero_scores_mean(self):
        H = np.array([[0.2, 0.8], [0.4, 0.6]])
        u, w = attend(H, np.zeros(2))
        assert np.allclose(w, [0.5, 0.5])
        assert np.allclose(u, H.mean(axis=1))

    def test_softmax_one_zero_oracle(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        u, w = attend(H, np.array([1.0, 0.0]))
        assert np.allclose(w, [0.73106, 0.26894], atol=1e-4)
        assert np.allclose(u, [0.73106, 0.26894], atol=1e-4)

    def test_duplicate_columns_split_weight(self):
        h = np.array([0.3, 0.7])
        H = np.column_stack([h, h])
        u, w = attend(H, np.array([1.0, -1.0]))
        assert np.allclose(w, [0.5, 0.5])
        assert np.allclose(u, h)

    @given(st.permutations(range(4)))
    def test_permutation_invariant(self, perm):
        rng = make_rng(8)
        H = rng.random((3, 4))
        w = rng.normal(size=3)
        u0, _ = attend(H, w)
        u1, _ = attend(H[:, list(perm)], w)
        assert np.allclose(u0, u1, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_weights_nonneg_sum_one(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(1, 6))
        H = rng.random((4, n))
        _, w = attend(H, rng.normal(size=4))
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-9


def mixture(state, long_items, short_items):
    """The mixture-layer half u_mix of `das.forward`'s z for one instance."""
    z, _ = das.forward(state, [0], [long_items], [short_items])
    return z[0, : state.config.k]


class TestMixture:
    def test_zero_weights_zero_vector(self):
        st_ = zero_state(k=3)
        assert np.allclose(mixture(st_, [0], [1]), 0.0)

    def test_identity_on_first_half(self):
        st_ = zero_state(k=2)
        st_.W[:, :2] = np.eye(2)
        st_.W1[:, 0] = [-0.4, 2.2]  # u_long = sigmoid of item 0's column
        out = mixture(st_, [0], [1])
        assert np.allclose(out, sigmoid(st_.W1[:, 0]))

    def test_relu_clips(self):
        st_ = zero_state(k=2)
        st_.b[:] = [-1.0, 2.0]
        assert np.allclose(mixture(st_, [], []), [0.0, 2.0])


class TestScoreAll:
    def test_constant_bias(self):
        st_ = zero_state(k=2, n_items=4)
        st_.bout[:] = 3.5
        scores = st_.score_items(0, [], [])
        assert scores.shape == (4,)
        assert np.allclose(scores, 3.5)

    def test_bias_shift_keeps_ranking(self):
        st_ = das.init_das(2, 6, das.DasConfig(k=3, seed=2))
        s0 = st_.score_items(0, [0, 1], [2])
        st_.bout += 10.0
        s1 = st_.score_items(0, [0, 1], [2])
        assert np.allclose(s1 - s0, 10.0)
        assert list(oracles.rank_items(s0)) == list(oracles.rank_items(s1))

    def test_empty_long_term_uses_zero_vector(self):
        st_ = das.init_das(2, 4, das.DasConfig(k=2, seed=3))
        scores = st_.score_items(1, [], [0, 2])
        u_short = loop_oracles.attend(sigmoid(st_.W1[:, [0, 2]]), st_.w_beta)[0]
        u_mix = np.maximum(st_.W @ np.concatenate([np.zeros(2), u_short]) + st_.b, 0.0)
        by_hand = st_.Wout @ np.concatenate([u_mix, sigmoid(st_.W2[:, 1])]) + st_.bout
        assert np.allclose(scores, by_hand)


def one_instance(user=0, G=(0, 1), S=(2,), pos=1, negs=(0,)):
    return loop_oracles.list_batch(
        users=[user], longs=[list(G)], shorts=[list(S)],
        positives=[pos], negatives=[list(negs)],
    )


class TestLoss:
    def test_all_zero_state_is_ln4(self):
        st_ = zero_state(k=2, n_items=3)
        loss, _ = das.loss_and_grads(st_, one_instance())
        assert loss == pytest.approx(np.log(4.0), abs=1e-9)
        assert loss == pytest.approx(1.386294, abs=1e-6)

    def test_perfect_separation_vanishes(self):
        st_ = zero_state(k=2, n_items=3)
        st_.bout[:] = [0.0, 40.0, -40.0]
        loss, _ = das.loss_and_grads(st_, one_instance(pos=1, negs=(2,)))
        assert loss < 1e-9

    def test_clamp_keeps_loss_finite(self):
        st_ = zero_state(k=2, n_items=3)
        st_.bout[:] = [0.0, -1e5, 1e5]
        loss, grads = das.loss_and_grads(st_, one_instance(pos=1, negs=(2,)))
        assert np.isfinite(loss)
        assert loss == pytest.approx(-2 * np.log(1e-12), rel=1e-6)
        assert all(np.all(np.isfinite(g)) for g in grads)

    def test_regularizer_added_once(self):
        # the kernel's loss is the data term; a training step adds the L2
        # terms once: of whole parameters, and of the table rows the batch
        # reads, so not of item 3
        st_ = zero_state(k=2, n_items=4, lam_uv=0.5, lam_at=0.25)
        st_.W1[:] = 2.0  # items 0-2 are read: sum of squares = 2*3*4 = 24
        st_.w_alpha[:] = [3.0, 0.0]  # sum sq 9
        scores = st_.score_items(0, [0, 1], [2])
        data_term = -np.log(sigmoid(scores[1])) - np.log(1 - sigmoid(scores[0]))
        loss, _ = das.loss_and_grads(st_, one_instance())
        assert loss == pytest.approx(data_term, rel=1e-12)
        step = minibatch.Sgd(st_, das.loss_and_grads, das.reads, 0.0, das.l2_weights(st_.config))
        assert step(one_instance()) == pytest.approx(data_term + 0.5 * 24 + 0.25 * 9, rel=1e-9)


class TestGradCheck:
    def _check(self, G, S):
        cfg = das.DasConfig(k=3, lam_uv=0.01, lam_at=0.02, seed=4)
        st_ = das.init_das(2, 6, cfg)
        # perturb dense layers away from tiny init so relu isn't near kinks
        rng = make_rng(11)
        st_.W += rng.normal(0, 0.3, size=st_.W.shape)
        st_.Wout += rng.normal(0, 0.3, size=st_.Wout.shape)
        batch = loop_oracles.list_batch(
            users=[1], longs=[list(G)], shorts=[list(S)],
            positives=[4], negatives=[[5, 0]],
        )

        def f(plist):
            probe = das.DasState(*plist, config=cfg)
            return loop_oracles.dense_objective(das, probe, batch)

        return grad_check(f, st_.params())

    def test_full_model(self):
        assert self._check(G=[0, 1], S=[2, 2, 3]) < 1e-4

    def test_empty_long_term(self):
        assert self._check(G=[], S=[3]) < 1e-4


class TestInstancePlumbing:
    def test_every_position_held_out(self):
        s = oracles.sessions_of([data.Session(user="u", t=0, day=0, items=["a", "b", "c"])])
        ds = data.Dataset.from_interactions(data.sessions_to_interactions(s))
        hist = data.Histories(ds.sessions, ds)
        q = np.arange(hist.sessions.item.size)
        batch = minibatch.batch_of(hist, q, np.zeros_like(q))  # no draw: u touched every item
        assert [(ds.items[t], [ds.items[j] for j in c])
                for _, _, c, t, _ in loop_oracles.instances(batch)] == [
            ("a", ["b", "c"]),
            ("b", ["a", "c"]),
            ("c", ["a", "b"]),
        ]

    def test_histories_union(self):
        ss = [
            data.Session(user="u", t=0, day=0, items=["a"]),
            data.Session(user="u", t=1, day=1, items=["b", "a"]),
            data.Session(user="v", t=0, day=0, items=["c"]),
        ]
        ds = data.Dataset.from_interactions(data.sessions_to_interactions(oracles.sessions_of(ss)))
        hist = data.Histories(oracles.sessions_of(ss, ds.users, ds.items), ds)
        assert {u: {ds.items[i] for i in hist.seen[hist.start[k]:hist.start[k + 1]]}
                for k, u in enumerate(ds.users)} == {"u": {"a", "b"}, "v": {"c"}}


def tiny_corpus(seed=0, n_items=8, n_users=4, spu=3):
    rng = make_rng(seed)
    trans = data.make_successor_map(n_items, rng)
    sessions = data.synth_sequential(n_items, n_users, spu, trans, 0.3, rng, session_len=3)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    sp = data.split(ds.sessions, "random-80-20", make_rng(1))
    return ds, sp


class TestTrain:
    def test_deterministic(self):
        ds, sp = tiny_corpus()
        cfg = das.DasConfig(k=4, lr=0.05, epochs=2, batch=10, seed=7)
        a = das.train_das(sp, ds, cfg)
        b = das.train_das(sp, ds, cfg)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_trace_per_epoch_and_descends(self):
        ds, sp = tiny_corpus()
        cfg = das.DasConfig(k=8, lr=0.1, epochs=6, batch=10, seed=3)
        state = das.train_das(sp, ds, cfg)
        assert len(state.trace) == 6
        assert all(np.isfinite(v) for v in state.trace)
        assert state.trace[-1] < state.trace[0]

    def test_divergence_aborts(self):
        ds, sp = tiny_corpus()
        cfg = das.DasConfig(k=4, lr=1e155, epochs=3, batch=5, seed=0)
        with pytest.raises(FloatingPointError):
            das.train_das(sp, ds, cfg)


class TestRecommend:
    """The recommend command ranks score_items with metrics.top_k."""

    def setup_method(self):
        self.state = das.init_das(3, 6, das.DasConfig(k=3, seed=5))

    def test_full_catalog_is_permutation(self):
        order = metrics.top_k(self.state.score_items(0, [0], [1]), 6)
        assert sorted(int(i) for i in order) == list(range(6))

    def test_top1_is_argmax(self):
        scores = self.state.score_items(0, [0], [1])
        assert metrics.top_k(scores, 1)[0] == int(np.argmax(scores))
