import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradcheck import grad_check
import loop_oracles
import oracles
from recsuite import baselines, data
from recsuite.numeric import make_rng


def sessions_of(counts, items=None):
    """One user, one session per item occurrence, for popularity fixtures."""
    out = []
    t = 0
    for item, c in counts.items():
        for _ in range(c):
            out.append(data.Session(user="u", t=t, day=t, items=[item]))
            t += 1
    return oracles.sessions_of(out, items=items)


class TestTop:
    def test_counts_rank_a_first(self):
        idx = {"a": 0, "b": 1}
        s = baselines.top_scorer(sessions_of({"a": 3, "b": 1}, list(idx)), 2)
        order = oracles.rank_items(s.score_items(0, [], []))
        assert [list(idx)[i] for i in order] == ["a", "b"]

    def test_tie_breaks_by_index_then_leader_flips(self):
        idx = {"a": 0, "b": 1}
        tied = baselines.top_scorer(sessions_of({"a": 3, "b": 3}, list(idx)), 2)
        assert list(oracles.rank_items(tied.score_items(0, [], []))) == [0, 1]
        ahead = baselines.top_scorer(sessions_of({"a": 3, "b": 4}, list(idx)), 2)
        assert list(oracles.rank_items(ahead.score_items(0, [], []))) == [1, 0]

    def test_unseen_item_scores_zero(self):
        s = baselines.top_scorer(sessions_of({"a": 2}, ["a", "b"]), 2)
        assert s.score_items(0, [], [])[1] == 0.0

    def test_counts_duplicate_within_session(self):
        ses = oracles.sessions_of([data.Session(user="u", t=0, day=0, items=["a", "a", "b"])])
        s = baselines.top_scorer(ses, 2)
        assert list(s.score_items(0, [], [])) == [2.0, 1.0]

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
    def test_same_ranking_for_every_user(self, u1, u2):
        idx = {"a": 0, "b": 1, "c": 2}
        s = baselines.top_scorer(sessions_of({"a": 5, "b": 2, "c": 7}, list(idx)), 3)
        r1 = list(oracles.rank_items(s.score_items(u1, [], [])))
        r2 = list(oracles.rank_items(s.score_items(u2, [], ["a"])))
        assert r1 == r2


class TestRandom:
    def test_same_seed_same_ranking(self):
        a = baselines.RandomScorer(n_items=30, seed=7).score_items(0, [], [])
        b = baselines.RandomScorer(n_items=30, seed=7).score_items(0, [], [])
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = baselines.RandomScorer(n_items=30, seed=1).score_items(0, [], [])
        b = baselines.RandomScorer(n_items=30, seed=2).score_items(0, [], [])
        assert not np.array_equal(a, b)

    def test_null_auc_near_half(self):
        s = baselines.RandomScorer(n_items=2, seed=0)
        wins = 0.0
        n_pairs = 2000
        for _ in range(n_pairs):
            pos, neg = s.score_items(0, [], [])
            wins += 1.0 if pos > neg else (0.5 if pos == neg else 0.0)
        assert 0.48 <= wins / n_pairs <= 0.52


def ratings_of(triplets, n_users=3, n_items=3):
    """(user, item, rating) index triplets as `data.Ratings` over n_users
    users and n_items items."""
    user, item, value = (np.array(col) for col in zip(*triplets)) if triplets else [
        np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)]
    return data.Ratings([f"u{u}" for u in range(n_users)], [f"i{i}" for i in range(n_items)],
                        user, item, value.astype(np.float64))


def rating_triplets():
    # (user, item, rating) indices; user 2 and item 2 have no rating
    return ratings_of([(0, 0, 4.0), (0, 1, 2.0), (1, 0, 5.0)])


class TestMeans:
    def test_user_mean_everywhere(self):
        p = baselines.user_mean(rating_triplets())
        assert p.predict_rating(0, 0) == 3.0
        assert p.predict_rating(0, 2) == 3.0  # constant per user

    def test_new_user_gets_global_mean(self):
        p = baselines.user_mean(rating_triplets())
        assert p.predict_rating(2, 0) == pytest.approx((4 + 2 + 5) / 3)

    def test_item_mean(self):
        p = baselines.item_mean(rating_triplets())
        assert p.predict_rating(2, 0) == pytest.approx(4.5)
        assert p.predict_rating(0, 1) == 2.0
        assert p.predict_rating(0, 2) == pytest.approx((4 + 2 + 5) / 3)

    def test_single_rating_everywhere_five(self):
        p = baselines.user_mean(ratings_of([(0, 0, 5.0)], n_users=4))
        assert p.predict_rating(0, 0) == 5.0
        assert p.predict_rating(3, 2) == 5.0

    def test_empty_ratings_rejected(self):
        with pytest.raises(ValueError):
            baselines.user_mean(ratings_of([]))

    def test_batched_predictions_are_the_one_pair_ones(self):
        ratings = rating_triplets()
        users, items = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
        for p in (baselines.user_mean(ratings), baselines.item_mean(ratings)):
            assert p.predict_ratings(users, items).tolist() == [
                p.predict_rating(u, i) for u, i in zip(users.tolist(), items.tolist())]

    def test_code_outside_the_table_is_an_index_error(self):
        with pytest.raises(IndexError):
            baselines.user_mean(rating_triplets()).predict_rating(3, 0)


RATING_TRIPLETS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7),
                                     st.floats(1.0, 5.0)), min_size=1, max_size=40)


@given(RATING_TRIPLETS)
def test_means_equal_the_per_rating_loop_bit_for_bit(triplets):
    ratings = ratings_of(triplets, n_users=6, n_items=8)
    for pos, by, fit in ((0, "user", baselines.user_mean), (1, "item", baselines.item_mean)):
        want = oracles.mean_predictor(triplets, pos, by)
        got = fit(ratings)
        assert got.by == by and got.means.shape == (6 if by == "user" else 8,)
        for code, mean in enumerate(got.means.tolist()):
            assert mean == want.table.get(code, want.global_mean)


class TestBprMath:
    def test_loss_hand_value(self):
        # x = p·(qi - qj) = 0 -> -ln sigma(0) = ln 2; no reg
        P = np.array([[1.0, 0.0]])
        Q = np.array([[0.5, 0.0], [0.5, 0.0]])
        loss, _ = oracles.bpr_loss_and_grad(P, Q, [(0, 0, 1)], l2=0.0)
        assert loss == pytest.approx(np.log(2.0))

    def test_grad_check_d5(self):
        rng = make_rng(3)
        P = rng.normal(0, 0.5, size=(3, 5))
        Q = rng.normal(0, 0.5, size=(4, 5))
        triples = [(0, 1, 2), (1, 0, 3), (2, 2, 1), (0, 3, 0)]

        def f(params):
            return oracles.bpr_loss_and_grad(params[0], params[1], triples, l2=0.05)

        assert grad_check(f, [P.copy(), Q.copy()]) < 1e-4

    def test_extreme_logit_finite(self):
        P = np.array([[50.0]])
        Q = np.array([[1.0], [-1.0]])
        loss, grads = oracles.bpr_loss_and_grad(P, Q, [(0, 1, 0)], l2=0.0)
        assert np.isfinite(loss) and loss == pytest.approx(100.0, rel=1e-6)
        assert all(np.all(np.isfinite(g)) for g in grads)


def two_block_pairs(rng, n_users=20, n_items=20, per_user=6):
    """Users in block 0 consume items 0..9, block 1 items 10..19."""
    pairs = []
    for u in range(n_users):
        lo = 0 if u < n_users // 2 else n_items // 2
        picks = rng.choice(np.arange(lo, lo + n_items // 2), size=per_user, replace=False)
        pairs.extend((u, int(i)) for i in picks)
    return pairs


def bpr_inputs(pairs, n_users=20, n_items=20):
    """(split, dataset) whose train sessions hold `pairs` in order, one pair each.

    User u and item i keep index u and i, so the trainer sees the pairs as
    given.
    """
    users = [f"u{u}" for u in range(n_users)]
    items = [f"i{i}" for i in range(n_items)]
    train = oracles.sessions_of([
        data.Session(user=users[u], t=t, day=t, items=[items[i]])
        for t, (u, i) in enumerate(pairs)
    ], users, items)
    ds = data.Dataset(users=users, items=items, sessions=train)
    return data.Split(train=train, test=[], policy="random-80-20"), ds


class TestBprTraining:
    def test_zero_lr_leaves_parameters(self):
        cfg = baselines.BprConfig(d=4, lr=0.0, epochs=3, seed=1)
        pairs = two_block_pairs(make_rng(0))
        st0 = baselines.train_bpr(*bpr_inputs(pairs), cfg)
        init = baselines.init_bpr(20, 20, cfg)
        assert np.array_equal(st0.P, init.P) and np.array_equal(st0.Q, init.Q)

    def test_two_block_auc(self):
        rng = make_rng(0)
        pairs = two_block_pairs(rng)
        cfg = baselines.BprConfig(d=8, lr=0.1, l2=0.01, epochs=20, seed=5)
        state = baselines.train_bpr(*bpr_inputs(pairs), cfg)
        seen = {}
        for u, i in pairs:
            seen.setdefault(u, set()).add(i)
        aucs = []
        for u in range(20):
            lo = 0 if u < 10 else 10
            own = [i for i in range(lo, lo + 10) if i not in seen[u]]
            other = [i for i in range(20) if not lo <= i < lo + 10]
            scores = state.score_items(u, [], [])
            aucs.append(oracles.auc(scores[own], scores[other]))
        assert np.mean(aucs) >= 0.9
        assert len(state.trace) == 20
        assert state.trace[-1] < state.trace[0]

    def test_deterministic(self):
        pairs = two_block_pairs(make_rng(0))
        cfg = baselines.BprConfig(d=4, lr=0.05, epochs=2, seed=9)
        a = baselines.train_bpr(*bpr_inputs(pairs), cfg)
        b = baselines.train_bpr(*bpr_inputs(pairs), cfg)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)

    def test_divergence_aborts(self):
        pairs = two_block_pairs(make_rng(0))
        cfg = baselines.BprConfig(d=4, lr=1e9, epochs=5, seed=1)
        with pytest.raises(FloatingPointError):
            baselines.train_bpr(*bpr_inputs(pairs), cfg)

    def test_equals_per_pair_loop_oracle(self):
        pairs = two_block_pairs(make_rng(0))
        cfg = baselines.BprConfig(d=8, lr=0.1, l2=0.01, epochs=5, seed=5)
        got = baselines.train_bpr(*bpr_inputs(pairs), cfg)
        want = loop_oracles.train_bpr(pairs, 20, 20, cfg)
        assert np.array_equal(got.P, want.P) and np.array_equal(got.Q, want.Q)
        assert got.trace == want.trace and len(got.trace) == 5

    @given(st.data(), st.integers(1, 3), st.integers(2, 5), st.integers(0, 1000),
           st.sampled_from([0.05, 0.8]))
    def test_waves_equal_per_pair_loop_oracle(self, draw, n_users, n_items, seed, lr):
        # so few rows that most pairs share one with an earlier pair
        pairs = draw.draw(st.lists(st.tuples(st.integers(0, n_users - 1),
                                             st.integers(0, n_items - 1)),
                                   min_size=1, max_size=40))
        cfg = baselines.BprConfig(d=3, lr=lr, l2=0.01, epochs=3, seed=seed)
        got = baselines.train_bpr(*bpr_inputs(pairs, n_users, n_items), cfg)
        want = loop_oracles.train_bpr(pairs, n_users, n_items, cfg)
        assert np.array_equal(got.P, want.P) and np.array_equal(got.Q, want.Q)
        assert got.trace == want.trace

    def test_waves_share_no_row(self):
        users, pos, neg = [0, 1, 0, 2, 1, 2], [3, 4, 5, 3, 3, 0], [0, 1, 2, 1, 5, 4]
        waves = baselines._waves(users, pos, neg, 3, 6)
        assert waves.tolist() == [0, 0, 1, 1, 2, 2]
        for w in set(waves.tolist()):
            at = np.flatnonzero(waves == w)
            items = [pos[n] for n in at] + [neg[n] for n in at]
            assert len({users[n] for n in at}) == len(at) and len(set(items)) == len(items)

    def test_ranking_invariant_under_rotation(self):
        rng = make_rng(11)
        P = rng.normal(size=(6, 4))
        Q = rng.normal(size=(15, 4))
        O, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        cfg = baselines.BprConfig(d=4)
        base = baselines.BprState(P=P, Q=Q, config=cfg)
        spun = baselines.BprState(P=P @ O, Q=Q @ O, config=cfg)
        for u in range(6):
            s0 = base.score_items(u, [], [])
            s1 = spun.score_items(u, [], [])
            assert np.allclose(s0, s1, atol=1e-10)
            assert list(oracles.rank_items(s0)) == list(oracles.rank_items(s1))
