"""Batched DAS and CAN kernels and the shared minibatch loop against loops.

`loop_oracles` holds the per-instance kernels, scorers and per-model
trainers the batched code replaced. Batching changes only the order of
floating-point sums, so kernels must agree to 1e-10, scores to 1e-12 and
two trained epochs to 1e-9.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import loop_oracles
from recsuite import can, das, data, minibatch
from recsuite.numeric import add_rows, make_rng

N_USERS, N_ITEMS = 3, 7


def assert_close(got, want, tol):
    loss, grads = got
    ref_loss, ref_grads = want
    assert abs(loss - ref_loss) <= tol * max(1.0, abs(ref_loss))
    assert len(grads) == len(ref_grads)
    for g, r in zip(grads, ref_grads):
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= tol * max(1.0, np.abs(r).max())


def perturbed(state, seed):
    rng = make_rng(seed)
    for p in state.params():
        p += rng.normal(0, 0.3, size=p.shape)
    return state


# small catalog and user set: duplicate items within an instance and the
# same user twice in a batch come up often
items = st.integers(0, N_ITEMS - 1)
item_lists = st.lists(items, max_size=5)


@st.composite
def batches(draw, negatives):
    n = draw(st.integers(1, 6))

    def per_instance(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return minibatch.Batch(
        users=per_instance(st.integers(0, N_USERS - 1)),
        longs=per_instance(item_lists),
        shorts=per_instance(item_lists),
        positives=per_instance(items),
        negatives=per_instance(negatives),
    )


EMPTY_LISTS = minibatch.Batch(
    users=[1, 1, 0], longs=[[], [], [2, 2]], shorts=[[], [3], []],
    positives=[4, 4, 0], negatives=[[5], [5, 5, 0], [4]],
)


@given(batches(st.lists(items, min_size=1, max_size=4)), st.integers(0, 1000))
@example(EMPTY_LISTS, 0)
def test_das_kernel_matches_loop(batch, seed):
    cfg = das.DasConfig(k=4, lam_uv=0.01, lam_at=0.02, seed=seed)
    state = perturbed(das.init_das(N_USERS, N_ITEMS, cfg), seed + 1)
    assert_close(das.loss_and_grads(state, batch),
                 loop_oracles.das_loss_and_grads(state, batch), 1e-10)


def test_das_kernel_takes_single_negatives():
    state = perturbed(das.init_das(N_USERS, N_ITEMS, das.DasConfig(k=3)), 2)
    as_lists = minibatch.Batch(users=[0, 2], longs=[[1], []], shorts=[[2, 3], [4]],
                               positives=[5, 6], negatives=[[0], [6]])
    as_ints = minibatch.Batch(**{**vars(as_lists), "negatives": [0, 6]})
    assert_close(das.loss_and_grads(state, as_ints),
                 das.loss_and_grads(state, as_lists), 0.0)


@given(batches(items), st.integers(0, 1000), st.sampled_from([1, 3, 5]),
       st.sampled_from([0.0, 0.3]))
@example(EMPTY_LISTS, 0, 3, 0.3)
@example(EMPTY_LISTS, 1, 3, 0.0)
def test_can_kernel_matches_loop(batch, seed, window, dropout):
    if isinstance(batch.negatives[0], list):  # the shared example carries DAS lists
        batch = minibatch.Batch(**{**vars(batch),
                                   "negatives": [n[0] for n in batch.negatives]})
    cfg = can.CanConfig(D=4, D_u=3, N_f=4, window=window, D_p=3, D_q=5, dropout=dropout,
                        lam_uv=0.01, lam_a=0.02, seed=seed)
    state = perturbed(can.init_can(N_USERS, N_ITEMS, cfg), seed + 1)
    # dropout masks: both kernels draw from equally seeded generators and
    # must leave them in the same state
    rng_a, rng_b = (make_rng(seed), make_rng(seed)) if dropout else (None, None)
    assert_close(can.loss_and_grads(state, batch, rng_a),
                 loop_oracles.can_loss_and_grads(state, batch, rng_b), 1e-10)
    if dropout:
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@given(st.integers(0, N_USERS - 1), item_lists, item_lists, st.integers(0, 1000),
       st.sampled_from([1, 3, 5]))
@example(0, [], [], 0, 3)
@example(2, [1, 1, 4], [], 1, 3)
@example(1, [], [3, 3], 2, 5)
def test_score_items_match_per_instance_oracle(user, longs, shorts, seed, window):
    def assert_scores(got, want):
        assert got.shape == (N_ITEMS,)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    das_state = perturbed(das.init_das(N_USERS, N_ITEMS, das.DasConfig(k=4, seed=seed)),
                          seed + 1)
    assert_scores(das_state.score_items(user, longs, shorts),
                  loop_oracles.das_scores(das_state, user, longs, shorts))
    cfg = can.CanConfig(D=4, D_u=3, N_f=4, window=window, D_p=3, D_q=5, dropout=0.2,
                        seed=seed)
    can_state = perturbed(can.init_can(N_USERS, N_ITEMS, cfg), seed + 1)
    assert_scores(can_state.score_items(user, longs, shorts),
                  loop_oracles.can_scores(can_state, user, longs, shorts))


def test_score_items_reject_out_of_range_indices():
    das_state = das.init_das(N_USERS, N_ITEMS, das.DasConfig(k=3))
    can_state = can.init_can(N_USERS, N_ITEMS, can.CanConfig(D=4, D_u=3, N_f=4, D_p=3, D_q=5))
    for state in (das_state, can_state):
        for user, longs, shorts in ((N_USERS, [0], [1]), (0, [N_ITEMS], [1]),
                                    (0, [0], [N_ITEMS])):
            with pytest.raises(IndexError):
                state.score_items(user, longs, shorts)


def test_one_dropout_draw_equals_per_instance_draws():
    whole = can.dropout_mask(make_rng(4), (7, 3), 0.4)
    rng = make_rng(4)
    parts = [can.dropout_mask(rng, (n, 3), 0.4) for n in (2, 0, 4, 1)]
    assert np.array_equal(whole, np.vstack(parts))


def test_pad_layout():
    idx, mask = minibatch.pad([[4, 4], [], [1, 2, 3]])
    assert idx.tolist() == [[4, 4, 0], [0, 0, 0], [1, 2, 3]]
    assert mask.tolist() == [[True, True, False], [False] * 3, [True] * 3]
    idx, mask = minibatch.pad([[], []])
    assert idx.shape == mask.shape == (2, 1) and not mask.any()


def test_kernels_overwrite_out_buffers():
    batch = minibatch.Batch(users=[0, 0], longs=[[1, 2], []], shorts=[[3], [3, 3]],
                            positives=[4, 5], negatives=[6, 4])
    das_state = perturbed(das.init_das(N_USERS, N_ITEMS, das.DasConfig(k=3)), 3)
    can_cfg = can.CanConfig(D=4, D_u=3, N_f=4, D_p=3, D_q=5, dropout=0.0)
    can_state = perturbed(can.init_can(N_USERS, N_ITEMS, can_cfg), 4)
    for kernel, state in ((das.loss_and_grads, das_state),
                          (lambda st, b, out=None: can.loss_and_grads(st, b, None, out),
                           can_state)):
        loss, grads = kernel(state, batch)
        stale = [np.full_like(g, np.nan) for g in grads]
        loss2, grads2 = kernel(state, batch, out=stale)
        assert loss2 == loss
        assert all(g2 is s for g2, s in zip(grads2, stale))
        assert all(np.array_equal(g2, g) for g2, g in zip(grads2, grads))


def test_add_rows_matches_add_at():
    rng = make_rng(6)
    index = np.array([3, 0, 3, 3, 1])
    for values in (rng.normal(size=(5, 2)), rng.normal(size=5)):
        got = rng.normal(size=(4,) + values.shape[1:])
        want = got.copy()
        add_rows(got, index, values)
        np.add.at(want, index, values)
        assert np.allclose(got, want, rtol=1e-15, atol=1e-15)
    untouched = np.ones((3, 2))
    add_rows(untouched, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    assert np.array_equal(untouched, np.ones((3, 2)))


# ---------------------------------------------------------------------------
# The shared loop consumes the generator exactly as the per-model trainers did


@pytest.fixture(scope="module")
def corpus():
    rng = make_rng(0)
    successor = data.make_successor_map(20, rng)
    sessions = data.synth_sequential(20, 30, 3, successor, 0.3, rng, session_len=4)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    return ds, data.split(ds.sessions, "random-80-20", make_rng(1))


def assert_same_training(a, b):
    assert len(a.trace) == len(b.trace) == 2
    assert np.allclose(a.trace, b.trace, rtol=1e-9, atol=0.0)
    for pa, pb in zip(a.params(), b.params()):
        assert np.abs(pa - pb).max() <= 1e-9


def test_das_shared_loop_reproduces_loop_trainer(corpus):
    ds, sp = corpus
    cfg = das.DasConfig(k=6, lr=0.05, epochs=2, batch=10, seed=7)
    assert_same_training(das.train_das(sp, ds, cfg), loop_oracles.train_das(sp, ds, cfg))


def test_can_shared_loop_reproduces_loop_trainer(corpus):
    ds, sp = corpus
    cfg = can.CanConfig(D=4, D_u=3, N_f=4, D_p=3, D_q=3, lr=0.05, epochs=2, batch=8,
                        dropout=0.2, seed=11)
    assert_same_training(can.train_can(sp, ds, cfg), loop_oracles.train_can(sp, ds, cfg))
