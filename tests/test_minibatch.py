"""The shared minibatch trainer: its batches, negative draws and SGD step.

`minibatch.train` gathers each batch from the index arrays of the train
`data.Histories`; the loop it replaced (`loop_oracles.list_train`) built
per-instance lists and drew from explicit negative pools. It draws a
batch's negatives with one `rng.integers` call over the pool sizes; the
per-model trainers before it drew one at a time. `minibatch.Sgd` updates
only the table rows a batch reads, with L2 on those rows; the dense step
(`loop_oracles.dense_sgd`) updates every array whole on the same
objective, so a row the batch does not read takes a zero step there.
`metrics.evaluate` reads the test instances as the same `minibatch.Batch`.
"""

import numpy as np
import pytest

import loop_oracles
import oracles
from recsuite import baselines, can, checkpoint, das, data, minibatch
from recsuite.numeric import make_rng


# ---------------------------------------------------------------------------
# One draw per batch


def assert_one_draw_equals_scalar_draws(sizes, seed):
    whole, each = make_rng(seed), make_rng(seed)
    drawn = whole.integers(sizes)
    assert drawn.tolist() == [int(each.integers(n)) for n in sizes]
    assert whole.bit_generator.state == each.bit_generator.state


@pytest.mark.parametrize("size", [1, 2, 7, 2**31 + 5, 2**40])
def test_a_batch_of_one_draws_as_one_scalar_call(size):
    assert_one_draw_equals_scalar_draws([size], seed=size % 97)


def test_a_whole_epoch_batch_draws_as_scalar_calls():
    # BPR's batch: every instance of the epoch, each with its user's pool
    rng = make_rng(0)
    sessions = data.synth_sequential(40, 30, 4, data.make_successor_map(40, rng), 0.3, rng)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    sp = data.split(ds.sessions, "random-80-20", make_rng(1))
    hist = data.Histories(sp.train, ds)
    users = np.repeat(hist.sessions.user, np.diff(hist.sessions.offsets))  # each instance's user
    sizes = (ds.n_items - np.diff(hist.start)[users]).tolist()
    assert len(sizes) > 300 and min(sizes) < max(sizes)
    for seed in range(3):
        assert_one_draw_equals_scalar_draws(sizes, seed)
    assert_one_draw_equals_scalar_draws([1, 1, 3, 1, 2**33, 5], seed=4)  # mixed ranges


# ---------------------------------------------------------------------------
# Batches gathered from arrays train as list batches did


def varied_corpus(seed=5, n_users=12, n_items=15):
    """Sessions on five days per user, of one to five items drawn with
    repeats, and one user who touches every item (whose instances are
    skipped, having no negative)."""
    rng = make_rng(seed)
    sessions = [data.Session(user=f"u{u:02d}", t=d, day=d, items=[
                    f"i{j:02d}" for j in rng.integers(n_items, size=int(rng.integers(1, 6)))])
                for u in range(n_users) for d in range(5)]
    sessions.append(data.Session(user="all", t=0, day=0,
                                 items=[f"i{j:02d}" for j in range(n_items)]))
    ds = data.Dataset.from_interactions(
        data.sessions_to_interactions(oracles.sessions_of(sessions)))
    return ds, data.Split(train=ds.sessions, test=[], policy="random-80-20")


TRAINERS = {
    "das": lambda sp, ds: das.train_das(sp, ds, das.DasConfig(
        k=5, lr=0.05, lam_uv=0.01, lam_at=0.02, epochs=3, batch=7, seed=2)),
    "can": lambda sp, ds: can.train_can(sp, ds, can.CanConfig(
        D=4, D_u=3, N_f=5, D_p=3, D_q=4, lr=0.05, lam_uv=0.01, lam_a=0.02, dropout=0.2,
        epochs=3, batch=6, seed=3)),
    "bpr": lambda sp, ds: baselines.train_bpr(sp, ds, baselines.BprConfig(
        d=4, lr=0.05, epochs=4, seed=4)),
}


def test_varied_corpus_reaches_every_input_path():
    ds, sp = varied_corpus()
    prepared = oracles.prepared_instances(sp, ds)
    assert sum(1 for p in prepared if p[1]) > len(prepared) // 2  # non-empty long-term lists
    assert any(len(set(p[2])) < len(p[2]) for p in prepared)  # a context repeats an item
    assert any(not p[2] for p in prepared)  # one-item sessions: an empty context
    assert any(p[4].size == 0 for p in prepared)  # a user without negatives


@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_array_batches_train_as_list_batches(name, monkeypatch):
    ds, sp = varied_corpus()
    got = TRAINERS[name](sp, ds)
    monkeypatch.setattr(minibatch, "train",
                        loop_oracles.list_train(oracles.prepared_instances(sp, ds)))
    want = TRAINERS[name](sp, ds)
    arrays = (lambda st: [st.P, st.Q]) if name == "bpr" else (lambda st: st.params())
    assert all(np.array_equal(a, b) for a, b in zip(arrays(got), arrays(want)))
    assert got.trace == want.trace and len(got.trace) in (3, 4)


def test_bpr_trains_without_gathering_long_term_lists_or_contexts(monkeypatch):
    ds, sp = varied_corpus()
    want = TRAINERS["bpr"](sp, ds)

    def unread(*args):
        raise AssertionError("BPR gathered lists it does not read")

    monkeypatch.setattr(minibatch, "gather", unread)
    got = TRAINERS["bpr"](sp, ds)
    assert np.array_equal(got.P, want.P) and np.array_equal(got.Q, want.Q)
    assert got.trace == want.trace


# ---------------------------------------------------------------------------
# The evaluator's batches hold the test instances


def test_evaluator_batches_hold_the_oracle_instances():
    ds, _ = varied_corpus()
    sp = data.split(ds.sessions, "random-80-20", make_rng(0))
    hist, test = data.Histories(sp.train, ds), sp.test
    train = {}
    for s in sp.train:
        train.setdefault(s.user, []).append(s)
    want = [(ds.user_index[inst.user],
             [ds.item_index[i] for i in oracles.long_term_before(train.get(inst.user, []),
                                                                 inst.day)],
             [ds.item_index[i] for i in inst.context], ds.item_index[inst.target])
            for inst in test]
    assert any(not w[1] for w in want)  # an empty long-term list
    assert any(len(w[2]) == 1 for w in want)  # a one-item context
    long_len = hist.long_lengths(test.user, test.day)
    # every instance, as a chunk is gathered; then every other one, as the
    # instances a chunk keeps after some fail
    for q in (np.arange(len(test)), np.arange(1, len(test), 2)):
        batch = minibatch.Batch(hist, test, q, test.hold[q], long_len[q])
        got = zip(batch.users.tolist(), [x.tolist() for x in batch.longs],
                  [x.tolist() for x in batch.shorts], batch.positives.tolist())
        assert list(got) == [want[i] for i in q.tolist()]


# ---------------------------------------------------------------------------
# The sparse step against the dense step

N_USERS, N_ITEMS, HOT = 6, 300, 12
N_BATCHES = 600


def sparse_batches(seed):
    """Batches over a catalog whose rows mostly go unread for long runs.

    Most reads fall on the first HOT items; every 50th batch also reads
    one of the others, so a cold row waits hundreds of steps between
    reads and many are never read at all.
    """
    rng = make_rng(seed)
    batches = []
    for t in range(N_BATCHES):
        n = int(rng.integers(1, 5))
        items = lambda k: rng.integers(HOT, size=k).tolist()  # noqa: E731
        longs = [items(int(rng.integers(0, 4))) for _ in range(n)]
        if t % 50 == 0:
            longs[0].append(int(rng.integers(HOT, N_ITEMS)))
        batches.append(loop_oracles.list_batch(
            users=rng.integers(N_USERS, size=n).tolist(), longs=longs,
            shorts=[items(int(rng.integers(0, 3))) for _ in range(n)],
            positives=items(n),
            negatives=rng.integers(N_ITEMS, size=n).tolist() if t % 7 == 0 else items(n),
        ))
    return batches


def perturbed(state, seed):
    rng = make_rng(seed)
    for p in state.params():
        p += rng.normal(0, 0.3, size=p.shape)
    return state


MODELS = {
    "das": (das, lambda: perturbed(das.init_das(N_USERS, N_ITEMS, das.DasConfig(
        k=4, lam_uv=0.05, lam_at=0.02, seed=1)), 2), {}),
    "can": (can, lambda: perturbed(can.init_can(N_USERS, N_ITEMS, can.CanConfig(
        D=4, D_u=3, N_f=4, D_p=3, D_q=5, dropout=0.0, lam_uv=0.05, lam_a=0.02, seed=3)), 4),
        {"rng": None}),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sgd_equals_the_dense_step(name):
    model, init, kernel_args = MODELS[name]
    lr = 0.05
    sparse, dense = init(), init()
    def kernel(st, b, rows):
        return model.loss_and_grads(st, b, rows=rows, **kernel_args)

    step = minibatch.Sgd(sparse, kernel, model.reads, lr, model.l2_weights(sparse.config))
    dense_step = loop_oracles.dense_sgd(model, dense, lr, **kernel_args)
    losses = [(step(b), dense_step(b)) for b in sparse_batches(7)]
    got, want = np.array(losses).T
    assert got.tolist() == want.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(sparse.params(), dense.params()))

    # an item row that no batch reads keeps its initial bytes
    read = {i for b in sparse_batches(7) for lists in (b.longs, b.shorts)
            for i in lists.flat.tolist()}
    unread = sorted(set(range(N_ITEMS)) - read)
    assert len(unread) > N_ITEMS // 2
    table = (lambda st: st.W1.T) if name == "das" else (lambda st: st.E)
    assert table(sparse)[unread].tobytes() == table(init())[unread].tobytes()


def tiny_corpus():
    rng = make_rng(0)
    sessions = data.synth_sequential(30, 8, 4, data.make_successor_map(30, rng), 0.3, rng,
                                     session_len=4)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    return ds, data.split(ds.sessions, "random-80-20", make_rng(1))


@pytest.mark.parametrize("train", [
    lambda sp, ds: das.train_das(sp, ds, das.DasConfig(k=4, lam_uv=0.05, epochs=3, batch=7)),
    lambda sp, ds: can.train_can(sp, ds, can.CanConfig(D=4, D_u=3, N_f=4, D_p=3, D_q=3,
                                                       lam_uv=0.05, epochs=3, batch=7)),
], ids=["das", "can"])
def test_a_trained_state_saves_the_same_bytes_twice(train, tmp_path):
    ds, sp = tiny_corpus()
    state = train(sp, ds)
    first, second = tmp_path / "a.npz", tmp_path / "b.npz"
    checkpoint.save_checkpoint(first, state, ds.users, ds.items)
    checkpoint.save_checkpoint(second, state, ds.users, ds.items)
    assert first.read_bytes() == second.read_bytes()
