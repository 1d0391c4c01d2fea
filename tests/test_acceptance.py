"""End-to-end acceptance checks for the whole engine.

Each test pins one externally meaningful guarantee: analytic gradients,
optimizer descent, metric arithmetic, null-model calibration, recovery of
planted sequential structure, robustness to session order, cross-cluster
rating transfer, personalized attention, bit-exact reproducibility, and
attention invariants. Tolerances and budgets are asserted, not assumed.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from recsuite import apar, baselines, can, das, data, metrics, minibatch, personality
from recsuite.cli import main
from recsuite.numeric import grad_check, make_rng, pooled_attention


# ---------------------------------------------------------------------------
# Shared planted-sequence corpus: 50 items on one successor cycle, 2,000
# sessions, 10% noise. Most users contribute a single session so the
# non-history negative sampler cannot be satisfied by user memorization;
# a 100-user multi-session cohort supplies the held-out test sessions.


@pytest.fixture(scope="module")
def planted():
    rng = make_rng(0)
    successor = data.make_successor_map(50, rng)
    solo = data.synth_sequential(50, 1600, 1, successor, 0.1, rng)
    multi = data.synth_sequential(50, 100, 4, successor, 0.1, rng)
    multi = [
        data.Session(user="m" + s.user, t=s.t, day=s.day, items=s.items)
        for s in multi
    ]
    sessions = solo + multi
    assert len(sessions) == 2000
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    sp = data.split(ds.sessions, "random-80-20", make_rng(1))
    return ds, sp


@pytest.fixture(scope="module")
def das_trained(planted):
    ds, sp = planted
    cfg = das.DasConfig(k=24, lr=0.02, epochs=60, batch=50, seed=0)
    t0 = time.perf_counter()
    state = das.train_das(sp, ds, cfg)
    return state, cfg, time.perf_counter() - t0


@pytest.fixture(scope="module")
def can_trained(planted):
    ds, sp = planted
    cfg = can.CanConfig(
        D=32, D_u=32, N_f=32, D_p=32, D_q=32, dropout=0.0, lr=0.05,
        epochs=5, batch=50, seed=0,
    )
    t0 = time.perf_counter()
    state = can.train_can(sp, ds, cfg)
    return state, cfg, time.perf_counter() - t0


def _recall5(state, ds, sp, name):
    return metrics.evaluate(state, ds, sp, [5], name).value("recall", 5)


# ---------------------------------------------------------------------------
# 1. Analytic gradients agree with central finite differences.


def test_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    perturb = make_rng(11)

    das_cfg = das.DasConfig(k=8, lam_uv=0.01, lam_at=0.02, seed=5)
    das_state = das.init_das(3, 12, das_cfg)
    for p in das_state.params():
        p += perturb.normal(0, 0.3, size=p.shape)
    das_batch = minibatch.Batch(
        users=[0, 2], longs=[[0, 1, 2], []], shorts=[[3, 4], [5, 5]],
        positives=[6, 7], negatives=[[8, 9], [10]],
    )
    err_das = grad_check(
        lambda pl: das.loss_and_grads(das.DasState.from_params(pl, das_cfg), das_batch),
        das_state.params(),
    )

    can_cfg = can.CanConfig(
        D=6, D_u=3, N_f=6, window=3, D_p=4, D_q=5,
        dropout=0.0, lam_uv=0.01, lam_a=0.02, seed=9,
    )
    can_state = can.init_can(2, 8, can_cfg)
    for p in can_state.params():
        p += perturb.normal(0, 0.3, size=p.shape)
    can_batch = minibatch.Batch(
        users=[1], longs=[[0, 1, 2, 3]], shorts=[[4, 4, 5]],
        positives=[6], negatives=[7],
    )
    err_can = grad_check(
        lambda pl: can.loss_and_grads(can.CanState.from_params(pl, can_cfg), can_batch),
        can_state.params(),
    )

    rng = make_rng(13)
    P = rng.normal(0, 0.5, (4, 8))
    Q = rng.normal(0, 0.5, (12, 8))
    triples = [(0, 2, 7), (1, 0, 3), (3, 11, 4), (2, 5, 5)]
    err_bpr = grad_check(
        lambda pl: oracles.bpr_loss_and_grad(pl[0], pl[1], triples, 0.01),
        [P, Q],
    )

    assert err_das < 1e-4
    assert err_can < 1e-4
    assert err_bpr < 1e-4
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. Multiplicative updates stay nonnegative and descend.


def test_02_multiplicative_updates_descend():
    rng = make_rng(42)
    P_true = rng.random((20, 3))
    Q_true = rng.random((30, 3))
    W = P_true @ Q_true.T
    mask = rng.random(W.shape) < 0.4
    assert 0 < mask.sum() < W.size

    cfg = apar.AparConfig(d=3, max_iters=50, tol=0.0, gamma_override=1.0, seed=0)
    groups = np.arange(20)
    gamma = np.full(20, 1.0)
    prob = apar.AparProblem.build(W, mask, groups, gamma, cfg.alpha1, cfg.alpha2, cfg.lam)
    init = make_rng(cfg.seed)
    P0 = 0.1 * (1.0 - init.random((20, 3)))
    Q0 = 0.1 * (1.0 - init.random((30, 3)))
    start = apar.objective(P0, Q0, prob)

    t0 = time.perf_counter()
    state = apar.train_apar(W, mask, groups, gamma, cfg)
    elapsed = time.perf_counter() - t0

    assert len(state.trace) == 50
    assert (state.P >= 0).all() and (state.Q >= 0).all()
    assert state.trace[-1] <= 0.1 * start
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Every reported metric matches a brute-force enumeration.


class _TableScorer:
    def __init__(self, tables, user_index):
        self.tables = tables
        self.user_index = user_index

    def score_items(self, user, long_items, short_items):
        return np.array(self.tables[user])


class _TablePredictor:
    def __init__(self, table):
        self.table = table

    def predict_rating(self, user, item):
        return self.table[(user, item)]


def test_03_metrics_match_brute_force():
    # five users, six items, scores chosen to exercise ties and misses
    train = [
        data.Session(user="a", t=0, day=0, items=["i0", "i1"]),
        data.Session(user="b", t=0, day=0, items=["i1", "i2"]),
        data.Session(user="c", t=0, day=0, items=["i2", "i3"]),
        data.Session(user="d", t=0, day=0, items=["i3", "i4"]),
        data.Session(user="e", t=0, day=0, items=["i4", "i5"]),
    ]
    tests = [
        data.TestInstance(user="a", day=1, t=1, context=["i2", "i3"], target="i4"),
        data.TestInstance(user="b", day=1, t=1, context=["i0", "i3"], target="i5"),
        data.TestInstance(user="c", day=1, t=1, context=["i1", "i5"], target="i0"),
        data.TestInstance(user="d", day=1, t=1, context=["i0", "i2"], target="i1"),
        data.TestInstance(user="e", day=1, t=1, context=["i1", "i2"], target="i3"),
    ]
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(train))
    sp = data.Split(train=train, test=tests, policy="fixed", warnings=[])
    scores = {
        0: [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        1: [0.5, 0.5, 0.5, 0.2, 0.9, 0.2],
        2: [0.1, 0.2, 0.3, 0.3, 0.3, 0.0],
        3: [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        4: [-1.0, 2.0, 0.0, 2.0, -0.5, 0.25],
    }
    report = metrics.evaluate(
        _TableScorer(scores, ds.user_index), ds, sp, [2, 3], "fixture",
        exclude_context=False,
    )
    assert not report.failures and report.n_instances == 5

    # independent enumeration with plain python arithmetic
    history = {}
    for s in train:
        history.setdefault(s.user, set()).update(ds.item_index[i] for i in s.items)
    expect = {("precision", 2): [], ("precision", 3): [],
              ("recall", 2): [], ("recall", 3): [],
              ("mcan", 2): [], ("mcan", 3): [], ("auc", None): []}
    can_pairs = []
    for inst in tests:
        u = ds.user_index[inst.user]
        s = scores[u]
        ctx = {ds.item_index[i] for i in inst.context}
        tgt = ds.item_index[inst.target]
        ranked = sorted(range(6), key=lambda j: (-s[j], j))
        for k in (2, 3):
            top = ranked[:k]
            expect[("precision", k)].append(sum(1 for j in top if j == tgt) / k)
            expect[("recall", k)].append(1.0 if tgt in top else 0.0)
            expect[("mcan", k)].append(1.0 - len(set(top) & ctx) / k)
            if k == 3:
                can_pairs.append((top, sorted(ctx)))
        pool = [j for j in range(6) if j not in (history[inst.user] | ctx | {tgt})]
        wins = sum(1.0 if s[tgt] > s[j] else 0.5 if s[tgt] == s[j] else 0.0 for j in pool)
        expect[("auc", None)].append(wins / len(pool))

    for (name, k), values in expect.items():
        brute = sum(values) / len(values)  # one instance per user
        assert abs(report.value(name, k) - brute) <= 1e-12, (name, k)

    # the per-recommendation novelty itself
    for top, consumed in can_pairs:
        brute = 1.0 - len(set(top) & set(consumed)) / len(set(top))
        assert abs(metrics.can_novelty(top, consumed) - brute) <= 1e-12

    # rating-side errors
    triplets = [(0, 0, 4.0), (0, 1, 3.5), (1, 0, 2.0), (1, 2, 5.0),
                (2, 1, 1.0), (3, 2, 3.0), (4, 0, 4.5), (4, 2, 2.5)]
    preds = {(0, 0): 3.5, (0, 1): 3.5, (1, 0): 2.5, (1, 2): 4.0,
             (2, 1): 1.5, (3, 2): 3.0, (4, 0): 4.0, (4, 2): 3.0}
    rep = metrics.evaluate_ratings(_TablePredictor(preds), triplets, "fixture")
    errs = [r - preds[(u, i)] for u, i, r in triplets]
    brute_mae = sum(abs(e) for e in errs) / len(errs)
    brute_rmse = (sum(e * e for e in errs) / len(errs)) ** 0.5
    assert abs(rep.value("mae") - brute_mae) <= 1e-12
    assert abs(rep.value("rmse") - brute_rmse) <= 1e-12


# ---------------------------------------------------------------------------
# 4. Null models sit where probability says they must.


def test_04_null_calibration():
    rng = make_rng(2)
    successor = data.make_successor_map(50, rng)
    # noise 1.0 makes every step an independent uniform draw
    sessions = data.synth_sequential(50, 5000, 2, successor, 1.0, rng)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    sp = data.split(ds.sessions, "random-80-20", make_rng(3))

    history = {}
    for s in sp.train:
        history.setdefault(s.user, set()).update(s.items)
    pairs = sum(
        ds.n_items - len(history.get(i.user, set()) | set(i.context) | {i.target})
        for i in sp.test
    )
    assert pairs >= 2000

    rnd = baselines.RandomScorer(n_items=ds.n_items, seed=4)
    auc = metrics.evaluate(rnd, ds, sp, [10], "random", exclude_context=False).value("auc")
    assert 0.48 <= auc <= 0.52

    top = baselines.top_scorer(sp.train, ds.item_index, ds.n_items)
    recall = metrics.evaluate(top, ds, sp, [10], "top", exclude_context=False).value(
        "recall", 10
    )
    assert abs(recall - 10 / ds.n_items) <= 0.02


# ---------------------------------------------------------------------------
# 5. Both sequential models recover the planted successor structure.


def test_05_planted_successor_recovery(planted, das_trained, can_trained):
    ds, sp = planted
    das_state, _, das_seconds = das_trained
    can_state, _, can_seconds = can_trained

    top = baselines.top_scorer(sp.train, ds.item_index, ds.n_items)
    assert _recall5(top, ds, sp, "top") <= 0.3

    assert _recall5(das_state, ds, sp, "das") >= 0.8
    assert _recall5(can_state, ds, sp, "can") >= 0.8
    assert das_seconds < 300.0
    assert can_seconds < 300.0


# ---------------------------------------------------------------------------
# 6. Shuffling item order inside training sessions barely moves the needle.


def test_06_training_order_shuffle_is_harmless(planted, das_trained):
    ds, sp = planted
    das_state, cfg, _ = das_trained
    base = _recall5(das_state, ds, sp, "das")

    shuffle = make_rng(7)
    shuffled = [
        data.Session(
            user=s.user, t=s.t, day=s.day,
            items=[s.items[int(j)] for j in shuffle.permutation(len(s.items))],
        )
        for s in sp.train
    ]
    sp2 = data.Split(train=shuffled, test=sp.test, policy=sp.policy,
                     warnings=list(sp.warnings))
    other = _recall5(das.train_das(sp2, ds, cfg), ds, sp2, "das")
    assert abs(base - other) < 0.05


# ---------------------------------------------------------------------------
# 7. Trait-regularized factorization beats the per-user mean even though the
#    rating matrix is block-disjoint across clusters.


def test_07_cluster_transfer_beats_user_mean():
    rng = make_rng(0)
    interactions, truth = data.synth_personality_clusters(2, 20, 10, rng=rng)
    labels = {u: info.cluster for u, info in truth.items()}
    assert data.cross_cluster_disjointness(interactions, labels) == 1.0

    matrix = data.RatingMatrix.from_interactions(interactions)
    train_t, test_t = data.split_ratings(matrix, 0.2, make_rng(1))

    t0 = time.perf_counter()
    profiles = personality.profile_all(
        interactions, personality.DEMO_LEXICON, personality.DEMO_WEIGHTS
    )
    groups = personality.trait_groups(profiles, matrix.users)
    kl_map = {
        u: lvl.kl_normalized
        for u, lvl in personality.knowledge_levels(interactions).items()
    }
    cfg = apar.AparConfig(d=8, max_iters=800, seed=0)
    state = apar.fit_ratings(matrix, train_t, groups, kl_map, cfg)
    elapsed = time.perf_counter() - t0

    model_mae = metrics.evaluate_ratings(state, test_t, "apar").value("mae")
    null_mae = metrics.evaluate_ratings(
        baselines.user_mean(train_t), test_t, "usermean"
    ).value("mae")
    assert model_mae <= 0.9 * null_mae
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 8. Two users looking at the same items get different attention.


def test_08_identical_items_personalized_attention():
    cfg = can.CanConfig(D=2, D_u=2, N_f=2, window=3, D_p=2, D_q=2, dropout=0.0)
    state = can.CanState(
        E=np.array([[1.0, 0.0], [0.0, 1.0]]),
        U=np.array([[3.0, 0.0], [0.0, 3.0]]),
        K_w=np.array([[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], dtype=float),
        b_w=np.zeros(2),
        W1=np.eye(2),
        b1=np.zeros(2),
        W2=np.array([[2.0, -2.0], [-2.0, 2.0]]),
        b2=np.zeros(2),
        W3=np.zeros((2, 2)),
        b3=np.zeros(2),
        W4=np.zeros((2, 2)),
        b4=np.zeros(2),
        V_out=np.zeros((2, 2)),
        config=cfg,
    )
    shared_items = [0, 1]
    _, cache = can.forward(state, [0, 1], [shared_items, shared_items], [[], []])
    alpha0, alpha1 = cache.alpha
    assert np.max(np.abs(alpha0 - alpha1)) > 0.05


# ---------------------------------------------------------------------------
# 9. The full train+eval pipeline is bit-identical under a fixed seed.


def _run_pipeline(base, kind, model, train_extra):
    runner = CliRunner()
    corpus_dir = base / "corpus"
    if kind == "sequential":
        args = ["synth", "--kind", "sequential", "--items", "12", "--users", "6",
                "--sessions-per-user", "4", "--session-len", "4", "--noise", "0.2",
                "--seed", "3", "--out", str(corpus_dir)]
    else:
        args = ["synth", "--kind", "personality", "--clusters", "2",
                "--users-per-cluster", "5", "--items-per-cluster", "4",
                "--seed", "3", "--out", str(corpus_dir)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    corpus = corpus_dir / "corpus.csv"

    train_dir = base / "model"
    res = runner.invoke(main, [
        "train", str(corpus), "--model", model, "--out", str(train_dir),
        "--seed", "5", *train_extra,
    ])
    assert res.exit_code == 0, res.output

    eval_dir = base / "eval"
    res = runner.invoke(main, [
        "eval", str(train_dir / f"{model}.npz"), str(corpus),
        "--out", str(eval_dir), "--seed", "5",
    ])
    assert res.exit_code == 0, res.output
    artifacts = [train_dir / f"{model}.npz", train_dir / f"{model}_trace.csv",
                 eval_dir / "report.csv", eval_dir / "report.txt"]
    return {path.name: path.read_bytes() for path in artifacts}


def test_09_rerun_reproduces_metrics_bit_identically(tmp_path):
    runs = [
        ("sequential", "bpr", ["--k", "4", "--epochs", "5"]),
        ("sequential", "das", ["--k", "4", "--epochs", "3"]),
        ("sequential", "can", ["--k", "4", "--epochs", "3", "--dropout", "0.2"]),
        ("personality", "apar", ["--k", "4", "--epochs", "300"]),
    ]
    for kind, model, train_extra in runs:
        first = _run_pipeline(tmp_path / model / "a", kind, model, train_extra)
        second = _run_pipeline(tmp_path / model / "b", kind, model, train_extra)
        assert first == second, model


# ---------------------------------------------------------------------------
# 10. Attention vectors are distributions and follow their inputs around.


def test_10_attention_sums_to_one_and_permutes_with_input():
    def weights(V, q, mask=None):
        # the attention of the live forward passes: query q (1 x n) over V's rows
        V = V.reshape((1,) + V.shape[-2:])
        if mask is None:
            mask = np.ones(V.shape[:2], dtype=bool)
        return pooled_attention(V, q, mask)[1][0]

    rng = make_rng(6)
    for _ in range(100):
        H = rng.normal(0, 1, (5, 7))
        w = rng.normal(0, 1, 5)
        alpha = weights(H.T, w[None])  # das.forward pools W1's columns by w
        assert alpha.min() >= 0.0
        assert abs(alpha.sum() - 1.0) <= 1e-9
        perm = rng.permutation(7)
        permuted = weights(H[:, perm].T, w[None])
        assert np.abs(permuted - alpha[perm]).max() <= 1e-9

    cfg = can.CanConfig(D=5, D_u=3, N_f=4, window=3, D_p=3, D_q=4,
                        dropout=0.0, seed=8)
    state = can.init_can(3, 9, cfg)
    perturb = make_rng(9)
    for p in state.params():
        p += perturb.normal(0, 0.3, size=p.shape)

    def encoded(items):
        # can.forward's re-encoded context rows and their mask
        _, cache = can.forward(state, [0], [[]], [items])
        return cache.Q, cache.s_mask

    for _ in range(100):
        C = rng.normal(0, 1, (6, 4))
        query = can.forward(state, [1], [[0]], [[]])[1].t  # user 1's purpose query
        alpha = weights(C, query)
        assert alpha.min() >= 0.0
        assert abs(alpha.sum() - 1.0) <= 1e-9
        perm = rng.permutation(6)
        # same rows, same user query -> weights must follow the rows
        permuted = weights(C[perm], query)
        assert np.abs(permuted - alpha[perm]).max() <= 1e-9

        items = [int(j) for j in rng.integers(0, 9, size=5)]
        m = rng.normal(0, 1, 4)
        Q, mask = encoded(items)
        ap = weights(Q, m[None], mask)
        assert ap.min() >= 0.0
        assert abs(ap.sum() - 1.0) <= 1e-9
        sperm = rng.permutation(5)
        Q2, mask2 = encoded([items[int(j)] for j in sperm])
        ap2 = weights(Q2, m[None], mask2)
        assert np.abs(ap2 - ap[sperm]).max() <= 1e-9
