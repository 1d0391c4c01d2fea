"""Non-personalized and matrix-factorization reference scorers.

Top, Random, UserMean, and ItemMean need no training loop; the pairwise
matrix-factorization ranker (`train_bpr`) is the only learned baseline,
and it trains through the shared `minibatch.train` loop on the same
instances as DAS and CAN.
All ranking scorers follow the protocol of `metrics.Ranker`: the evaluator
calls `score_batch(users, longs, shorts) -> (B, n_items) array` on chunks
of test instances, and `score_items(user, long_items, short_items) ->
(n_items,) array` is its one-instance case.
"""

from dataclasses import dataclass, field

import numpy as np

from . import data, metrics, minibatch
from .numeric import make_rng, sigmoid


# ---------------------------------------------------------------------------
# Popularity


@dataclass
class TopScorer(metrics.Ranker):
    counts: np.ndarray  # training interaction count per item index

    def score_batch(self, users, longs, shorts):
        return np.broadcast_to(self.counts.astype(np.float64), (len(users), self.counts.size))


def top_scorer(train: data.Sessions, n_items) -> TopScorer:
    """Each item's count among the items of the train sessions."""
    return TopScorer(counts=np.bincount(train.item, minlength=n_items).astype(np.float64))


# ---------------------------------------------------------------------------
# Random


@dataclass
class RandomScorer(metrics.Ranker):
    n_items: int
    seed: int  # the stream restarts from it, so a checkpoint needs only this
    rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rng = make_rng(self.seed)

    def score_batch(self, users, longs, shorts):
        # one draw of B rows takes the same stream values as B draws of one
        return self.rng.random((len(users), self.n_items))


# ---------------------------------------------------------------------------
# Mean-rating predictors


@dataclass
class MeanPredictor:
    by: str  # "user" or "item"
    means: np.ndarray  # per user (or item) code; the global mean where none rated

    def predict_ratings(self, users, items) -> np.ndarray:
        return self.means[users if self.by == "user" else items]

    def predict_rating(self, user, item) -> float:
        return float(self.means[user if self.by == "user" else item])


def _mean_predictor(ratings: data.Ratings, by: str) -> MeanPredictor:
    """Each code's mean rating, every sum taken in rating order."""
    if not len(ratings):
        raise ValueError("no ratings to average")
    codes, size = (ratings.user, ratings.n_users) if by == "user" else (ratings.item,
                                                                        ratings.n_items)
    counts = np.bincount(codes, minlength=size)
    means = np.full(len(counts), np.cumsum(ratings.value)[-1] / len(ratings))
    np.divide(np.bincount(codes, ratings.value, len(counts)), counts, out=means,
              where=counts > 0)
    return MeanPredictor(by=by, means=means)


def user_mean(ratings: data.Ratings) -> MeanPredictor:
    return _mean_predictor(ratings, "user")


def item_mean(ratings: data.Ratings) -> MeanPredictor:
    return _mean_predictor(ratings, "item")


# ---------------------------------------------------------------------------
# Pairwise-ranking matrix factorization


@dataclass
class BprConfig:
    d: int = 16
    lr: float = 0.05
    l2: float = 0.01
    epochs: int = 20
    seed: int = 0


@dataclass
class BprState(metrics.Ranker):
    P: np.ndarray  # n_users x d
    Q: np.ndarray  # n_items x d
    config: BprConfig
    trace: list = field(default_factory=list)  # mean pairwise loss per epoch

    def score_batch(self, users, longs, shorts):
        return self.P[np.asarray(users, dtype=np.int64)] @ self.Q.T


def _bpr_triple(pu, qi, qj, l2):
    """Data loss softplus(-x), x = p_u·(q_i - q_j), and the triple's gradients.

    The gradients (w.r.t. p_u, q_i, q_j) are those of the data loss plus
    l2(|p_u|^2 + |q_i|^2 + |q_j|^2), the per-step objective `train_bpr`
    descends. Takes one triple (vectors) or a stack of them (B x d rows);
    a stack's dot products are B matmuls of (1 x d) @ (d x 1), the same
    dot product as one vector's `pu @ (qi - qj)`.
    """
    diff = qi - qj
    x = (pu[..., None, :] @ diff[..., :, None])[..., 0, 0]
    s = sigmoid(x) - 1.0  # dloss/dx
    if np.ndim(s):
        s = s[:, None]
    return (
        np.logaddexp(0.0, -x),
        s * diff + 2 * l2 * pu,
        s * pu + 2 * l2 * qi,
        -s * pu + 2 * l2 * qj,
    )


def _waves(users, pos, neg, n_users, n_items) -> np.ndarray:
    """The wave of each (user, positive, negative) pair: one past the latest
    wave of any earlier pair that shares its user row or either item row.
    No two pairs of a wave share a row."""
    user_wave, item_wave = [-1] * n_users, [-1] * n_items
    waves = []
    for u, i, j in zip(users, pos, neg):
        w = max(user_wave[u], item_wave[i], item_wave[j]) + 1
        user_wave[u] = item_wave[i] = item_wave[j] = w
        waves.append(w)
    return np.array(waves, dtype=np.int64)


def init_bpr(n_users, n_items, config: BprConfig, rng=None) -> BprState:
    if rng is None:
        rng = make_rng(config.seed)
    return BprState(
        P=rng.normal(0.0, 0.1, size=(n_users, config.d)),
        Q=rng.normal(0.0, 0.1, size=(n_items, config.d)),
        config=config,
    )


def train_bpr(split, dataset, config: BprConfig) -> BprState:
    """SGD with one uniform negative per positive, drawn outside the user's history.

    The positives are the training instances' targets. The whole
    epoch is one `minibatch.train` batch, whose step updates pair by pair
    in effect: the pairs go in waves (`_waves`), and since the rows within
    a wave are disjoint, each wave updates as arrays, with the arithmetic
    of one pair at a time. The epoch loss is summed in pair order.
    """
    rng = make_rng(config.seed)
    state = init_bpr(dataset.n_users, dataset.n_items, config, rng)
    P, Q, lr, l2 = state.P, state.Q, config.lr, config.l2

    def step(batch):
        users, pos, neg = batch.users, batch.positives, batch.negatives.flat
        waves = _waves(users.tolist(), pos.tolist(), neg.tolist(), len(P), len(Q))
        order = np.argsort(waves, kind="stable")
        sizes = np.bincount(waves)
        ends = np.cumsum(sizes)
        users, pos, neg = users[order], pos[order], neg[order]
        losses = np.empty(len(order))
        for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
            u, i, j = users[lo:hi], pos[lo:hi], neg[lo:hi]
            pu, qi, qj = P[u], Q[i], Q[j]
            losses[order[lo:hi]], gp, gqi, gqj = _bpr_triple(pu, qi, qj, l2)
            P[u] = pu - lr * gp
            Q[i] = qi - lr * gqi
            Q[j] = qj - lr * gqj
        return float(np.cumsum(losses)[-1] / len(order))

    history = data.Histories(split.train, dataset)
    whole_epoch = max(split.train.item.size, 1)
    return minibatch.train(state, history, config.epochs, whole_epoch, rng, step)
