"""Sequential recommender mixing long- and short-term interest via attention.

Items and users live in sigmoid-squashed embedding tables. Two attention
heads summarize the user's long-term item set and current session into
one vector each; a relu mixture layer fuses them, and a per-item output
layer scores the whole catalog at once. Training is pairwise binary
cross-entropy against sampled negatives, batched, and reads only the
output rows of each instance's positive and negatives.
"""

from dataclasses import dataclass, field

import numpy as np

from . import data, minibatch
from .minibatch import Batch
from .numeric import (
    add_rows,
    init_normal,
    init_uniform_attention,
    make_rng,
    pooled_attention,
    pooled_attention_backward,
    sigmoid,
    softmax,
)

PARAM_NAMES = ("W1", "W2", "w_alpha", "w_beta", "W", "b", "Wout", "bout")


@dataclass
class DasConfig:
    k: int = 100
    lr: float = 0.001
    lam_uv: float = 1e-5
    lam_at: float = 1e-5
    batch: int = 50
    epochs: int = 10
    seed: int = 0
    reg_dense: bool = False  # also penalize the dense layers W, Wout
    init_std: float = 0.01
    dense_init_std: float = 0.1


@dataclass
class DasState:
    W1: np.ndarray  # k x n_items, sigmoid-ed per column to get h_i
    W2: np.ndarray  # k x n_users
    w_alpha: np.ndarray  # long-term attention scorer, length k
    w_beta: np.ndarray  # short-term attention scorer, length k
    W: np.ndarray  # mixture layer, k x 2k
    b: np.ndarray
    Wout: np.ndarray  # per-item output layer, n_items x 2k
    bout: np.ndarray
    config: DasConfig
    trace: list = field(default_factory=list)

    def params(self) -> list:
        return [getattr(self, n) for n in PARAM_NAMES]

    @classmethod
    def from_params(cls, plist, config: DasConfig) -> "DasState":
        return cls(*plist, config=config)

    @property
    def n_items(self) -> int:
        return self.W1.shape[1]

    def score_items(self, user, long_items, short_items) -> np.ndarray:
        k = self.config.k
        u_long = (
            attend(sigmoid(self.W1[:, list(long_items)]), self.w_alpha)[0]
            if len(long_items)
            else np.zeros(k)
        )
        u_short = (
            attend(sigmoid(self.W1[:, list(short_items)]), self.w_beta)[0]
            if len(short_items)
            else np.zeros(k)
        )
        return score_all(self, mixture(self, u_long, u_short), user)


def init_das(n_users: int, n_items: int, config: DasConfig, rng=None) -> DasState:
    if rng is None:
        rng = make_rng(config.seed)
    k = config.k
    return DasState(
        W1=init_normal(k, n_items, 0.0, config.init_std, rng),
        W2=init_normal(k, n_users, 0.0, config.init_std, rng),
        w_alpha=init_uniform_attention(1, k, k, rng)[0],
        w_beta=init_uniform_attention(1, k, k, rng)[0],
        W=init_normal(k, 2 * k, 0.0, config.dense_init_std, rng),
        b=np.zeros(k),
        Wout=init_normal(n_items, 2 * k, 0.0, config.dense_init_std, rng),
        bout=np.zeros(n_items),
        config=config,
    )


# ---------------------------------------------------------------------------
# Forward pieces


def embed_user(state: DasState, user: int) -> np.ndarray:
    return sigmoid(state.W2[:, user])


def attend(H: np.ndarray, w: np.ndarray):
    """Weighted sum of H's columns; weights = softmax of w·column scores."""
    if H.ndim != 2 or H.shape[1] == 0:
        raise ValueError("attention needs at least one embedding column")
    alpha = softmax(w @ H)
    return H @ alpha, alpha


def mixture(state: DasState, u_long: np.ndarray, u_short: np.ndarray) -> np.ndarray:
    pre = state.W @ np.concatenate([u_long, u_short]) + state.b
    return np.maximum(pre, 0.0)


def score_all(state: DasState, u_mixture: np.ndarray, user: int) -> np.ndarray:
    z = np.concatenate([u_mixture, embed_user(state, user)])
    return state.Wout @ z + state.bout


# ---------------------------------------------------------------------------
# Loss and gradients


def _encode(items: np.ndarray, lists, w: np.ndarray):
    """Attention-pool the sigmoid-ed item columns of each ragged list.

    `items` is W1.T. Returns the pooled B x k block (zero rows for empty
    lists) and what the backward pass needs.
    """
    idx, mask = minibatch.pad(lists)
    flat = idx[mask]
    Hv = sigmoid(items[flat])
    H = np.zeros(mask.shape + (items.shape[1],))
    H[mask] = Hv
    q = np.broadcast_to(w, (len(lists), w.size))
    pooled, alpha = pooled_attention(H, q, mask)
    return pooled, (H, q, alpha, mask, flat, Hv)


def loss_and_grads(state: DasState, batch: Batch, out=None):
    """Batch pairwise cross-entropy + L2, with gradients in params() order.

    All instances go through each layer at once. The output layer computes
    logits only for the rows of each instance's positive and negatives
    (`batch.negatives` holds one index or a list per instance), the only
    rows the loss reads, and adds gradients to those rows alone.
    Regularization enters once per call, so this is the exact objective a
    single SGD step descends. `out`, arrays shaped like params(), receives
    the gradients in place of new arrays: the trainer reuses one set, so
    no catalog-sized array is allocated per batch.
    """
    cfg = state.config
    k = cfg.k
    users = np.asarray(batch.users, dtype=np.int64)

    u_long, long_cache = _encode(state.W1.T, batch.longs, state.w_alpha)
    u_short, short_cache = _encode(state.W1.T, batch.shorts, state.w_beta)
    x = np.hstack([u_long, u_short])
    pre = x @ state.W.T + state.b
    u_mix = np.maximum(pre, 0.0)
    h_u = sigmoid(state.W2[:, users].T)
    z = np.hstack([u_mix, h_u])

    negs, neg_mask = minibatch.pad(
        [[n] if isinstance(n, (int, np.integer)) else n for n in batch.negatives]
    )
    rows = np.hstack([np.asarray(batch.positives, dtype=np.int64)[:, None], negs])
    live = np.hstack([np.ones((len(users), 1), dtype=bool), neg_mask])
    Wr = state.Wout[rows]
    R = (Wr @ z[:, :, None])[:, :, 0] + state.bout[rows]
    sig = np.clip(sigmoid(R), 1e-12, 1.0 - 1e-12)
    total = float(-np.log(sig[:, 0]).sum() - np.log(1.0 - sig[:, 1:][neg_mask]).sum())

    # every gradient starts as its L2 term; the data terms add to the rows
    # (or columns) the batch touched
    grads = [np.empty_like(p) for p in state.params()] if out is None else out
    gW1, gW2, gwa, gwb, gW, gb, gWout, gbout = grads
    dense = cfg.lam_uv if cfg.reg_dense else 0.0
    l2 = (cfg.lam_uv, cfg.lam_uv, cfg.lam_at, cfg.lam_at, dense, 0.0, dense, 0.0)  # PARAM_NAMES
    for p, g, lam in zip(state.params(), grads, l2):
        if lam:
            np.multiply(p, 2.0 * lam, out=g)
            total += lam * np.vdot(p, p)
        else:
            g.fill(0.0)

    dR = sig * live
    dR[:, 0] -= 1.0
    add_rows(gWout, rows[live], (dR[:, :, None] * z[:, None, :])[live])
    add_rows(gbout, rows[live], dR[live])
    dz = (dR[:, None, :] @ Wr)[:, 0, :]
    add_rows(gW2.T, users, dz[:, k:] * h_u * (1.0 - h_u))
    dpre = dz[:, :k] * (pre > 0)
    gW += dpre.T @ x
    gb += dpre.sum(axis=0)
    dx = dpre @ state.W
    for cache, d_pooled, gw in ((long_cache, dx[:, :k], gwa), (short_cache, dx[:, k:], gwb)):
        H, q, alpha, mask, flat, Hv = cache
        dH, dq = pooled_attention_backward(H, q, alpha, d_pooled)
        gw += dq.sum(axis=0)
        add_rows(gW1.T, flat, dH[mask] * Hv * (1.0 - Hv))
    return float(total), grads


# ---------------------------------------------------------------------------
# Training


def train_das(split: data.Split, dataset: data.Dataset, config: DasConfig) -> DasState:
    """Minibatch SGD over per-position holdout instances of the train sessions.

    One uniform negative per positive, resampled each epoch from outside
    the user's full train history. Long-term context is the union of the
    user's strictly-earlier-day train sessions.
    """
    rng = make_rng(config.seed)
    state = init_das(dataset.n_users, dataset.n_items, config, rng)
    prepared = data.prepared_instances(split, dataset)
    return minibatch.train(state, prepared, config, rng, loss_and_grads)
