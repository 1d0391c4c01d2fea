"""Sequential recommender mixing long- and short-term interest via attention.

Items and users live in sigmoid-squashed embedding tables. Two attention
heads summarize the user's long-term item set and current session into
one vector each; a relu mixture layer fuses them, and a per-item output
layer scores the whole catalog at once. `forward` is the one forward pass:
training runs it on a minibatch, `DasState.score_batch` on the instances
it scores.
Training is pairwise binary cross-entropy against sampled negatives and
reads only the output rows of each instance's positive and negatives.
"""

from dataclasses import dataclass, field

import numpy as np

from . import data, metrics, minibatch
from .numeric import (
    add_rows,
    init_normal,
    init_uniform_attention,
    make_rng,
    pooled_attention,
    pooled_attention_backward,
    sigmoid,
)

PARAM_NAMES = ("W1", "W2", "w_alpha", "w_beta", "W", "b", "Wout", "bout")


@dataclass
class DasConfig:
    k: int = 100
    lr: float = 0.02
    lam_uv: float = 1e-5
    lam_at: float = 1e-5
    batch: int = 50
    epochs: int = 10
    seed: int = 0


@dataclass
class DasState(metrics.Ranker):
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

    def score_batch(self, users, longs, shorts) -> np.ndarray:
        z, _ = forward(self, users, longs, shorts)
        scores = z @ self.Wout.T
        scores += self.bout
        return scores


def param_shapes(config: DasConfig, n_users: int, n_items: int) -> dict:
    """The shape of each parameter, by name, in PARAM_NAMES order."""
    k = config.k
    return {
        "W1": (k, n_items),
        "W2": (k, n_users),
        "w_alpha": (k,),
        "w_beta": (k,),
        "W": (k, 2 * k),
        "b": (k,),
        "Wout": (n_items, 2 * k),
        "bout": (n_items,),
    }


def init_das(n_users: int, n_items: int, config: DasConfig, rng=None) -> DasState:
    if rng is None:
        rng = make_rng(config.seed)
    shape = param_shapes(config, n_users, n_items)

    def attention(name):
        (k,) = shape[name]
        return init_uniform_attention(1, k, k, rng)[0]

    # the embedding tables spread at 0.5, the dense layers at 0.1; at 0.01
    # all items look alike
    return DasState(
        W1=init_normal(*shape["W1"], 0.0, 0.5, rng),
        W2=init_normal(*shape["W2"], 0.0, 0.5, rng),
        w_alpha=attention("w_alpha"),
        w_beta=attention("w_beta"),
        W=init_normal(*shape["W"], 0.0, 0.1, rng),
        b=np.zeros(shape["b"]),
        Wout=init_normal(*shape["Wout"], 0.0, 0.1, rng),
        bout=np.zeros(shape["bout"]),
        config=config,
    )


# ---------------------------------------------------------------------------
# Forward, loss and gradients


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


def forward(state: DasState, users, longs, shorts):
    """User representations z = [u_mix, h_u], one row per instance.

    `longs` and `shorts` hold one ragged item-index list per user; an empty
    list pools to the zero vector. Every layer runs on the whole batch at
    once. Returns z (B x 2k) and the cache `loss_and_grads` backpropagates
    through.
    """
    users = np.asarray(users, dtype=np.int64)
    u_long, long_cache = _encode(state.W1.T, longs, state.w_alpha)
    u_short, short_cache = _encode(state.W1.T, shorts, state.w_beta)
    x = np.hstack([u_long, u_short])
    pre = x @ state.W.T + state.b
    h_u = sigmoid(state.W2[:, users].T)
    z = np.hstack([np.maximum(pre, 0.0), h_u])
    return z, (users, long_cache, short_cache, x, pre, h_u)


def loss_and_grads(state: DasState, batch: minibatch.Batch, out=None):
    """Batch pairwise cross-entropy + L2, with gradients in params() order.

    `forward` encodes every instance at once. The output layer computes
    logits only for the rows of each instance's positive and negatives
    (`batch.negatives` holds one index or a list per instance), the only
    rows the loss reads, and adds gradients to those rows alone.
    L2 covers the embedding tables (lam_uv) and the attention scorers
    (lam_at), not the dense layers. It enters once per call, so this is the
    exact objective a single SGD step descends. `out`, arrays shaped like
    params(), receives the gradients in place of new arrays: the trainer
    reuses one set, so no catalog-sized array is allocated per batch.
    """
    cfg = state.config
    k = cfg.k
    z, (users, long_cache, short_cache, x, pre, h_u) = forward(
        state, batch.users, batch.longs, batch.shorts
    )

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
    l2 = (cfg.lam_uv, cfg.lam_uv, cfg.lam_at, cfg.lam_at, 0.0, 0.0, 0.0, 0.0)  # PARAM_NAMES
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
    return minibatch.train(state, prepared, config.epochs, config.batch, rng,
                           minibatch.sgd(state, loss_and_grads, config.lr))
