"""Sequential recommender mixing long- and short-term interest via attention.

Items and users live in sigmoid-squashed embedding tables. Two attention
heads summarize the user's long-term item set and current session into
one vector each; a relu mixture layer fuses them, and a per-item output
layer scores the whole catalog at once. `forward` is the one forward pass,
on padded index lists (`minibatch.Lists`): training runs it on a
minibatch, `DasState.score_batch` on the instances it scores. It squashes
each distinct item column and user column a batch reads once, then
gathers. Training is pairwise binary cross-entropy against sampled
negatives and reads only the output rows of each instance's positive and
negatives.
"""

from dataclasses import dataclass, field

import numpy as np

from . import data, metrics, minibatch
from .numeric import (
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
        W1=rng.normal(0.0, 0.5, size=shape["W1"]),
        W2=rng.normal(0.0, 0.5, size=shape["W2"]),
        w_alpha=attention("w_alpha"),
        w_beta=attention("w_beta"),
        W=rng.normal(0.0, 0.1, size=shape["W"]),
        b=np.zeros(shape["b"]),
        Wout=rng.normal(0.0, 0.1, size=shape["Wout"]),
        bout=np.zeros(shape["bout"]),
        config=config,
    )


# ---------------------------------------------------------------------------
# Forward, loss and gradients


def _encode(H: np.ndarray, lists: minibatch.Lists, w: np.ndarray):
    """Attention-pool the rows of H, the sigmoid-ed item columns of
    `lists.flat`, per list. Returns the pooled B x k block (zero rows for
    empty lists) and what the backward pass needs."""
    Hp = np.zeros(lists.mask.shape + (H.shape[1],))
    Hp[lists.mask] = H
    q = np.broadcast_to(w, (len(Hp), w.size))
    pooled, alpha = pooled_attention(Hp, q, lists.mask)
    return pooled, (Hp, q, alpha, lists.mask, H)


def _input_rows(users, longs, shorts) -> tuple:
    """The `minibatch.Rows` of W1 (the long-term items, then the context
    items) and of W2 (the users), both read by column."""
    return (minibatch.Rows.of(np.concatenate([longs.flat, shorts.flat]), axis=1),
            minibatch.Rows.of(users, axis=1))


def forward(state: DasState, users, longs, shorts, rows=None):
    """User representations z = [u_mix, h_u], one row per instance.

    `longs` and `shorts` hold one item-index list per user, as
    `minibatch.Lists` or padded here by `minibatch.pad`; an empty list pools
    to the zero vector. `rows` are the W1 and W2 `Rows` of `reads`, found
    here when not given: the sigmoid runs once on each distinct column
    read, the same as once per read, as it is elementwise. Every layer runs
    on the whole batch at once. Returns z (B x 2k) and the cache
    `loss_and_grads` backpropagates through.
    """
    users = np.asarray(users, dtype=np.int64)
    longs, shorts = minibatch.pad(longs), minibatch.pad(shorts)
    items, user_rows = rows or _input_rows(users, longs, shorts)
    H = sigmoid(state.W1.T[items.index])[items.inverse]
    n_long = longs.flat.size
    u_long, long_cache = _encode(H[:n_long], longs, state.w_alpha)
    u_short, short_cache = _encode(H[n_long:], shorts, state.w_beta)
    x = np.hstack([u_long, u_short])
    pre = x @ state.W.T + state.b
    h_u = sigmoid(state.W2.T[user_rows.index])[user_rows.inverse]
    z = np.hstack([np.maximum(pre, 0.0), h_u])
    return z, (users, long_cache, short_cache, x, pre, h_u)


def reads(batch: minibatch.Batch) -> list:
    """The `minibatch.Rows` of each table a batch reads, aligned with params().

    W1 is read at the long-term items, then the context items, and W2 at
    the users (both by column); Wout and bout at the positives, then the
    negatives. `loss_and_grads` lists its table gradients in this order.
    """
    outputs = minibatch.Rows.of(np.concatenate([batch.positives, batch.negatives.flat]))
    return [*_input_rows(batch.users, batch.longs, batch.shorts), None, None, None, None,
            outputs, outputs]


def l2_weights(config: DasConfig) -> tuple:
    """The L2 weight of each parameter: lam_uv on the embedding tables,
    lam_at on the attention scorers, none on the dense and output layers."""
    return (config.lam_uv, config.lam_uv, config.lam_at, config.lam_at, 0.0, 0.0, 0.0, 0.0)


def loss_and_grads(state: DasState, batch: minibatch.Batch, rows=None):
    """Batch pairwise cross-entropy, with its gradients in params() order.

    `forward` encodes every instance at once. The output layer computes
    logits only for the rows of each instance's positive and negatives, the
    only rows the loss reads. Each table's gradient (W1, W2, Wout, bout)
    comes as one row per entry of its `reads(batch)` (or `rows`) index, so
    no catalog-sized array is allocated; the other gradients are whole. The
    L2 terms (`l2_weights`) are the trainer's, not part of this loss.
    """
    k = state.config.k
    item_rows, user_rows, *_, out_rows, _ = reads(batch) if rows is None else rows
    z, (users, long_cache, short_cache, x, pre, h_u) = forward(
        state, batch.users, batch.longs, batch.shorts, (item_rows, user_rows)
    )

    negs, neg_mask = batch.negatives.idx, batch.negatives.mask
    out = np.hstack([batch.positives[:, None], negs])
    Wr = state.Wout[out]
    R = (Wr @ z[:, :, None])[:, :, 0] + state.bout[out]
    sig = np.clip(sigmoid(R), 1e-12, 1.0 - 1e-12)
    total = float(-np.log(sig[:, 0]).sum() - np.log(1.0 - sig[:, 1:][neg_mask]).sum())

    live = np.hstack([np.ones((len(users), 1), dtype=bool), neg_mask])
    dR = sig * live
    dR[:, 0] -= 1.0
    # the output rows in reads' order: every positive, then the negatives
    dR_read = np.concatenate([dR[:, 0], dR[:, 1:][neg_mask]])
    z_read = np.vstack([z, np.repeat(z, neg_mask.sum(axis=1), axis=0)])
    gWout = out_rows.sum(dR_read[:, None] * z_read)
    gbout = out_rows.sum(dR_read)
    dz = (dR[:, None, :] @ Wr)[:, 0, :]
    gW2 = user_rows.sum(dz[:, k:] * h_u * (1.0 - h_u))
    dpre = dz[:, :k] * (pre > 0)
    gW = dpre.T @ x
    gb = dpre.sum(axis=0)
    dx = dpre @ state.W
    gW1, gw, start = np.zeros((item_rows.index.size, k)), [], 0
    for cache, d_pooled in ((long_cache, dx[:, :k]), (short_cache, dx[:, k:])):
        H, q, alpha, mask, Hv = cache
        dH, dq = pooled_attention_backward(H, q, alpha, d_pooled, mask)
        gw.append(dq.sum(axis=0))
        # W1's reads: the long-term items, then the context items
        gW1 += item_rows.sum(dH * Hv * (1.0 - Hv), slice(start, start + len(Hv)))
        start += len(Hv)
    return total, [gW1, gW2, gw[0], gw[1], gW, gb, gWout, gbout]


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
    history = data.Histories(split.train, dataset)
    step = minibatch.Sgd(state, loss_and_grads, reads, config.lr, l2_weights(config))
    minibatch.train(state, history, config.epochs, config.batch, rng, step)
    return state
