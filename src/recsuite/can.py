"""Convolutional purpose encoder with personalized attention scoring.

The long-term item list runs through a 1-D convolution (zero-padded,
odd window) into contextual vectors; a user-conditioned attention head
collapses them into one purpose vector m. Each short-term item is
re-encoded through two small layers, attended against m, and the
weighted sum u scores the catalog by inner product with an output item
table. `forward` is the one forward pass, on padded index lists
(`minibatch.Lists`): training runs it on a minibatch,
`CanState.score_batch` on the instances it scores. Training is pairwise
BPR with inverted dropout on the conv outputs.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import data, metrics, minibatch
from .numeric import (
    init_uniform_attention,
    make_rng,
    pooled_attention,
    pooled_attention_backward,
    sigmoid,
)

PARAM_NAMES = ("E", "U", "K_w", "b_w", "W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4", "V_out")


@dataclass
class CanConfig:
    D: int = 100  # item embedding width
    D_u: int = 100  # user embedding width
    N_f: int = 400  # conv kernels / attention width
    window: int = 3  # conv window, odd
    D_p: int = 200  # purpose query width
    D_q: int = 200  # preference query width
    dropout: float = 0.2
    lr: float = 0.01
    lam_uv: float = 1e-5
    lam_a: float = 1e-5
    batch: int = 50
    epochs: int = 10
    seed: int = 0

    def validate(self) -> "CanConfig":
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("conv window must be odd and positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        return self


@dataclass
class CanState(metrics.Ranker):
    E: np.ndarray  # n_items x D
    U: np.ndarray  # D_u x n_users
    K_w: np.ndarray  # N_f x window*D
    b_w: np.ndarray
    W1: np.ndarray  # D_p x D_u
    b1: np.ndarray
    W2: np.ndarray  # N_f x D_p
    b2: np.ndarray
    W3: np.ndarray  # D_q x D
    b3: np.ndarray
    W4: np.ndarray  # N_f x D_q
    b4: np.ndarray
    V_out: np.ndarray  # n_items x N_f
    config: CanConfig
    trace: list = field(default_factory=list)

    def params(self) -> list:
        return [getattr(self, n) for n in PARAM_NAMES]

    def score_batch(self, users, longs, shorts) -> np.ndarray:
        u, _ = forward(self, users, longs, shorts)
        return u @ self.V_out.T


def param_shapes(config: CanConfig, n_users: int, n_items: int) -> dict:
    """The shape of each parameter, by name, in PARAM_NAMES order."""
    c = config.validate()
    return {
        "E": (n_items, c.D),
        "U": (c.D_u, n_users),
        "K_w": (c.N_f, c.window * c.D),
        "b_w": (c.N_f,),
        "W1": (c.D_p, c.D_u),
        "b1": (c.D_p,),
        "W2": (c.N_f, c.D_p),
        "b2": (c.N_f,),
        "W3": (c.D_q, c.D),
        "b3": (c.D_q,),
        "W4": (c.N_f, c.D_q),
        "b4": (c.N_f,),
        "V_out": (n_items, c.N_f),
    }


def init_can(n_users: int, n_items: int, config: CanConfig, rng=None) -> CanState:
    shape = param_shapes(config, n_users, n_items)
    if rng is None:
        rng = make_rng(config.seed)
    E = rng.normal(0.0, 0.01, size=shape["E"])
    U = rng.normal(0.0, 0.01, size=shape["U"])
    V_out = rng.normal(0.0, 0.01, size=shape["V_out"])

    def attn(name):
        rows, cols = shape[name]
        return init_uniform_attention(rows, cols, cols, rng)

    return CanState(
        E=E,
        U=U,
        K_w=attn("K_w"),
        b_w=np.zeros(shape["b_w"]),
        W1=attn("W1"),
        b1=np.zeros(shape["b1"]),
        W2=attn("W2"),
        b2=np.zeros(shape["b2"]),
        W3=attn("W3"),
        b3=np.zeros(shape["b3"]),
        W4=attn("W4"),
        b4=np.zeros(shape["b4"]),
        V_out=V_out,
        config=config,
    )


# ---------------------------------------------------------------------------
# Forward


def _windows(state: CanState, items: np.ndarray, lengths: np.ndarray):
    """Conv windows over the positions of ragged ordered item lists.

    `items` holds the lists one after another, list b `lengths[b]` long.
    Returns (windows, src). Row r of windows is entry r of `items`: the
    concatenated embeddings of positions i-K..i+K of its list, i its own,
    zero outside the list; src[r, j] indexes into `items` the item window
    slot j reads, or is -1 for zero padding.
    """
    cfg = state.config
    K = (cfg.window - 1) // 2
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    offset = np.arange(items.size)[:, None] - starts[:, None] + np.arange(cfg.window) - K
    inside = (offset >= 0) & (offset < np.repeat(lengths, lengths)[:, None])
    src = np.where(inside, starts[:, None] + offset, -1)
    X = np.vstack([state.E[items], np.zeros(cfg.D)])  # row -1: the zero padding
    return X[src].reshape(items.size, -1), src


def dropout_mask(rng, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate), expectation 1."""
    if rate <= 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def forward(state: CanState, users, longs, shorts, rng=None):
    """User vectors u, one row per instance, and the cache of the backward pass.

    `longs` (ordered) and `shorts` hold one item-index list per user, as
    `minibatch.Lists` or padded here by `minibatch.pad`. An instance with an
    empty long-term list gets m = 0, and one with an empty context gets
    u = m, so withholding an input is the ablation of its encoder. Pass a
    generator to enable dropout on the conv outputs (training): one draw
    covers every conv row of the batch, in instance order, which gives the
    same values as one draw per instance. With rng=None the forward is
    deterministic.

    The cache holds `users`, `m`, the instances `rp` that run the purpose
    encoder and `rq` that run the preference encoder, and each encoder's
    intermediates, one row per instance of `rp` or `rq`: the padded conv
    rows `Cd`, the user queries `t` and the weights `alpha` of the purpose
    attention; the padded re-encoded context `Q`, its mask `s_mask` and the
    weights `ap` of the preference attention.
    """
    cfg = state.config
    c = SimpleNamespace(users=np.asarray(users, dtype=np.int64))
    longs, shorts = minibatch.pad(longs), minibatch.pad(shorts)
    # the lists that are not empty; their padding is the whole batch's
    c.rp = np.flatnonzero(longs.mask[:, 0])
    c.rq = np.flatnonzero(shorts.mask[:, 0])

    c.m = np.zeros((len(c.users), cfg.N_f))
    if c.rp.size:
        c.g_mask = longs.mask[c.rp]
        c.wins, c.src = _windows(state, longs.flat, c.g_mask.sum(axis=1))
        c.pre_c = c.wins @ state.K_w.T + state.b_w
        c.M = dropout_mask(rng, c.pre_c.shape, cfg.dropout) if rng is not None else 1.0
        c.Cd = np.zeros(c.g_mask.shape + (cfg.N_f,))
        c.Cd[c.g_mask] = np.maximum(c.pre_c, 0.0) * c.M
        c.u_emb = state.U[:, c.users[c.rp]].T
        c.pre1 = c.u_emb @ state.W1.T + state.b1
        c.p = np.maximum(c.pre1, 0.0)
        c.t = np.tanh(c.p @ state.W2.T + state.b2)
        c.m[c.rp], c.alpha = pooled_attention(c.Cd, c.t, c.g_mask)
    u = c.m.copy()
    if c.rq.size:
        c.s_mask = shorts.mask[c.rq]
        c.Es = state.E[shorts.flat]
        c.pre_pd = c.Es @ state.W3.T + state.b3
        c.PD = np.maximum(c.pre_pd, 0.0)
        c.Qv = np.tanh(c.PD @ state.W4.T + state.b4)
        c.Q = np.zeros(c.s_mask.shape + (cfg.N_f,))
        c.Q[c.s_mask] = c.Qv
        u[c.rq], c.ap = pooled_attention(c.Q, c.m[c.rq], c.s_mask)
    return u, c


# ---------------------------------------------------------------------------
# Loss and gradients


def reads(batch: minibatch.Batch) -> list:
    """The `minibatch.Rows` of each table a batch reads, aligned with params().

    E is read at the long-term items, then the context items; U at the
    users (by column); V_out at the positives, then the negatives.
    `loss_and_grads` lists its table gradients in this order.
    """
    items = minibatch.Rows.of(np.concatenate([batch.longs.flat, batch.shorts.flat]))
    outputs = minibatch.Rows.of(np.concatenate([batch.positives, batch.negatives.flat]))
    return [items, minibatch.Rows.of(batch.users, axis=1)] + [None] * 10 + [outputs]


def l2_weights(config: CanConfig) -> tuple:
    """The L2 weight of each parameter: lam_uv on the tables E, U and
    V_out, lam_a on every other layer."""
    return tuple(config.lam_uv if name in ("E", "U", "V_out") else config.lam_a
                 for name in PARAM_NAMES)


def loss_and_grads(state: CanState, batch: minibatch.Batch, rng=None, rows=None):
    """Pairwise BPR loss, with its gradients in params() order.

    `forward` encodes every instance at once; `rng` enables its dropout
    (training), and rng=None gives the deterministic inference path. Each
    table's gradient (E, U, V_out) comes as one row per entry of its
    `reads(batch)` (or `rows`) index; the other gradients are whole. The L2
    terms (`l2_weights`) are the trainer's, not part of this loss.
    """
    cfg = state.config
    item_rows, user_rows, *_, out_rows = reads(batch) if rows is None else rows
    u, c = forward(state, batch.users, batch.longs, batch.shorts, rng)
    rp, rq = c.rp, c.rq
    vout = state.V_out
    diff = vout[batch.positives] - vout[batch.negatives.flat]  # one negative each
    sig = sigmoid((u * diff).sum(axis=1))  # sigma(x), x = u · diff
    total = float(-np.log(np.clip(sig, 1e-12, 1.0 - 1e-12)).sum())

    s = (sig - 1.0)[:, None]  # d(-ln sigma(x))/dx
    dm = s * diff
    n_long = batch.longs.flat.size  # E's reads: the long-term items, then the context
    g = {"E": np.zeros((item_rows.index.size, cfg.D)),
         "U": np.zeros((user_rows.index.size, cfg.D_u)),
         "V_out": out_rows.sum(np.vstack([s * u, -s * u]))}

    if rq.size:
        dQ, dm[rq] = pooled_attention_backward(c.Q, c.m[rq], c.ap, dm[rq], c.s_mask)
        dpre_q = dQ * (1.0 - c.Qv**2)
        g["W4"] = dpre_q.T @ c.PD
        g["b4"] = dpre_q.sum(axis=0)
        dpre_pd = (dpre_q @ state.W4) * (c.pre_pd > 0)
        g["W3"] = dpre_pd.T @ c.Es
        g["b3"] = dpre_pd.sum(axis=0)
        g["E"] += item_rows.sum(dpre_pd @ state.W3, slice(n_long, None))

    if rp.size:
        dCd, dt = pooled_attention_backward(c.Cd, c.t, c.alpha, dm[rp], c.g_mask)
        dpre2 = dt * (1.0 - c.t**2)
        g["W2"] = dpre2.T @ c.p
        g["b2"] = dpre2.sum(axis=0)
        dpre1 = (dpre2 @ state.W2) * (c.pre1 > 0)
        g["W1"] = dpre1.T @ c.u_emb
        g["b1"] = dpre1.sum(axis=0)
        g["U"] = user_rows.sum(dpre1 @ state.W1, rp)
        dpre_c = dCd * c.M * (c.pre_c > 0)
        g["K_w"] = dpre_c.T @ c.wins
        g["b_w"] = dpre_c.sum(axis=0)
        # each window slot's gradient lands on the position it read; within
        # one slot every position is read at most once, padding aside
        d_wins = (dpre_c @ state.K_w).reshape(len(c.src), cfg.window, cfg.D)
        dX = np.zeros((len(c.src) + 1, cfg.D))  # row -1 collects the padding's
        for j in range(cfg.window):
            dX[c.src[:, j]] += d_wins[:, j]
        g["E"] += item_rows.sum(dX[:-1], slice(0, n_long))
    # a layer that no instance of the batch reached has a zero gradient
    return total, [g[n] if n in g else np.zeros_like(p)
                   for n, p in zip(PARAM_NAMES, state.params())]


# ---------------------------------------------------------------------------
# Training


def train_can(split: data.Split, dataset: data.Dataset, config: CanConfig) -> CanState:
    """Minibatch BPR over per-position holdout instances (one negative each).

    Dropout applies on conv outputs during training only; the stored
    state scores deterministically.
    """
    config.validate()
    rng = make_rng(config.seed)
    state = init_can(dataset.n_users, dataset.n_items, config, rng)
    history = data.Histories(split.train, dataset)
    drop_rng = rng if config.dropout > 0 else None
    step = minibatch.Sgd(state, lambda st, batch, rows: loss_and_grads(st, batch, drop_rng, rows),
                         reads, config.lr, l2_weights(config))
    minibatch.train(state, history, config.epochs, config.batch, rng, step)
    return state
