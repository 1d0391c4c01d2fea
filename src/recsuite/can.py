"""Convolutional purpose encoder with personalized attention scoring.

The long-term item list runs through a 1-D convolution (zero-padded,
odd window) into contextual vectors; a user-conditioned attention head
collapses them into one purpose vector m. Each short-term item is
re-encoded through two small layers, attended against m, and the
weighted sum u scores the catalog by inner product with an output item
table. Training is pairwise BPR with inverted dropout on the conv
outputs.
"""

from dataclasses import dataclass, field
from itertools import chain

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

_PARAM_BASE = ("E", "U", "K_w", "b_w", "W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4")


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
    tie_embeddings: bool = False  # V_out is E itself; requires N_f == D
    disable_purpose: bool = False  # ablation: m = 0 always
    disable_preference: bool = False  # ablation: u = m directly

    def validate(self) -> "CanConfig":
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("conv window must be odd and positive")
        if self.tie_embeddings and self.N_f != self.D:
            raise ValueError("tied output table needs N_f == D")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        return self


@dataclass
class CanState:
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
    V_out: np.ndarray  # n_items x N_f (alias of E when tied)
    config: CanConfig
    trace: list = field(default_factory=list)

    def params(self) -> list:
        names = _PARAM_BASE if self.config.tie_embeddings else _PARAM_BASE + ("V_out",)
        return [getattr(self, n) for n in names]

    @classmethod
    def from_params(cls, plist, config: CanConfig) -> "CanState":
        if config.tie_embeddings:
            return cls(*plist, V_out=plist[0], config=config)
        return cls(*plist, config=config)

    def score_items(self, user, long_items, short_items) -> np.ndarray:
        return self.V_out @ user_vector(self, user, long_items, short_items)


def init_can(n_users: int, n_items: int, config: CanConfig, rng=None) -> CanState:
    config.validate()
    if rng is None:
        rng = make_rng(config.seed)
    E = init_normal(n_items, config.D, 0.0, 0.01, rng)
    U = init_normal(config.D_u, n_users, 0.0, 0.01, rng)
    wd = config.window * config.D

    def attn(rows, cols):
        return init_uniform_attention(rows, cols, cols, rng)

    V_out = E if config.tie_embeddings else init_normal(n_items, config.N_f, 0.0, 0.01, rng)
    return CanState(
        E=E,
        U=U,
        K_w=attn(config.N_f, wd),
        b_w=np.zeros(config.N_f),
        W1=attn(config.D_p, config.D_u),
        b1=np.zeros(config.D_p),
        W2=attn(config.N_f, config.D_p),
        b2=np.zeros(config.N_f),
        W3=attn(config.D_q, config.D),
        b3=np.zeros(config.D_q),
        W4=attn(config.N_f, config.D_q),
        b4=np.zeros(config.N_f),
        V_out=V_out,
        config=config,
    )


# ---------------------------------------------------------------------------
# Forward pieces


def _windows(state: CanState, lists):
    """Conv windows over the positions of ragged ordered item lists.

    Returns (windows, items, src). Row r of windows is position i of its
    list: the concatenated embeddings of positions i-K..i+K, zero outside
    the list. `items` is the lists concatenated, and src[r, j] indexes
    into it the item window slot j reads, or is -1 for zero padding.
    """
    cfg = state.config
    K = (cfg.window - 1) // 2
    lengths = np.array([len(x) for x in lists], dtype=np.int64)
    items = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(lengths.sum()))
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    offset = np.arange(items.size)[:, None] - starts[:, None] + np.arange(cfg.window) - K
    inside = (offset >= 0) & (offset < np.repeat(lengths, lengths)[:, None])
    src = np.where(inside, starts[:, None] + offset, -1)
    X = np.vstack([state.E[items], np.zeros(cfg.D)])  # row -1: the zero padding
    return X[src].reshape(items.size, -1), items, src


def conv_context(state: CanState, items) -> np.ndarray:
    """relu(K_w · window_i + b_w) for each position of the ordered item list."""
    if not len(items):
        raise ValueError("convolution needs at least one item")
    pre = _windows(state, [items])[0] @ state.K_w.T + state.b_w
    return np.maximum(pre, 0.0)


def purpose_vector(state: CanState, user: int) -> np.ndarray:
    return np.maximum(state.W1 @ state.U[:, user] + state.b1, 0.0)


def purpose_encode(state: CanState, C: np.ndarray, p: np.ndarray):
    """Attention over contextual rows of C, queried by the user's purpose p."""
    t = np.tanh(state.W2 @ p + state.b2)
    alpha = softmax(C @ t)
    return C.T @ alpha, alpha


def preference_encode(state: CanState, short_items, m: np.ndarray):
    """Re-encode short-term items and attend them against the purpose vector."""
    Es = state.E[list(short_items)]
    PD = np.maximum(Es @ state.W3.T + state.b3, 0.0)
    Q = np.tanh(PD @ state.W4.T + state.b4)
    ap = softmax(Q @ m)
    return Q.T @ ap, ap


def dropout_mask(rng, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate), expectation 1."""
    if rate <= 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def user_vector(state: CanState, user: int, long_items, short_items) -> np.ndarray:
    """Inference-path user representation (no dropout)."""
    cfg = state.config
    if len(long_items) and not cfg.disable_purpose:
        C = conv_context(state, long_items)
        m, _ = purpose_encode(state, C, purpose_vector(state, user))
    else:
        m = np.zeros(cfg.N_f)
    if cfg.disable_preference or not len(short_items):
        return m
    u, _ = preference_encode(state, short_items, m)
    return u


# ---------------------------------------------------------------------------
# Loss and gradients


def loss_and_grads(state: CanState, batch: Batch, rng=None, out=None):
    """Pairwise BPR loss + L2, gradients aligned with state.params().

    All instances go through each layer at once. Pass a generator to enable
    dropout on the conv outputs (training): one draw covers every conv row
    of the batch, in instance order, which gives the same values as one
    draw per instance. With rng=None the forward is the deterministic
    inference path. `out`, arrays shaped like params(), receives the
    gradients in place of new arrays.
    """
    cfg = state.config
    names = _PARAM_BASE if cfg.tie_embeddings else _PARAM_BASE + ("V_out",)
    grads = [np.empty_like(p) for p in state.params()] if out is None else out
    g = dict(zip(names, grads))
    # every gradient starts as its L2 term; the data terms add to the rows
    # (or columns) the batch touched
    total = 0.0
    for name, param, grad in zip(names, state.params(), grads):
        lam = cfg.lam_uv if name in ("E", "U", "V_out") else cfg.lam_a
        np.multiply(param, 2.0 * lam, out=grad)
        total += lam * np.vdot(param, param)
    gV = g["E"] if cfg.tie_embeddings else g["V_out"]
    vout = state.V_out
    users = np.asarray(batch.users, dtype=np.int64)
    pos = np.asarray(batch.positives, dtype=np.int64)
    neg = np.asarray(batch.negatives, dtype=np.int64)
    # instances that run the purpose / preference encoder
    rp = [b for b, G in enumerate(batch.longs) if len(G) and not cfg.disable_purpose]
    rq = [b for b, S in enumerate(batch.shorts) if len(S) and not cfg.disable_preference]

    m = np.zeros((len(users), cfg.N_f))
    if rp:
        longs = [batch.longs[b] for b in rp]
        _, g_mask = minibatch.pad(longs)
        wins, g_flat, src = _windows(state, longs)
        pre_c = wins @ state.K_w.T + state.b_w
        M = dropout_mask(rng, pre_c.shape, cfg.dropout) if rng is not None else 1.0
        Cd = np.zeros(g_mask.shape + (cfg.N_f,))
        Cd[g_mask] = np.maximum(pre_c, 0.0) * M
        u_emb = state.U[:, users[rp]].T
        pre1 = u_emb @ state.W1.T + state.b1
        p = np.maximum(pre1, 0.0)
        t = np.tanh(p @ state.W2.T + state.b2)
        m[rp], alpha = pooled_attention(Cd, t, g_mask)
    u = m.copy()
    if rq:
        s_idx, s_mask = minibatch.pad([batch.shorts[b] for b in rq])
        s_flat = s_idx[s_mask]
        Es = state.E[s_flat]
        pre_pd = Es @ state.W3.T + state.b3
        PD = np.maximum(pre_pd, 0.0)
        Qv = np.tanh(PD @ state.W4.T + state.b4)
        Q = np.zeros(s_mask.shape + (cfg.N_f,))
        Q[s_mask] = Qv
        u[rq], ap = pooled_attention(Q, m[rq], s_mask)

    diff = vout[pos] - vout[neg]
    x = (u * diff).sum(axis=1)
    total += -np.log(np.clip(sigmoid(x), 1e-12, 1.0 - 1e-12)).sum()

    s = (sigmoid(x) - 1.0)[:, None]  # d(-ln sigma(x))/dx
    add_rows(gV, np.concatenate([pos, neg]), np.vstack([s * u, -s * u]))
    dm = s * diff

    if rq:
        dQ, dm[rq] = pooled_attention_backward(Q, m[rq], ap, dm[rq])
        dpre_q = dQ[s_mask] * (1.0 - Qv**2)
        g["W4"] += dpre_q.T @ PD
        g["b4"] += dpre_q.sum(axis=0)
        dpre_pd = (dpre_q @ state.W4) * (pre_pd > 0)
        g["W3"] += dpre_pd.T @ Es
        g["b3"] += dpre_pd.sum(axis=0)
        add_rows(g["E"], s_flat, dpre_pd @ state.W3)

    if rp:
        dCd, dt = pooled_attention_backward(Cd, t, alpha, dm[rp])
        dpre2 = dt * (1.0 - t**2)
        g["W2"] += dpre2.T @ p
        g["b2"] += dpre2.sum(axis=0)
        dpre1 = (dpre2 @ state.W2) * (pre1 > 0)
        g["W1"] += dpre1.T @ u_emb
        g["b1"] += dpre1.sum(axis=0)
        add_rows(g["U"].T, users[rp], dpre1 @ state.W1)
        dpre_c = dCd[g_mask] * M * (pre_c > 0)
        g["K_w"] += dpre_c.T @ wins
        g["b_w"] += dpre_c.sum(axis=0)
        # each window slot's gradient lands on the position it read; within
        # one slot every position is read at most once, padding aside
        d_wins = (dpre_c @ state.K_w).reshape(len(src), cfg.window, cfg.D)
        dX = np.zeros((len(g_flat) + 1, cfg.D))  # row -1 collects the padding's
        for j in range(cfg.window):
            dX[src[:, j]] += d_wins[:, j]
        add_rows(g["E"], g_flat, dX[:-1])

    return float(total), grads


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
    prepared = data.prepared_instances(split, dataset)
    drop_rng = rng if config.dropout > 0 else None
    return minibatch.train(
        state, prepared, config, rng,
        lambda st, batch, out: loss_and_grads(st, batch, drop_rng, out),
    )
