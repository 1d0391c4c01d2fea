"""Per-instance loop implementations of the DAS and CAN forward and kernels.

These are the reference the batched code in `recsuite.das` and
`recsuite.can` is tested against: one Python iteration per instance, the
whole DAS catalog scored per instance, and one dropout draw per instance.
`das_scores` / `can_scores` score one instance the way the models'
`score_items` did before scoring went through the batched `forward`.
`train_das` / `train_can` are the per-model trainers the shared minibatch
loop replaced; they fix the order of every random draw. `train_bpr` is
BPR's own per-pair epoch loop over (user, item) index pairs, with its
set-difference negative pools, which `minibatch.train` replaced.
"""

import numpy as np

from recsuite import baselines, can, das, data, minibatch
from recsuite.numeric import make_rng, sigmoid, softmax_backward


def softmax(scores) -> np.ndarray:
    """Probability vector via exp-normalization with max subtraction."""
    x = np.asarray(scores, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax input must be finite")
    e = np.exp(x - x.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# DAS


def attend(H: np.ndarray, w: np.ndarray):
    """Weighted sum of H's columns; weights = softmax of w·column scores."""
    if H.ndim != 2 or H.shape[1] == 0:
        raise ValueError("attention needs at least one embedding column")
    alpha = softmax(w @ H)
    return H @ alpha, alpha


def das_scores(state, user, long_items, short_items):
    """Catalog scores of one instance: Wout·[relu(W·[u_long, u_short] + b), h_u] + bout."""
    k = state.config.k
    u_long = (attend(sigmoid(state.W1[:, list(long_items)]), state.w_alpha)[0]
              if len(long_items) else np.zeros(k))
    u_short = (attend(sigmoid(state.W1[:, list(short_items)]), state.w_beta)[0]
               if len(short_items) else np.zeros(k))
    u_mix = np.maximum(state.W @ np.concatenate([u_long, u_short]) + state.b, 0.0)
    z = np.concatenate([u_mix, sigmoid(state.W2[:, user])])
    return state.Wout @ z + state.bout


def _attention_backward(H, w, alpha, d_out, gw):
    """Backprop d_out through (H @ softmax(w @ H)).

    Accumulates dL/dw into gw in place and returns dL/dH; the caller
    applies the sigmoid derivative before scattering into the item table.
    """
    d_alpha = H.T @ d_out
    dH = np.outer(d_out, alpha)
    d_logits = softmax_backward(alpha, d_alpha)
    gw += H @ d_logits
    dH += np.outer(w, d_logits)
    return dH


def das_loss_and_grads(state, batch):
    """Batch pairwise cross-entropy + L2, with gradients in params() order."""
    cfg = state.config
    k = cfg.k
    n_items = state.n_items
    grads = [np.zeros_like(p) for p in state.params()]
    gW1, gW2, gwa, gwb, gW, gb, gWout, gbout = grads
    total = 0.0

    for user, G, S, pos, negs in zip(
        batch.users, batch.longs, batch.shorts, batch.positives, batch.negatives
    ):
        if G:
            HG = sigmoid(state.W1[:, G])
            u_long, alpha = attend(HG, state.w_alpha)
        else:
            u_long = np.zeros(k)
        if S:
            HS = sigmoid(state.W1[:, S])
            u_short, beta = attend(HS, state.w_beta)
        else:
            u_short = np.zeros(k)
        x = np.concatenate([u_long, u_short])
        pre = state.W @ x + state.b
        u_mix = np.maximum(pre, 0.0)
        h_u = sigmoid(state.W2[:, user])
        z = np.concatenate([u_mix, h_u])
        R = state.Wout @ z + state.bout
        sig = np.clip(sigmoid(R), 1e-12, 1.0 - 1e-12)

        negs = [negs] if np.ndim(negs) == 0 else list(negs)
        total += -np.log(sig[pos]) - np.log(1.0 - sig[negs]).sum()

        dR = np.zeros(n_items)
        dR[pos] += sig[pos] - 1.0
        np.add.at(dR, negs, sig[negs])

        gWout += np.outer(dR, z)
        gbout += dR
        dz = state.Wout.T @ dR
        du_mix, dh_u = dz[:k], dz[k:]
        gW2[:, user] += dh_u * h_u * (1.0 - h_u)
        dpre = du_mix * (pre > 0)
        gW += np.outer(dpre, x)
        gb += dpre
        dx = state.W.T @ dpre
        du_long, du_short = dx[:k], dx[k:]
        if G:
            dHG = _attention_backward(HG, state.w_alpha, alpha, du_long, gwa)
            np.add.at(gW1, (slice(None), G), dHG * HG * (1.0 - HG))
        if S:
            dHS = _attention_backward(HS, state.w_beta, beta, du_short, gwb)
            np.add.at(gW1, (slice(None), S), dHS * HS * (1.0 - HS))

    total += cfg.lam_uv * ((state.W1**2).sum() + (state.W2**2).sum())
    total += cfg.lam_at * ((state.w_alpha**2).sum() + (state.w_beta**2).sum())
    gW1 += 2.0 * cfg.lam_uv * state.W1
    gW2 += 2.0 * cfg.lam_uv * state.W2
    gwa += 2.0 * cfg.lam_at * state.w_alpha
    gwb += 2.0 * cfg.lam_at * state.w_beta
    return float(total), grads


def train_das(split, dataset, config):
    """Minibatch SGD with one uniform negative per instance, drawn per batch."""
    rng = make_rng(config.seed)
    state = das.init_das(dataset.n_users, dataset.n_items, config, rng)
    prepared = data.prepared_instances(split, dataset)
    plist = state.params()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(prepared))
            epoch_total, n_batches = 0.0, 0
            for lo in range(0, len(order), config.batch):
                chunk = order[lo : lo + config.batch]
                batch = minibatch.Batch(users=[], longs=[], shorts=[], positives=[], negatives=[])
                for idx in chunk:
                    u, G, S, pos, pool = prepared[idx]
                    if pool.size == 0:
                        continue
                    batch.users.append(u)
                    batch.longs.append(G)
                    batch.shorts.append(S)
                    batch.positives.append(pos)
                    batch.negatives.append([int(pool[rng.integers(pool.size)])])
                if not batch.users:
                    continue
                loss, grads = das_loss_and_grads(state, batch)
                if not np.isfinite(loss):
                    raise FloatingPointError(f"epoch {epoch}: loss is {loss}")
                for p, g in zip(plist, grads):
                    p -= config.lr * g
                epoch_total += loss
                n_batches += 1
            state.trace.append(epoch_total / max(n_batches, 1))
    return state


# ---------------------------------------------------------------------------
# CAN


def conv_context(state, items):
    """relu(K_w · window_i + b_w) for each position of the ordered item list."""
    cfg = state.config
    K = (cfg.window - 1) // 2
    pad = np.zeros((K, cfg.D))
    X = np.vstack([pad, state.E[list(items)], pad])
    wins = np.stack([X[i : i + cfg.window].ravel() for i in range(len(items))])
    return np.maximum(wins @ state.K_w.T + state.b_w, 0.0)


def can_scores(state, user, long_items, short_items):
    """Catalog scores of one instance, without dropout: V_out · u."""
    cfg = state.config
    if len(long_items):
        C = conv_context(state, long_items)
        p = np.maximum(state.W1 @ state.U[:, user] + state.b1, 0.0)
        t = np.tanh(state.W2 @ p + state.b2)
        m = C.T @ softmax(C @ t)
    else:
        m = np.zeros(cfg.N_f)
    u = m
    if len(short_items):
        PD = np.maximum(state.E[list(short_items)] @ state.W3.T + state.b3, 0.0)
        Q = np.tanh(PD @ state.W4.T + state.b4)
        u = Q.T @ softmax(Q @ m)
    return state.V_out @ u


def can_loss_and_grads(state, batch, rng=None):
    """Pairwise BPR loss + L2, gradients aligned with state.params()."""
    cfg = state.config
    g = {n: np.zeros_like(getattr(state, n)) for n in can.PARAM_NAMES}
    vout = state.V_out
    K = (cfg.window - 1) // 2
    total = 0.0

    for user, G, S, pos, neg in zip(
        batch.users, batch.longs, batch.shorts, batch.positives, batch.negatives
    ):
        use_purpose = bool(len(G))
        use_pref = bool(len(S))
        if use_purpose:
            X = state.E[list(G)]
            if K:
                pad = np.zeros((K, cfg.D))
                X = np.vstack([pad, X, pad])
            Wins = np.stack([X[i : i + cfg.window].ravel() for i in range(len(G))])
            pre_c = Wins @ state.K_w.T + state.b_w
            C = np.maximum(pre_c, 0.0)
            M = can.dropout_mask(rng, C.shape, cfg.dropout) if rng is not None else 1.0
            Cd = C * M
            u_emb = state.U[:, user]
            pre1 = state.W1 @ u_emb + state.b1
            p = np.maximum(pre1, 0.0)
            pre2 = state.W2 @ p + state.b2
            t = np.tanh(pre2)
            alpha = softmax(Cd @ t)
            m = Cd.T @ alpha
        else:
            m = np.zeros(cfg.N_f)
        if use_pref:
            Es = state.E[S]
            pre_pd = Es @ state.W3.T + state.b3
            PD = np.maximum(pre_pd, 0.0)
            pre_q = PD @ state.W4.T + state.b4
            Q = np.tanh(pre_q)
            ap = softmax(Q @ m)
            u = Q.T @ ap
        else:
            u = m

        x = u @ (vout[pos] - vout[neg])
        total += -np.log(np.clip(sigmoid(x), 1e-12, 1.0 - 1e-12))

        s = sigmoid(x) - 1.0  # d(-ln sigma(x))/dx
        g["V_out"][pos] += s * u
        g["V_out"][neg] -= s * u
        du = s * (vout[pos] - vout[neg])

        if use_pref:
            dap = Q @ du
            dQ = np.outer(ap, du)
            dl = softmax_backward(ap, dap)
            dm = Q.T @ dl
            dQ += np.outer(dl, m)
            dpre_q = dQ * (1.0 - Q**2)
            g["W4"] += dpre_q.T @ PD
            g["b4"] += dpre_q.sum(axis=0)
            dPD = dpre_q @ state.W4
            dpre_pd = dPD * (pre_pd > 0)
            g["W3"] += dpre_pd.T @ Es
            g["b3"] += dpre_pd.sum(axis=0)
            np.add.at(g["E"], S, dpre_pd @ state.W3)
        else:
            dm = du

        if use_purpose:
            dalpha = Cd @ dm
            dCd = np.outer(alpha, dm)
            dl = softmax_backward(alpha, dalpha)
            dt = Cd.T @ dl
            dCd += np.outer(dl, t)
            dpre2 = dt * (1.0 - t**2)
            g["W2"] += np.outer(dpre2, p)
            g["b2"] += dpre2
            dp = state.W2.T @ dpre2
            dpre1 = dp * (pre1 > 0)
            g["W1"] += np.outer(dpre1, u_emb)
            g["b1"] += dpre1
            g["U"][:, user] += state.W1.T @ dpre1
            dC = dCd * M
            dpre_c = dC * (pre_c > 0)
            g["K_w"] += dpre_c.T @ Wins
            g["b_w"] += dpre_c.sum(axis=0)
            dWins = dpre_c @ state.K_w
            n = len(G)
            dXp = np.zeros((n + 2 * K, cfg.D))
            for i in range(n):
                dXp[i : i + cfg.window] += dWins[i].reshape(cfg.window, cfg.D)
            np.add.at(g["E"], G, dXp[K : K + n] if K else dXp)

    total += cfg.lam_uv * ((state.E**2).sum() + (state.U**2).sum())
    g["E"] += 2.0 * cfg.lam_uv * state.E
    g["U"] += 2.0 * cfg.lam_uv * state.U
    total += cfg.lam_uv * (state.V_out**2).sum()
    g["V_out"] += 2.0 * cfg.lam_uv * state.V_out
    for n_ in ("K_w", "b_w", "W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4"):
        arr = getattr(state, n_)
        total += cfg.lam_a * (arr**2).sum()
        g[n_] += 2.0 * cfg.lam_a * arr
    return float(total), [g[n_] for n_ in can.PARAM_NAMES]


def train_can(split, dataset, config):
    """Minibatch BPR; dropout masks come from the same generator as the negatives."""
    config.validate()
    rng = make_rng(config.seed)
    state = can.init_can(dataset.n_users, dataset.n_items, config, rng)
    prepared = data.prepared_instances(split, dataset)
    plist = state.params()
    drop_rng = rng if config.dropout > 0 else None
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(prepared))
            epoch_total, n_batches = 0.0, 0
            for lo in range(0, len(order), config.batch):
                batch = minibatch.Batch(users=[], longs=[], shorts=[], positives=[], negatives=[])
                for idx in order[lo : lo + config.batch]:
                    u, G, S, pos, pool = prepared[idx]
                    if pool.size == 0:
                        continue
                    batch.users.append(u)
                    batch.longs.append(G)
                    batch.shorts.append(S)
                    batch.positives.append(pos)
                    batch.negatives.append(int(pool[rng.integers(pool.size)]))
                if not batch.users:
                    continue
                loss, grads = can_loss_and_grads(state, batch, drop_rng)
                if not np.isfinite(loss):
                    raise FloatingPointError(f"epoch {epoch}: loss is {loss}")
                for p, gr in zip(plist, grads):
                    p -= config.lr * gr
                epoch_total += loss
                n_batches += 1
            state.trace.append(epoch_total / max(n_batches, 1))
    return state


# ---------------------------------------------------------------------------
# BPR


def train_bpr(pairs, n_users, n_items, config):
    """SGD with one uniform negative per positive, drawn outside the user's history."""
    rng = make_rng(config.seed)
    state = baselines.init_bpr(n_users, n_items, config, rng)
    P, Q = state.P, state.Q

    history = {}
    for u, i in pairs:
        history.setdefault(u, set()).add(i)
    complement = {
        u: np.array(sorted(set(range(n_items)) - seen), dtype=np.int64)
        for u, seen in history.items()
    }

    pairs = np.asarray(pairs, dtype=np.int64)
    lr, l2 = config.lr, config.l2
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(len(pairs))
            total, n_seen = 0.0, 0
            for idx in order:
                u, i = pairs[idx]
                pool = complement[u]
                if pool.size == 0:
                    continue
                j = pool[rng.integers(pool.size)]
                pu, qi, qj = P[u], Q[i], Q[j]
                data_loss, gp, gqi, gqj = baselines._bpr_triple(pu, qi, qj, l2)
                total += data_loss
                n_seen += 1
                P[u] = pu - lr * gp
                Q[i] = qi - lr * gqi
                Q[j] = qj - lr * gqj
            epoch_loss = total / max(n_seen, 1)
            if not np.isfinite(epoch_loss):
                raise FloatingPointError(f"training diverged (epoch loss {epoch_loss})")
            state.trace.append(float(epoch_loss))
    return state
