"""Per-instance loop implementations of the DAS and CAN training kernels.

These are the reference the batched kernels in `recsuite.das` and
`recsuite.can` are tested against: one Python iteration per instance, the
whole DAS catalog scored per instance, and one dropout draw per instance.
`train_das` / `train_can` are the per-model trainers the shared minibatch
loop replaced; they fix the order of every random draw.
"""

import numpy as np

from recsuite import can, das, data
from recsuite.numeric import make_rng, sigmoid, softmax, softmax_backward


# ---------------------------------------------------------------------------
# DAS


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
            u_long, alpha = das.attend(HG, state.w_alpha)
        else:
            u_long = np.zeros(k)
        if S:
            HS = sigmoid(state.W1[:, S])
            u_short, beta = das.attend(HS, state.w_beta)
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
    if cfg.reg_dense:
        total += cfg.lam_uv * ((state.W**2).sum() + (state.Wout**2).sum())
        gW += 2.0 * cfg.lam_uv * state.W
        gWout += 2.0 * cfg.lam_uv * state.Wout
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
                batch = das.Batch(users=[], longs=[], shorts=[], positives=[], negatives=[])
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


def can_loss_and_grads(state, batch, rng=None):
    """Pairwise BPR loss + L2, gradients aligned with state.params()."""
    cfg = state.config
    names = [n for n in can._PARAM_BASE]
    if not cfg.tie_embeddings:
        names.append("V_out")
    g = {n: np.zeros_like(getattr(state, n)) for n in names}
    gV = g["E"] if cfg.tie_embeddings else g["V_out"]
    vout = state.V_out
    K = (cfg.window - 1) // 2
    total = 0.0

    for user, G, S, pos, neg in zip(
        batch.users, batch.longs, batch.shorts, batch.positives, batch.negatives
    ):
        use_purpose = bool(len(G)) and not cfg.disable_purpose
        use_pref = bool(len(S)) and not cfg.disable_preference
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
        gV[pos] += s * u
        gV[neg] -= s * u
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
    if not cfg.tie_embeddings:
        total += cfg.lam_uv * (state.V_out**2).sum()
        g["V_out"] += 2.0 * cfg.lam_uv * state.V_out
    for n_ in ("K_w", "b_w", "W1", "b1", "W2", "b2", "W3", "b3", "W4", "b4"):
        arr = getattr(state, n_)
        total += cfg.lam_a * (arr**2).sum()
        g[n_] += 2.0 * cfg.lam_a * arr
    return float(total), [g[n_] for n_ in names]


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
                batch = can.Batch(users=[], longs=[], shorts=[], positives=[], negatives=[])
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
