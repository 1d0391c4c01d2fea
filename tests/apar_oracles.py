"""Reference implementations that the APAR pipeline replaced.

`recsuite.apar` works on one trait-group label per user; these are the
dense originals it is tested against: the n x n similarity L over users who
share a dominant trait, the mixing matrix A and the Laplacian Y built from
it, and the objective, gradients, multiplicative step and blended
prediction as products with those matrices. `categorize` is the trait
scorer that matches every token against every category word in turn.

`group_objective`, `group_objective_grads`, `group_multiplicative_step`,
`group_guarded_step` and `group_train` are the group-kernel originals of
`apar.objective`, `objective_grads`, `multiplicative_step`, `guarded_step`
and `train_apar` from before the workspace: each allocates every users x
items array it needs and computes the masked product afresh, twice per
step, where `apar` writes it into `AparProblem`'s buffers once.
"""

from dataclasses import dataclass

import numpy as np

from recsuite import apar, personality
from recsuite.numeric import make_rng

_EPS = 1e-12


def categorize(text, lexicon):
    """Per-category proportion of tokens matching that category's words."""
    tokens = personality.tokenize(text)
    if not tokens:
        return {cat: 0.0 for cat in lexicon}
    proportions = {}
    for cat, words in lexicon.items():
        exact = {w for w in words if not w.endswith("*")}
        stems = [w[:-1] for w in words if w.endswith("*")]
        matched = sum(
            1
            for tok in tokens
            if tok in exact or any(tok.startswith(s) for s in stems)
        )
        proportions[cat] = matched / len(tokens)
    return proportions


def similarity(profiles, users):
    """L[a, b] = 1 iff users a != b both have a profile with the same dominant
    trait; profiles maps user tokens to `oracles.PersonalityProfile`s."""
    L = np.zeros((len(users), len(users)))
    for a, ua in enumerate(users):
        for b, ub in enumerate(users):
            if a != b and ua in profiles and ub in profiles:
                L[a, b] = float(profiles[ua].dominant == profiles[ub].dominant)
    return L


def clique_matrix(groups):
    """L of the clique graph given by one label per user."""
    groups = np.asarray(groups)
    return (groups[:, None] == groups[None, :]).astype(float) - np.eye(len(groups))


def mix_matrix(gamma, L):
    """Row-stochastic blend of self-weight gamma and mean over L-neighbors.

    Users with no neighbors fall back to themselves entirely.
    """
    n = len(gamma)
    A = np.zeros((n, n))
    for i in range(n):
        row = np.asarray(L[i], dtype=np.float64)
        s = row.sum()
        if s > 0:
            A[i] = (1.0 - gamma[i]) * row / s
            A[i, i] += gamma[i]
        else:
            A[i, i] = 1.0
    return A


def laplacian(L):
    L = np.asarray(L, dtype=np.float64)
    return np.diag(L.sum(axis=1)) - L


@dataclass
class DenseProblem:
    W: np.ndarray
    mask: np.ndarray
    L: np.ndarray
    gamma: np.ndarray
    A: np.ndarray
    Y: np.ndarray
    degrees: np.ndarray
    alpha1: float
    alpha2: float
    lam: float

    @classmethod
    def build(cls, W, mask, L, gamma, alpha1, alpha2, lam):
        W = np.asarray(W, dtype=np.float64)
        L = np.asarray(L, dtype=np.float64)
        gamma = np.asarray(gamma, dtype=np.float64)
        return cls(W=W, mask=np.asarray(mask, dtype=bool), L=L, gamma=gamma,
                   A=mix_matrix(gamma, L), Y=laplacian(L), degrees=L.sum(axis=1),
                   alpha1=alpha1, alpha2=alpha2, lam=lam)


def objective(P, Q, prob):
    E = prob.mask * (prob.A @ P @ Q.T - prob.W)
    val = 0.5 * float((E**2).sum())
    val += prob.alpha1 * float((P**2).sum()) + prob.alpha2 * float((Q**2).sum())
    if prob.lam:
        val += prob.lam * float(np.trace(P.T @ prob.Y @ P))
    return val


def objective_grads(P, Q, prob):
    E = prob.mask * (prob.A @ P @ Q.T - prob.W)
    gP = prob.A.T @ E @ Q + 2.0 * prob.alpha1 * P + 2.0 * prob.lam * (prob.Y @ P)
    gQ = E.T @ (prob.A @ P) + 2.0 * prob.alpha2 * Q
    return gP, gQ


def multiplicative_step(P, Q, prob):
    A, mask, W = prob.A, prob.mask, prob.W
    obs_W = mask * W

    AP = A @ P
    fitted = mask * (AP @ Q.T)
    num_P = A.T @ obs_W @ Q + 2.0 * prob.lam * (prob.L @ P)
    den_P = (
        A.T @ fitted @ Q
        + 2.0 * prob.alpha1 * P
        + 2.0 * prob.lam * (prob.degrees[:, None] * P)
        + _EPS
    )
    P2 = P * (num_P / den_P)

    AP2 = A @ P2
    fitted2 = mask * (AP2 @ Q.T)
    num_Q = obs_W.T @ AP2
    den_Q = fitted2.T @ AP2 + 2.0 * prob.alpha2 * Q + _EPS
    Q2 = Q * (num_Q / den_Q)
    return P2, Q2


def blend_row(P, L, gamma, user):
    """gamma-weighted mix of the user's own latent row and neighbors' mean."""
    own = P[user]
    neigh = np.nonzero(L[user])[0]
    if neigh.size == 0:
        return own
    g = gamma[user]
    return g * own + (1.0 - g) * P[neigh].mean(axis=0)


def group_objective(P, Q, prob):
    E = prob.mask * (prob.graph.mix(P) @ Q.T - prob.W)
    val = 0.5 * float((E**2).sum())
    val += prob.alpha1 * float((P**2).sum()) + prob.alpha2 * float((Q**2).sum())
    if prob.lam:
        val += prob.lam * float((P * prob.graph.laplacian(P)).sum())  # tr(P'YP)
    return val


def group_objective_grads(P, Q, prob):
    AP = prob.graph.mix(P)
    E = prob.mask * (AP @ Q.T - prob.W)
    gP = prob.graph.mix_t(E @ Q) + 2.0 * prob.alpha1 * P
    gP += 2.0 * prob.lam * prob.graph.laplacian(P)
    gQ = E.T @ AP + 2.0 * prob.alpha2 * Q
    return gP, gQ


def group_multiplicative_step(P, Q, prob):
    g, mask, obs_W = prob.graph, prob.mask, prob.W

    AP = g.mix(P)
    fitted = mask * (AP @ Q.T)
    num_P = g.mix_t(obs_W @ Q) + 2.0 * prob.lam * g.adjacent(P)
    den_P = (
        g.mix_t(fitted @ Q)
        + 2.0 * prob.alpha1 * P
        + 2.0 * prob.lam * (g.degree * P)
        + _EPS
    )
    P2 = P * (num_P / den_P)

    AP2 = g.mix(P2)
    fitted2 = mask * (AP2 @ Q.T)
    num_Q = obs_W.T @ AP2
    den_Q = fitted2.T @ AP2 + 2.0 * prob.alpha2 * Q + _EPS
    Q2 = Q * (num_Q / den_Q)
    return P2, Q2


def group_guarded_step(P, Q, prob, prev_obj):
    P2, Q2 = group_multiplicative_step(P, Q, prob)
    val = group_objective(P2, Q2, prob)
    if val <= prev_obj + 1e-12:
        return P2, Q2, False, val
    gP, gQ = group_objective_grads(P, Q, prob)
    step = 1.0
    for _ in range(60):
        P3 = np.maximum(P - step * gP, 0.0)
        Q3 = np.maximum(Q - step * gQ, 0.0)
        val = group_objective(P3, Q3, prob)
        if np.isfinite(val) and val <= prev_obj:
            return P3, Q3, True, val
        step *= 0.5
    return P, Q, True, prev_obj


def group_train(W, mask, groups, gamma, config):
    """(P, Q, trace, fallback count), as `train_apar` trains them."""
    W = np.asarray(W, dtype=np.float64)
    prob = apar.AparProblem.build(W, mask, groups, gamma, config.alpha1, config.alpha2,
                                  config.lam)
    rng = make_rng(config.seed)
    P = 0.1 * (1.0 - rng.random((W.shape[0], config.d)))
    Q = 0.1 * (1.0 - rng.random((W.shape[1], config.d)))
    prev, trace, fallbacks = group_objective(P, Q, prob), [], 0
    for _ in range(config.max_iters):
        P, Q, used, cur = group_guarded_step(P, Q, prob, prev)
        fallbacks += int(used)
        trace.append(cur)
        if abs(prev - cur) / max(prev, _EPS) < config.tol:
            break
        prev = cur
    return P, Q, trace, fallbacks
