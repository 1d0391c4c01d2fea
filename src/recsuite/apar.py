"""Personality- and knowledge-aware nonnegative matrix factorization.

Ratings are modeled as a per-user convex blend of the user's own latent
profile and the mean profile of same-personality neighbors; the blend
weight gamma comes from domain knowledge. Training keeps both factor
matrices nonnegative via multiplicative updates, with a projected
gradient fallback on any step that would raise the objective.
"""

import numpy as np
from dataclasses import dataclass, field

from .numeric import make_rng

_EPS = 1e-12


def gamma_value(beta: float, kl_norm: float) -> float:
    return min(1.0, max(0.0, beta + kl_norm))


def gamma_vector(users, kl_map, beta: float, override: float | None = None) -> np.ndarray:
    """Per-user blend weights; a global override replaces the knowledge-based rule."""
    if override is not None:
        return np.full(len(users), float(override))
    return np.array([gamma_value(beta, kl_map.get(u, 0.0)) for u in users])


def mix_matrix(gamma: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Row-stochastic blend of self-weight gamma and mean over L-neighbors.

    Users with no neighbors fall back to themselves entirely, so gamma
    becomes irrelevant for them and predictions degrade to plain MF.
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


def laplacian(L: np.ndarray) -> np.ndarray:
    L = np.asarray(L, dtype=np.float64)
    return np.diag(L.sum(axis=1)) - L


@dataclass
class AparConfig:
    d: int = 100
    alpha1: float = 0.1
    alpha2: float = 0.1
    lam: float = 0.1
    beta: float = 0.5
    gamma_override: float | None = None
    max_iters: int = 500
    tol: float = 1e-5
    seed: int = 0


@dataclass
class AparProblem:
    """Fixed quantities of one training problem (data, masks, graph pieces)."""

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
    def build(cls, W, mask, L, gamma, alpha1, alpha2, lam) -> "AparProblem":
        W = np.asarray(W, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        L = np.asarray(L, dtype=np.float64)
        gamma = np.asarray(gamma, dtype=np.float64)
        if W.shape != mask.shape:
            raise ValueError("ratings and mask shapes differ")
        if L.shape != (W.shape[0], W.shape[0]) or gamma.shape != (W.shape[0],):
            raise ValueError("similarity/gamma shapes do not match the user count")
        return cls(
            W=W,
            mask=mask,
            L=L,
            gamma=gamma,
            A=mix_matrix(gamma, L),
            Y=laplacian(L),
            degrees=L.sum(axis=1),
            alpha1=alpha1,
            alpha2=alpha2,
            lam=lam,
        )


def objective(P: np.ndarray, Q: np.ndarray, prob: AparProblem) -> float:
    E = prob.mask * (prob.A @ P @ Q.T - prob.W)
    val = 0.5 * float((E**2).sum())
    val += prob.alpha1 * float((P**2).sum()) + prob.alpha2 * float((Q**2).sum())
    if prob.lam:
        val += prob.lam * float(np.trace(P.T @ prob.Y @ P))
    return val


def objective_grads(P: np.ndarray, Q: np.ndarray, prob: AparProblem):
    E = prob.mask * (prob.A @ P @ Q.T - prob.W)
    gP = prob.A.T @ E @ Q + 2.0 * prob.alpha1 * P + 2.0 * prob.lam * (prob.Y @ P)
    gQ = E.T @ (prob.A @ P) + 2.0 * prob.alpha2 * Q
    return gP, gQ


def multiplicative_step(P: np.ndarray, Q: np.ndarray, prob: AparProblem):
    """One alternating multiplicative update; preserves nonnegativity by form.

    Each factor is scaled by (negative gradient part) / (positive gradient
    part): entries with zero gradient keep ratio 1 and stay put.
    """
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


def guarded_step(P: np.ndarray, Q: np.ndarray, prob: AparProblem, prev_obj: float):
    """Multiplicative step that never lets the objective rise.

    Returns (P, Q, used_fallback, objective at the returned P, Q). If the
    multiplicative proposal raises the objective, retries with a projected
    (clamped at 0) gradient step under backtracking halving; if even that
    finds no descent, stays put and returns prev_obj, the objective there.
    """
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise FloatingPointError("non-finite factor entries")
    P2, Q2 = multiplicative_step(P, Q, prob)
    if not (np.all(np.isfinite(P2)) and np.all(np.isfinite(Q2))):
        raise FloatingPointError("multiplicative update produced non-finite entries")
    val = objective(P2, Q2, prob)
    if val <= prev_obj + 1e-12:
        return P2, Q2, False, val

    gP, gQ = objective_grads(P, Q, prob)
    step = 1.0
    for _ in range(60):
        P3 = np.maximum(P - step * gP, 0.0)
        Q3 = np.maximum(Q - step * gQ, 0.0)
        val = objective(P3, Q3, prob)
        if np.isfinite(val) and val <= prev_obj:
            return P3, Q3, True, val
        step *= 0.5
    return P, Q, True, prev_obj  # no descent direction small enough; hold position


@dataclass
class AparState:
    P: np.ndarray
    Q: np.ndarray
    gamma: np.ndarray
    L: np.ndarray
    config: AparConfig
    converged: bool = True
    trace: list = field(default_factory=list)
    fallback_steps: int = 0

    def _blend_row(self, user: int) -> np.ndarray:
        """gamma-weighted mix of the user's own latent row and neighbors' mean."""
        own = self.P[user]
        neigh = np.nonzero(self.L[user])[0]
        if neigh.size == 0:
            return own
        g = self.gamma[user]
        return g * own + (1.0 - g) * self.P[neigh].mean(axis=0)

    def predict_rating(self, user: int, item: int) -> float:
        return float(self._blend_row(user) @ self.Q[item])

    def score_items(self, user, long_items, short_items) -> np.ndarray:
        return self._blend_row(user) @ self.Q.T


def train_apar(W, mask, L, gamma, config: AparConfig) -> AparState:
    """Alternate guarded multiplicative updates until the objective settles.

    gamma may be a per-user vector or None (then the config's override or
    plain beta applies to everyone). Stops when the relative objective
    change drops below config.tol; hitting max_iters first leaves
    converged=False on the returned state.
    """
    W = np.asarray(W, dtype=np.float64)
    n_users, n_items = W.shape
    if gamma is None:
        g = config.gamma_override
        gamma = np.full(n_users, g if g is not None else gamma_value(config.beta, 0.0))
    prob = AparProblem.build(W, mask, L, gamma, config.alpha1, config.alpha2, config.lam)

    rng = make_rng(config.seed)
    P = 0.1 * (1.0 - rng.random((n_users, config.d)))  # strictly positive (0, 0.1]
    Q = 0.1 * (1.0 - rng.random((n_items, config.d)))

    prev = objective(P, Q, prob)
    trace: list[float] = []
    converged = False
    fallbacks = 0
    for t in range(config.max_iters):
        try:
            P, Q, used_fallback, cur = guarded_step(P, Q, prob, prev)
        except FloatingPointError as exc:
            raise FloatingPointError(f"iteration {t}: {exc}") from exc
        fallbacks += int(used_fallback)
        trace.append(float(cur))
        if abs(prev - cur) / max(prev, _EPS) < config.tol:
            converged = True
            break
        prev = cur

    return AparState(
        P=P,
        Q=Q,
        gamma=prob.gamma,
        L=prob.L,
        config=config,
        converged=converged,
        trace=trace,
        fallback_steps=fallbacks,
    )


def fit_ratings(matrix, L, kl_map, config: AparConfig) -> AparState:
    """Train from a RatingMatrix plus token-keyed normalized knowledge levels."""
    W, mask = matrix.dense()
    gamma = gamma_vector(matrix.users, kl_map, config.beta, config.gamma_override)
    return train_apar(W, mask, L, gamma, config)
