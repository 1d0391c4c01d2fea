"""Personality- and knowledge-aware nonnegative matrix factorization.

Ratings are modeled as a per-user convex blend of the user's own latent
profile and the mean profile of same-personality neighbors; the blend
weight gamma comes from domain knowledge. Training keeps both factor
matrices nonnegative via multiplicative updates, with a projected
gradient fallback on any step that would raise the objective.
"""

import numpy as np
from dataclasses import dataclass, field

from . import metrics
from .numeric import make_rng

_EPS = 1e-12


def gamma_vector(kl, beta: float, override: float | None = None) -> np.ndarray:
    """Per-user blend weights beta + kl, clipped to [0, 1], from one knowledge
    level per user; a global override replaces the knowledge-based rule."""
    kl = np.asarray(kl, dtype=np.float64)
    if override is not None:
        return np.full(len(kl), float(override))
    # fmax and fmin skip a NaN where clip keeps it: a NaN beta gives weight 0
    return np.fmin(1.0, np.fmax(0.0, beta + kl))


class CliqueGraph:
    """The trait graph as one label per user: users sharing a label form a clique.

    Every product with the n x n similarity L, its Laplacian Y = D - L and
    the row-stochastic mixing matrix A reduces to per-group row sums S_g and
    group sizes n_g, at O(n*d) per product:

        L.X = S_g - X            Y.X = n_g*X - S_g          degree = n_g - 1
        A.X = gamma*X + (1 - gamma)*(S_g - X)/(n_g - 1)
        A'.X = gamma*X + S_g(c*X) - c*X,   c = (1 - gamma)/(n_g - 1)

    A user alone in their group has no neighbors: their row of A is the
    identity, so their gamma has no effect and predictions fall back to
    plain MF.
    """

    def __init__(self, labels, gamma):
        labels = np.asarray(labels)
        gamma = np.asarray(gamma, dtype=np.float64)
        if labels.ndim != 1 or gamma.shape != labels.shape:
            raise ValueError("need one group label and one gamma per user")
        _, self._index, counts = np.unique(labels, return_inverse=True, return_counts=True)
        self._order = np.argsort(self._index, kind="stable")
        self._starts = np.cumsum(counts) - counts
        self.degree = (counts[self._index] - 1).astype(np.float64)[:, None]
        alone = self.degree == 0
        self._self_weight = np.where(alone, 1.0, gamma[:, None])
        self._coef = np.where(alone, 0.0, (1.0 - gamma[:, None]) / np.maximum(self.degree, 1.0))

    def sums(self, X):
        """Row i holds S_g, the sum of X's rows over user i's group."""
        return np.add.reduceat(X[self._order], self._starts, axis=0)[self._index]

    # adjacent, laplacian and mix take S = sums(X) when the caller has it

    def adjacent(self, X, S=None):
        """L.X: the sum over each user's neighbors."""
        return (self.sums(X) if S is None else S) - X

    def laplacian(self, X, S=None):
        """Y.X = n_g*X - S_g."""
        return (self.degree + 1.0) * X - (self.sums(X) if S is None else S)

    def mix(self, X, S=None):
        """A.X: each row blended with the mean of its neighbors' rows."""
        return self._self_weight * X + self._coef * self.adjacent(X, S)

    def mix_t(self, X):
        """A'.X, the product with A's transpose."""
        cX = self._coef * X
        return self._self_weight * X + self.sums(cX) - cX


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
    """Fixed quantities of one training problem, the two users x items
    buffers (`fitted`, `work`) that every n x m result of a step goes into,
    and what the last step or objective leaves for the next one: the group
    sums of its P (`sums`) and a step's A.P2 (`blended`)."""

    W: np.ndarray  # observed ratings, 0 elsewhere
    mask: np.ndarray
    groups: np.ndarray
    gamma: np.ndarray
    graph: CliqueGraph
    alpha1: float
    alpha2: float
    lam: float
    fitted: np.ndarray = field(repr=False)
    work: np.ndarray = field(repr=False)
    sums: np.ndarray | None = field(default=None, repr=False)
    blended: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, W, mask, groups, gamma, alpha1, alpha2, lam) -> "AparProblem":
        W = np.asarray(W, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        groups = np.asarray(groups, dtype=np.int64)
        gamma = np.asarray(gamma, dtype=np.float64)
        if W.shape != mask.shape:
            raise ValueError("ratings and mask shapes differ")
        if groups.shape != (W.shape[0],) or gamma.shape != (W.shape[0],):
            raise ValueError("group/gamma shapes do not match the user count")
        return cls(
            W=mask * W,
            mask=mask,
            groups=groups,
            gamma=gamma,
            graph=CliqueGraph(groups, gamma),
            alpha1=alpha1,
            alpha2=alpha2,
            lam=lam,
            fitted=np.empty(W.shape),
            work=np.empty(W.shape),
        )


def _masked_product(AP: np.ndarray, Q: np.ndarray, mask: np.ndarray, out: np.ndarray):
    """mask * (AP.Q'), written into out."""
    np.matmul(AP, Q.T, out=out)
    return np.multiply(out, mask, out=out)


def objective(P: np.ndarray, Q: np.ndarray, prob: AparProblem, blended=None,
              sums=None) -> float:
    """The objective at (P, Q); leaves mask * (A.P.Q') in prob.fitted and
    the group sums of P in prob.sums. blended (A.P) and sums are computed
    when not given."""
    g = prob.graph
    prob.sums = S = g.sums(P) if sums is None else sums
    AP = g.mix(P, S) if blended is None else blended
    fitted = _masked_product(AP, Q, prob.mask, prob.fitted)
    E = np.subtract(fitted, prob.W, out=prob.work)
    val = 0.5 * float(np.square(E, out=E).sum())
    val += prob.alpha1 * float((P**2).sum()) + prob.alpha2 * float((Q**2).sum())
    if prob.lam:
        val += prob.lam * float((P * g.laplacian(P, S)).sum())  # tr(P'YP)
    return val


def objective_grads(P: np.ndarray, Q: np.ndarray, prob: AparProblem):
    AP = prob.graph.mix(P)
    E = np.subtract(np.matmul(AP, Q.T, out=prob.work), prob.W, out=prob.work)
    E *= prob.mask
    gP = prob.graph.mix_t(E @ Q) + 2.0 * prob.alpha1 * P
    gP += 2.0 * prob.lam * prob.graph.laplacian(P)
    gQ = E.T @ AP + 2.0 * prob.alpha2 * Q
    return gP, gQ


def multiplicative_step(P: np.ndarray, Q: np.ndarray, prob: AparProblem, fitted=None,
                        sums=None):
    """One alternating multiplicative update; preserves nonnegativity by form.

    Each factor is scaled by (negative gradient part) / (positive gradient
    part): entries with zero gradient keep ratio 1 and stay put. fitted is
    mask * (A.P.Q') at this (P, Q) and sums the group sums of P, as
    `objective` leaves them in prob.fitted and prob.sums; each is computed
    when not given. Leaves A.P2 in prob.blended and the group sums of P2 in
    prob.sums, for the objective at the returned (P2, Q2).
    """
    g, mask, obs_W = prob.graph, prob.mask, prob.W

    if sums is None:
        sums = g.sums(P)
    if fitted is None:
        fitted = _masked_product(g.mix(P, sums), Q, mask, prob.fitted)
    num_P = g.mix_t(obs_W @ Q) + 2.0 * prob.lam * g.adjacent(P, sums)
    den_P = (
        g.mix_t(fitted @ Q)
        + 2.0 * prob.alpha1 * P
        + 2.0 * prob.lam * (g.degree * P)
        + _EPS
    )
    P2 = P * (num_P / den_P)

    prob.sums = g.sums(P2)
    prob.blended = AP2 = g.mix(P2, prob.sums)
    fitted2 = _masked_product(AP2, Q, mask, prob.work)
    num_Q = obs_W.T @ AP2
    den_Q = fitted2.T @ AP2 + 2.0 * prob.alpha2 * Q + _EPS
    Q2 = Q * (num_Q / den_Q)
    return P2, Q2


def guarded_step(P: np.ndarray, Q: np.ndarray, prob: AparProblem, prev_obj: float,
                 fitted=None, sums=None):
    """Multiplicative step that never lets the objective rise.

    Returns (P, Q, used_fallback, objective at the returned P, Q), and
    leaves mask * (A.P.Q') at the returned P, Q in prob.fitted and the
    group sums of the returned P in prob.sums. fitted and sums are those
    at the given P, Q, or None to compute them. If the
    multiplicative proposal raises the objective, retries with a projected
    (clamped at 0) gradient step under backtracking halving; if even that
    finds no descent, stays put and returns prev_obj, the objective there.
    """
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
        raise FloatingPointError("non-finite factor entries")
    P2, Q2 = multiplicative_step(P, Q, prob, fitted, sums)
    if not (np.all(np.isfinite(P2)) and np.all(np.isfinite(Q2))):
        raise FloatingPointError("multiplicative update produced non-finite entries")
    val = objective(P2, Q2, prob, prob.blended, prob.sums)
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
    # no descent direction small enough; hold position
    prob.sums = prob.graph.sums(P) if sums is None else sums
    _masked_product(prob.graph.mix(P, prob.sums), Q, prob.mask, prob.fitted)
    return P, Q, True, prev_obj


@dataclass
class AparState(metrics.Ranker):
    P: np.ndarray
    Q: np.ndarray
    gamma: np.ndarray
    groups: np.ndarray
    config: AparConfig
    converged: bool = True
    trace: list = field(default_factory=list)
    fallback_steps: int = 0
    # A.P, each user's gamma-weighted blend of their own row and their
    # neighbors' mean; derived from the fields above and never saved
    blended: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.blended = CliqueGraph(self.groups, self.gamma).mix(self.P)

    def predict_ratings(self, users, items) -> np.ndarray:
        """One prediction per (user, item) pair; each pair's dot product is a
        (1 x d) @ (d x 1) matmul, the same as `predict_rating`'s."""
        return (self.blended[users][:, None, :] @ self.Q[items][:, :, None])[:, 0, 0]

    def predict_rating(self, user: int, item: int) -> float:
        return float(self.blended[user] @ self.Q[item])

    def score_batch(self, users, longs, shorts) -> np.ndarray:
        return self.blended[np.asarray(users, dtype=np.int64)] @ self.Q.T


def train_apar(W, mask, groups, gamma, config: AparConfig) -> AparState:
    """Alternate guarded multiplicative updates until the objective settles.

    groups holds one trait-group label per user and gamma one blend weight
    per user (`gamma_vector` builds it). Stops when the relative objective
    change drops below config.tol; hitting max_iters first leaves
    converged=False on the returned state.
    """
    W = np.asarray(W, dtype=np.float64)
    n_users, n_items = W.shape
    prob = AparProblem.build(W, mask, groups, gamma, config.alpha1, config.alpha2, config.lam)

    rng = make_rng(config.seed)
    P = 0.1 * (1.0 - rng.random((n_users, config.d)))  # strictly positive (0, 0.1]
    Q = 0.1 * (1.0 - rng.random((n_items, config.d)))

    prev = objective(P, Q, prob)
    trace: list[float] = []
    converged = False
    fallbacks = 0
    for t in range(config.max_iters):
        try:
            # the objective just computed at (P, Q) left its product in
            # prob.fitted and the group sums of P in prob.sums
            P, Q, used_fallback, cur = guarded_step(P, Q, prob, prev, prob.fitted,
                                                    prob.sums)
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
        groups=prob.groups,
        config=config,
        converged=converged,
        trace=trace,
        fallback_steps=fallbacks,
    )


def fit_ratings(ratings, groups, kl, config: AparConfig) -> AparState:
    """Train on `data.Ratings` over their vocabularies.

    groups holds one trait-group label and kl one normalized knowledge level
    per user of the vocabulary; the knowledge levels give the blend weights.
    """
    W = np.zeros((ratings.n_users, ratings.n_items))
    mask = np.zeros_like(W, dtype=bool)
    W[ratings.user, ratings.item] = ratings.value
    mask[ratings.user, ratings.item] = True
    gamma = gamma_vector(kl, config.beta, config.gamma_override)
    return train_apar(W, mask, groups, gamma, config)
