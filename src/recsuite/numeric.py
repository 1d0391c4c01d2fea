"""Dense-math kernel shared by every model.

Plain float64 numpy arrays stand in for matrices and vectors. All random
draws go through a seeded numpy Generator so reruns are bit-identical.
Gradients elsewhere in the package are hand-derived; `grad_check` is the
correctness gate for them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

RNG_ALGORITHM = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed means identical draws."""
    return np.random.default_rng(seed)


def softmax(scores) -> np.ndarray:
    """Probability vector via exp-normalization with max subtraction."""
    x = np.asarray(scores, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax input must be finite")
    e = np.exp(x - x.max())
    return e / e.sum()


def softmax_backward(alpha: np.ndarray, d_alpha: np.ndarray) -> np.ndarray:
    """Jacobian-vector product: gradient w.r.t. logits given d(loss)/d(alpha).

    Works row-wise along the last axis, so a batch of distributions goes
    through in one call.
    """
    return alpha * (d_alpha - (alpha * d_alpha).sum(axis=-1, keepdims=True))


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the entries where `mask` holds; the rest get 0.

    A row with no unmasked entry comes out all zero. Like `softmax`, raises
    ValueError when an unmasked logit is not finite; masked entries may
    hold anything.
    """
    if not np.all(np.isfinite(logits[mask])):
        raise ValueError("softmax input must be finite")
    x = np.where(mask, logits, -np.inf)
    top = x.max(axis=-1, keepdims=True)
    e = np.exp(x - np.where(np.isfinite(top), top, 0.0))
    total = e.sum(axis=-1, keepdims=True)
    return e / np.where(total > 0, total, 1.0)


def pooled_attention(V: np.ndarray, q: np.ndarray, mask: np.ndarray):
    """Batched attention pooling: row b is sum_l alpha[b, l] V[b, l].

    V is B x L x n (padded), q is B x n, and alpha = masked_softmax of the
    scores V[b, l] · q[b]. Returns (pooled B x n, alpha B x L); a row with
    an empty mask pools to zero.
    """
    alpha = masked_softmax((V @ q[:, :, None])[:, :, 0], mask)
    return (alpha[:, None, :] @ V)[:, 0, :], alpha


def pooled_attention_backward(V, q, alpha, d_pooled):
    """Backprop d_pooled through `pooled_attention`: returns (dV, dq)."""
    d_logits = softmax_backward(alpha, (V @ d_pooled[:, :, None])[:, :, 0])
    dV = alpha[:, :, None] * d_pooled[:, None, :]
    dV += d_logits[:, :, None] * q[:, None, :]
    return dV, (d_logits[:, None, :] @ V)[:, 0, :]


def add_rows(target: np.ndarray, index, values) -> None:
    """target[index[i]] += values[i] along the first axis, repeats summed.

    Like np.add.at, except that the terms of each row are summed first (in
    input order, by one bincount) and then added to the row once. Touches
    only the rows that occur in `index`.
    """
    rows, inv = np.unique(np.asarray(index, dtype=np.int64), return_inverse=True)
    m = int(np.prod(values.shape[1:]))
    sums = np.bincount((inv[:, None] * m + np.arange(m)).ravel(),
                       weights=values.ravel(), minlength=rows.size * m)
    target[rows] += sums.reshape((rows.size,) + values.shape[1:])


def sigmoid(x):
    """Numerically stable logistic function; scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    if out.ndim == 0:
        return float(out)
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda v: v,
    "relu": relu,
    "tanh": np.tanh,
    "sigmoid": sigmoid,
}


def dense_forward(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, activation: str = "identity"
) -> np.ndarray:
    """act(W @ x + b) with explicit shape validation."""
    W = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    v = np.asarray(x, dtype=np.float64)
    if W.ndim != 2 or v.ndim != 1 or b.ndim != 1:
        raise ValueError("dense_forward expects a matrix, a bias vector and an input vector")
    if W.shape[1] != v.shape[0]:
        raise ValueError(f"weight cols {W.shape[1]} != input length {v.shape[0]}")
    if W.shape[0] != b.shape[0]:
        raise ValueError(f"weight rows {W.shape[0]} != bias length {b.shape[0]}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    return ACTIVATIONS[activation](W @ v + b)


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float, l2: float = 0.0) -> np.ndarray:
    """p - lr * (g + 2*l2*p); the l2 term is decoupled weight decay."""
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"param shape {p.shape} != grad shape {g.shape}")
    return p - lr * (g + 2.0 * l2 * p)


def grad_check(
    loss_and_grad: Callable,
    params,
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `params` is one array or a list of arrays; `loss_and_grad(params)` must
    return (scalar loss, gradient(s) of the same shape(s)). Relative error
    per entry is |a - n| / max(1e-8, |a| + |n|).
    """
    single = not isinstance(params, (list, tuple))
    plist = [np.array(params, dtype=np.float64)] if single else [
        np.array(p, dtype=np.float64) for p in params
    ]

    def call():
        loss, grads = loss_and_grad(plist[0] if single else plist)
        return loss, [grads] if single else list(grads)

    loss0, analytic = call()
    if not np.isfinite(loss0):
        raise FloatingPointError("loss is not finite at the evaluation point")
    analytic = [np.asarray(g, dtype=np.float64) for g in analytic]
    if len(analytic) != len(plist) or any(
        g.shape != p.shape for g, p in zip(analytic, plist)
    ):
        raise ValueError("gradient shape does not match parameter shape")
    worst = 0.0
    for p, a_arr in zip(plist, analytic):
        flat = p.ravel()
        a_flat = a_arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up, _ = call()
            flat[i] = orig - epsilon
            down, _ = call()
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError(f"loss not finite at perturbed entry {i}")
            numeric_g = (up - down) / (2.0 * epsilon)
            a = a_flat[i]
            err = abs(a - numeric_g) / max(1e-8, abs(a) + abs(numeric_g))
            worst = max(worst, err)
    return worst


def init_normal(
    rows: int, cols: int, mean: float, std: float, rng: np.random.Generator
) -> np.ndarray:
    if std < 0:
        raise ValueError("std must be nonnegative")
    return rng.normal(mean, std, size=(rows, cols))


def init_uniform_attention(
    rows: int, cols: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform init on [-sqrt(3/k), +sqrt(3/k)] for attention parameters."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = np.sqrt(3.0 / k)
    return rng.uniform(-bound, bound, size=(rows, cols))
