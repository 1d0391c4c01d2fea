"""Dense-math kernel shared by every model.

Plain float64 numpy arrays stand in for matrices and vectors. All random
draws go through a seeded numpy Generator so reruns are bit-identical.
Gradients elsewhere in the package are hand-derived; the tests check them
against central finite differences.
"""

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed means identical draws."""
    return np.random.default_rng(seed)


def softmax_backward(alpha: np.ndarray, d_alpha: np.ndarray) -> np.ndarray:
    """Jacobian-vector product: gradient w.r.t. logits given d(loss)/d(alpha).

    Works row-wise along the last axis, so a batch of distributions goes
    through in one call.
    """
    return alpha * (d_alpha - (alpha * d_alpha).sum(axis=-1, keepdims=True))


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the entries where `mask` holds; the rest get 0.

    A row with no unmasked entry comes out all zero. Raises ValueError when
    an unmasked logit is not finite; masked entries may hold anything.
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


def pooled_attention_backward(V, q, alpha, d_pooled, mask):
    """Backprop d_pooled through `pooled_attention`: returns (dV, dq), dV
    only at the entries `mask` holds, one row each, as V[mask] lists them."""
    d_logits = softmax_backward(alpha, (V @ d_pooled[:, :, None])[:, :, 0])
    rows = np.nonzero(mask)[0]
    dV = alpha[mask][:, None] * d_pooled[rows]
    dV += d_logits[mask][:, None] * q[rows]
    return dV, (d_logits[:, None, :] @ V)[:, 0, :]


def sigmoid(x):
    """Numerically stable logistic function; scalar in, scalar out.

    With t = exp(-|x|): 1 / (1 + t) where x >= 0, else t / (1 + t)."""
    x = np.asarray(x, dtype=np.float64)
    t = np.abs(x, out=np.empty(x.shape))
    np.negative(t, out=t)
    np.exp(t, out=t)
    out = np.where(x >= 0, 1.0, t)
    t += 1.0
    out /= t
    return float(out) if out.ndim == 0 else out


def init_uniform_attention(
    rows: int, cols: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform init on [-sqrt(3/k), +sqrt(3/k)] for attention parameters."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = np.sqrt(3.0 / k)
    return rng.uniform(-bound, bound, size=(rows, cols))
