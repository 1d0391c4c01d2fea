"""Central-difference check of hand-derived gradients.

Every gradient in recsuite is derived by hand; the gradient tests gate each
kernel with `grad_check`.
"""

from typing import Callable

import numpy as np


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
