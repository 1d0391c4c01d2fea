"""Minibatch SGD shared by the sequential models (DAS and CAN).

Both train on the per-position holdout instances of `data.prepared_instances`
with one uniform negative per instance. `train` owns everything the two
have in common: the epoch permutation, batch assembly, the negative draws,
divergence checks, the SGD update and the per-epoch trace. Each model only
supplies its batched loss-and-gradients kernel, which reads the ragged
per-instance lists through `pad`.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass
class Batch:
    users: list
    longs: list  # per instance: long-term item indices in order (may be empty)
    shorts: list  # per instance: context item indices (duplicates allowed)
    positives: list
    negatives: list  # per instance: one negative item index (DAS also takes a list)


def pad(lists):
    """Ragged index lists as a B x L int array and a B x L validity mask.

    L is the longest list's length, at least 1; padded slots hold index 0,
    and `idx[mask]` lists every entry in instance order.
    """
    lengths = np.array([len(x) for x in lists], dtype=np.int64)
    mask = np.arange(max(1, int(lengths.max(initial=0)))) < lengths[:, None]
    idx = np.zeros(mask.shape, dtype=np.int64)
    idx[mask] = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                            count=int(lengths.sum()))
    return idx, mask


def train(state, prepared, config, rng, kernel):
    """Run config.epochs epochs of minibatch SGD on `state` in place.

    Each epoch draws a permutation of `prepared`, then walks it in chunks
    of config.batch. Instances with an empty negative pool are skipped; the
    others draw one negative from their pool, in chunk order, from `rng`.
    `kernel(state, batch, out)` returns (loss, grads aligned with
    state.params()); from the second batch on, `out` is the previous
    batch's grads, for the kernel to overwrite.
    A kernel ValueError (a non-finite attention score) or a non-finite loss
    means training diverged and raises FloatingPointError. Appends the mean
    batch loss of each epoch to state.trace and returns state.
    """
    plist = state.params()
    grads = None
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(prepared))
            epoch_total, n_batches = 0.0, 0
            for lo in range(0, len(order), config.batch):
                batch = Batch(users=[], longs=[], shorts=[], positives=[], negatives=[])
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
                try:
                    loss, grads = kernel(state, batch, grads)
                except ValueError as exc:
                    # activations are unbounded, so attention scores can
                    # overflow while the parameters are still finite
                    raise FloatingPointError(
                        f"epoch {epoch}: training diverged ({exc})"
                    ) from exc
                if not np.isfinite(loss):
                    raise FloatingPointError(f"epoch {epoch}: loss is {loss}")
                for p, g in zip(plist, grads):
                    g *= config.lr  # the kernel overwrites g next batch
                    p -= g
                epoch_total += loss
                n_batches += 1
            state.trace.append(epoch_total / max(n_batches, 1))
    return state
