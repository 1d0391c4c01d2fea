"""Minibatch training shared by the ranking models (DAS, CAN and BPR).

All three train on the per-position holdout instances of
`data.prepared_instances` with one uniform negative per instance. `train`
owns everything they have in common: the epoch permutation, batch
assembly, the negative draws, divergence checks and the per-epoch trace.
Each model supplies the step that updates it from one batch. DAS and CAN
step through `sgd` with their batched loss-and-gradients kernels, which
read the ragged per-instance lists through `pad`; BPR takes the whole
epoch as one batch and updates pair by pair.
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


def train(state, prepared, epochs, batch_size, rng, step):
    """Run `epochs` epochs of minibatch training on `state` in place.

    Each epoch draws a permutation of `prepared`, then walks it in chunks
    of batch_size. Instances with an empty negative pool are skipped; the
    others draw one negative from their pool, in chunk order, from `rng`.
    `step(batch)` updates the state from one batch and returns its loss.
    A ValueError from the step (a non-finite attention score) or a
    non-finite loss means training diverged and raises FloatingPointError.
    Appends the mean batch loss of each epoch to state.trace and returns
    state.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(len(prepared))
            epoch_total, n_batches = 0.0, 0
            for lo in range(0, len(order), batch_size):
                rows = [prepared[i] for i in order[lo : lo + batch_size] if prepared[i][4].size]
                if not rows:
                    continue
                users, longs, shorts, positives, pools = map(list, zip(*rows))
                negatives = [int(pool[rng.integers(pool.size)]) for pool in pools]
                batch = Batch(users, longs, shorts, positives, negatives)
                try:
                    loss = step(batch)
                except ValueError as exc:
                    # activations are unbounded, so attention scores can
                    # overflow while the parameters are still finite
                    raise FloatingPointError(
                        f"epoch {epoch}: training diverged ({exc})"
                    ) from exc
                if not np.isfinite(loss):
                    raise FloatingPointError(f"epoch {epoch}: loss is {loss}")
                epoch_total += loss
                n_batches += 1
            state.trace.append(epoch_total / max(n_batches, 1))
    return state


def sgd(state, kernel, lr):
    """A `train` step: plain SGD on state.params() at learning rate lr.

    `kernel(state, batch, out)` returns (loss, grads aligned with
    state.params()); from the second batch on, `out` is the previous
    batch's grads, for the kernel to overwrite.
    """
    plist = state.params()
    grads = None

    def step(batch):
        nonlocal grads
        loss, grads = kernel(state, batch, grads)
        for p, g in zip(plist, grads):
            g *= lr  # the kernel overwrites g next batch
            p -= g
        return loss

    return step
