"""Minibatch training shared by the ranking models (DAS, CAN and BPR).

All three train on the per-position holdout instances of the train
sessions' `data.Histories`, with one uniform negative per instance, read
as a `Batch`, the type `metrics.evaluate` scores test instances as.
`train` owns everything the trainers have in common: the epoch
permutation, batch assembly (`batch_of`), the negative draws, divergence
checks and the per-epoch trace. Each model supplies the step that updates
it from one batch. DAS and CAN step through `Sgd` with their batched
loss-and-gradients kernels, which return gradients for only the table
rows a batch reads (`Rows`); BPR takes the whole epoch as one batch and
updates it in waves of pairs that share no row.
"""

import functools
from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass
class Lists:
    """Ragged index lists as a B x L array: L is the longest list's length,
    at least 1. `mask` marks the entries, padded slots of `idx` hold index
    0, and `flat` = idx[mask] lists every entry in instance order.
    Iterating gives the B lists, each an index array."""

    idx: np.ndarray
    mask: np.ndarray
    flat: np.ndarray

    def __iter__(self):
        return map(np.ndarray.__getitem__, self.idx, self.mask)


def gather(values, starts, lengths, skip=None) -> Lists:
    """The lists values[starts[b]:starts[b] + lengths[b]] as `Lists`; with
    `skip`, list b is one longer and leaves out its position skip[b]."""
    j = np.arange(max(1, int(lengths.max(initial=0))))
    mask = j < lengths[:, None]
    src = starts[:, None] + j
    if skip is not None:
        src += j >= skip[:, None]
    flat = values[src[mask]]
    idx = np.zeros(mask.shape, dtype=np.int64)
    idx[mask] = flat
    return Lists(idx, mask, flat)


def pad(lists) -> Lists:
    """Ragged index lists (sequences of ints) as `Lists`; `Lists` as they are."""
    if isinstance(lists, Lists):
        return lists
    lengths = np.fromiter(map(len, lists), np.int64, len(lists))
    flat = np.fromiter(chain.from_iterable(lists), np.int64, int(lengths.sum()))
    return gather(flat, np.cumsum(lengths) - lengths, lengths)


class Batch:
    """Instances of a `data.Sessions`, each one of its items held out.

    Instance b holds out item hold[b] of session s[b]: `users` and
    `positives` are arrays, and the user's long-term list (the first
    long_len[b] of their first-seen items in the `data.Histories`) and the
    rest of the session as context are `Lists` in `longs` and `shorts`,
    gathered when first read: BPR reads neither. The trainer sets
    `negatives` (`batch_of`); the evaluator leaves it None.
    """

    def __init__(self, history, sessions, s, hold, long_len):
        self.users, start = sessions.user[s], sessions.offsets[s]
        self.positives = sessions.item[start + hold]
        self.negatives = None
        self._long_args = (history.first_seen, history.start[self.users], long_len)
        self._short_args = (sessions.item, start, sessions.offsets[s + 1] - start - 1, hold)

    @functools.cached_property
    def longs(self) -> Lists:
        return gather(*self._long_args)

    @functools.cached_property
    def shorts(self) -> Lists:
        return gather(*self._short_args)


@dataclass
class Rows:
    """The rows of one table that a batch reads.

    `index` holds them ascending and distinct, and `inverse[n]` is the
    position in `index` of the batch's n-th read. `axis` is 1 for a table
    stored one row per column (k x n), whose rows are then its columns.
    """

    index: np.ndarray
    inverse: np.ndarray
    axis: int = 0

    @classmethod
    def of(cls, reads, axis: int = 0) -> "Rows":
        index, inverse = np.unique(np.asarray(reads, dtype=np.int64), return_inverse=True)
        return cls(index, inverse, axis)

    def view(self, table: np.ndarray) -> np.ndarray:
        """The table with one row per index entry along the first axis."""
        return table.T if self.axis else table

    def sum(self, values: np.ndarray, reads=None) -> np.ndarray:
        """values[n] summed onto the row of read reads[n] (default: read n).

        One output row per `index` entry; each row's terms are added in
        input order, by one bincount.
        """
        inv = self.inverse if reads is None else self.inverse[reads]
        if not inv.size:  # bincount would give ints
            return np.zeros((self.index.size,) + values.shape[1:])
        m = values.size // inv.size
        sums = np.bincount((inv[:, None] * m + np.arange(m)).ravel(),
                           weights=values.ravel(), minlength=self.index.size * m)
        return sums.reshape((self.index.size,) + values.shape[1:])


def batch_of(history, q, draws) -> Batch:
    """The training instances at positions q of the items of a `data.Histories`'
    sessions: item q held out of its session, and the user's draws[b]-th
    untouched item as its one negative."""
    offsets = history.sessions.offsets
    s = np.searchsorted(offsets, q, "right") - 1
    batch = Batch(history, history.sessions, s, q - offsets[s], history.long_len[s])
    negatives = history.unseen_items(batch.users, draws)
    batch.negatives = Lists(negatives[:, None], np.ones((q.size, 1), dtype=bool), negatives)
    return batch


def train(state, history, epochs, batch_size, rng, step):
    """Run `epochs` epochs of minibatch training on `state` in place.

    Each epoch draws a permutation of the instances of `history`, the
    `data.Histories` of the train sessions, then walks it in chunks of
    batch_size. Instances whose user touched every item are skipped; the
    others draw one negative, with one `rng.integers` call per chunk over
    the sizes of their pools, in chunk order (the same values, and the
    same generator state after, as one call per instance). Each chunk is
    one `Batch` (`batch_of`), and `step(batch)` updates the state from it
    and returns its loss.
    A ValueError from the step (a non-finite attention score) or a
    non-finite loss means training diverged and raises FloatingPointError.
    Appends the mean batch loss of each epoch to state.trace and returns
    state.
    """
    sessions = history.sessions
    users = np.repeat(sessions.user, np.diff(sessions.offsets))  # each instance's user
    pool = history.dataset.n_items - np.diff(history.start)[users]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(pool.size)
            epoch_total, n_batches = 0.0, 0
            for lo in range(0, order.size, batch_size):
                q = order[lo : lo + batch_size]
                q = q[pool[q] > 0]
                if not q.size:
                    continue
                batch = batch_of(history, q, rng.integers(pool[q]))
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


class Sgd:
    """A `train` step: plain SGD on state.params() at learning rate lr.

    `reads(batch)` lists, aligned with params(), the `Rows` the batch reads
    of each table, or None for a parameter the step updates whole.
    `kernel(state, batch, rows=...)` returns the data loss and the data
    gradients: a full array per whole parameter, and for a table one
    gradient row per `Rows.index` entry. A step updates only the rows a
    batch reads, and its objective is the batch's data loss plus
    l2[n] * |b_n|^2, where b_n is the whole parameter p_n, or for a table
    the block of rows the batch reads: L2 in the sparse form, as BPR's
    per-triple step has it. A row no batch reads keeps its value.
    """

    def __init__(self, state, kernel, reads, lr: float, l2):
        self.state, self.kernel, self.reads, self.lr, self.l2 = state, kernel, reads, lr, l2
        self.params = state.params()
        self.grads = None

    def __call__(self, batch) -> float:
        rows = self.reads(batch)
        loss, grads = self.kernel(self.state, batch, rows=rows)
        # held until the next step: freed at once, they leave the batch's
        # working memory at the top of the heap, where the allocator hands
        # it back to the system each step and faults it in again (about
        # 500 page faults per CAN step on a 50-item catalog)
        self.grads = grads
        penalty = 0.0
        for p, r, g, lam in zip(self.params, rows, grads, self.l2):
            block = p if r is None else r.view(p)[r.index]
            if lam:
                penalty += lam * np.vdot(block, block)
                g += (2.0 * lam) * block
            g *= self.lr
            block -= g
            if r is not None:
                r.view(p)[r.index] = block
        return float(loss + penalty)
