"""Accuracy, ranking, and novelty metrics plus the shared evaluation loop.

Every model is ranked under one rule: descending score, ties broken by
ascending item index, NaN last. `top_k` lists the first k items under it
(`recommend`); `evaluate` takes every ranking metric from the ranks it
implies, one comparison of each score row with its target's score.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import data, minibatch


# The metrics each family of model is reported on: `evaluate` gives a
# ranking model's, `evaluate_ratings` a rating model's.
RANKING_METRICS = ("precision", "recall", "mcan", "auc")
RATING_METRICS = ("mae", "rmse")


# ---------------------------------------------------------------------------
# Pointwise rating error


def _paired(true, pred):
    t = np.asarray(true, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("no rating pairs to score")
    return t, p


def mae(true, pred) -> float:
    t, p = _paired(true, pred)
    return float(np.mean(np.abs(t - p)))


def rmse(true, pred) -> float:
    t, p = _paired(true, pred)
    return float(np.sqrt(np.mean((t - p) ** 2)))


# ---------------------------------------------------------------------------
# Shared ranking rule


def top_k(scores, k: int) -> np.ndarray:
    """The first k items of the ranking of `scores`.

    The ranking is by descending score, ties by ascending index, NaN last.
    A partition finds the k-th best score without sorting the catalog; only
    the items at least as good as it, every tie with it included, are then
    sorted under the exact rule. Returns every item when the catalog holds
    fewer than k.
    """
    key = -np.asarray(scores, dtype=np.float64)
    items = np.arange(key.size)
    if k < 1:
        return items[:0]
    if k < key.size:
        kth = np.partition(key, k - 1)[k - 1]
        if not np.isnan(kth):  # a NaN k-th key: fewer than k numbers, keep all
            near = key <= kth
            items, key = items[near], key[near]
    return items[np.lexsort((items, key))][:k]


class Ranker:
    """A ranking model: `score_batch` scores many instances, `score_items` one.

    Subclasses define `score_batch(users, longs, shorts) -> B x n_items`,
    one row per (user, long-term list, short-term list) instance.
    """

    def score_items(self, user, long_items, short_items) -> np.ndarray:
        return self.score_batch([user], [long_items], [short_items])[0]


# ---------------------------------------------------------------------------
# Evaluation reports


@dataclass
class EvalReport:
    """One model's metric rows on the test side of a split."""

    model: str
    rows: list  # (metric, cutoff-or-None, value), fixed order
    n_instances: int = 0
    failures: list = field(default_factory=list)
    # cause -> failed instances, for each cause that occurred
    failure_causes: dict = field(default_factory=dict)
    # cutoff k -> scored instances that ranked fewer than k items, where any did
    short_rankings: dict = field(default_factory=dict)

    def value(self, metric: str, cutoff: int | None = None) -> float:
        for name, c, v in self.rows:
            if name == metric and c == cutoff:
                return v
        raise KeyError(f"no row for metric={metric!r} cutoff={cutoff!r}")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["model", "split", "metric", "cutoff", "value"])
            for name, c, v in self.rows:
                w.writerow([self.model, "test", name, "" if c is None else c, f"{v:.17g}"])

    def to_text(self) -> str:
        lines = [f"model={self.model} split=test instances={self.n_instances}"]
        for name, c, v in self.rows:
            label = name if c is None else f"{name}@{c}"
            lines.append(f"  {label:<14} {v:.6f}")
        if self.failures:
            lines.append(f"  ({len(self.failures)} instances failed; first: {self.failures[0]})")
        return "\n".join(lines)


class _ShapeError(ValueError):
    """A scorer returned the wrong number of scores for one instance."""


# what fails a single instance (a scorer's lookup error, a wrong-length
# score vector); any other exception is a bug and propagates
_DATA_ERRORS = (KeyError, IndexError, _ShapeError)

# the causes `EvalReport.failure_causes` counts
UNKNOWN = "unknown user or item"
WRONG_LENGTH = "wrong score length"
COVERED = "context covers the catalog"


# Most score rows, and most scores (2**18 float64 values, 2 MB), one chunk
# of `evaluate` holds; wider catalogs get fewer rows per chunk.
_CHUNK_ROWS = 64
_CHUNK_SCORES = 1 << 18


def _score_rows(scorer, users, longs, shorts, n):
    """A chunk's B x n score block, and the data error of each instance that
    raised one, by its place in the chunk; a failed instance's row is unset.

    A scorer with `score_batch` scores the chunk at once. If that raises a
    data error or returns the wrong shape, or the scorer has only
    `score_items`, every instance is scored on its own, so a bad instance
    fails alone.
    """
    batch = getattr(scorer, "score_batch", None)
    if batch is not None:
        try:
            rows = np.asarray(batch(users, longs, shorts), dtype=np.float64)
            if rows.shape == (len(users), n):
                return rows, {}
        except _DATA_ERRORS:
            pass
    rows, errors = np.empty((len(users), n)), {}
    for b, (user, long_items, short_items) in enumerate(zip(users, longs, shorts)):
        try:
            row = np.asarray(scorer.score_items(user, long_items, short_items),
                             dtype=np.float64)
            if row.shape != (n,):
                raise _ShapeError(f"scorer returned shape {row.shape}, expected ({n},)")
            rows[b] = row
        except _DATA_ERRORS as exc:
            errors[b] = exc
    return rows, errors


def _user_mean_then_global(users: np.ndarray, values: np.ndarray) -> float:
    """The mean over users, in order of first appearance, of each user's mean.

    `users` are dense codes (from `np.unique`'s inverse). Each user's values
    are summed in instance order by one bincount, as Python's `sum` adds
    them, and the user means by Python's `sum` in order of first appearance;
    numpy's pairwise sum would change the last bits.
    """
    n = int(users.max(initial=-1)) + 1
    order = data.first_appearance(users, n)
    sums = np.bincount(users, weights=values, minlength=n)
    means = (sums[order] / np.bincount(users, minlength=n)[order]).tolist()
    return sum(means) / len(means)


def _precedes(s, j, own, t):
    """Whether an item scored `s` at index `j` ranks before one scored `own` at `t`.

    The rule of `top_k`: a higher score, or an equal one at a lower index.
    Behind a NaN score every number ranks first, then the NaNs by index.
    Works elementwise on arrays that broadcast.
    """
    return (s > own) | ((s == own) & (j < t)) | (np.isnan(own) & (~np.isnan(s) | (j < t)))


def _counts(S, cols):
    """Per row b of S, counted over the whole row against item `cols[b]`:
    the items that rank before it, the items scored below it, and the items
    scored equal to it (itself among them unless its score is NaN)."""
    B, n = S.shape
    own = S[np.arange(B), cols][:, None]
    above = np.count_nonzero(S > own, axis=1)
    tie = S == own
    equal = np.count_nonzero(tie, axis=1)
    # the ties ahead of the target, in the rows where it ties with another item
    shared = np.flatnonzero(equal > 1)
    ahead = above.copy()
    ahead[shared] += np.count_nonzero(tie[shared] & (np.arange(n) < cols[shared, None]), axis=1)
    below = n - above - equal
    # NaN compares false both ways; a row holding one (or both infinities) sums to NaN
    with np.errstate(invalid="ignore"):
        odd = np.flatnonzero(np.isnan(S.sum(axis=1)))
    for b in odd:
        below[b] = np.count_nonzero(S[b] < own[b])
        ahead[b] = np.count_nonzero(_precedes(S[b], np.arange(n), own[b], cols[b]))
    return ahead, below, equal


def _flat(n, lists) -> np.ndarray:
    """Positions `b * n + item` in a B x n block of the items of `minibatch.Lists`."""
    return np.nonzero(lists.mask)[0] * n + lists.flat


def _distinct(positions) -> np.ndarray:
    """The distinct positions, ascending: one sort, a fraction of np.unique's cost."""
    positions = np.sort(positions)
    return positions[np.append(True, positions[1:] != positions[:-1])]


def _chunk_values(S, contexts, targets, seen, cutoffs, exclude_context):
    """Every metric of one chunk's instances, from one B x n score block.

    Each count is taken over whole rows, one comparison with the target's
    score, less the count over the few items a metric leaves out (the
    context, the train history: `minibatch.Lists`), compared one by one. Returns
    {(metric, cutoff): B values} for the top-k metrics, each instance's
    rankable item count, and the AUC of every instance as B values with
    NaN where its negative pool is empty.
    """
    B, n = S.shape
    rows = np.arange(B)
    own = S[rows, targets]
    in_ctx = _distinct(_flat(n, contexts))  # each (row, context item) once
    ctx_rows, ctx_items = np.divmod(in_ctx, n)
    rank, below, ties = _counts(S, targets)
    values = {}
    if exclude_context:
        rankable = n - np.bincount(ctx_rows, minlength=B)
        ahead = _precedes(S.ravel()[in_ctx], ctx_items, own[ctx_rows], targets[ctx_rows])
        rank -= np.bincount(ctx_rows[ahead], minlength=B)
        listed_target = np.bincount(ctx_rows[ctx_items == targets[ctx_rows]],
                                    minlength=B) == 0
    else:
        rankable = np.full(B, n)
        listed_target = np.ones(B, dtype=bool)
        ctx_rank = np.concatenate([np.zeros(0, np.int64)] + [  # B context items at a time
            _counts(S[ctx_rows[a:a + B]], ctx_items[a:a + B])[0]
            for a in range(0, len(in_ctx), B)
        ])
    for k in cutoffs:
        hit = listed_target & (rank < k)
        listed = np.minimum(k, rankable)
        values["precision", k] = hit / listed
        values["recall", k] = hit.astype(np.float64)
        if exclude_context:
            values["mcan", k] = np.ones(B)
        else:
            values["mcan", k] = 1.0 - np.bincount(ctx_rows[ctx_rank < k], minlength=B) / listed

    # the negative pool: everything outside the train history, context and target
    left_out = _distinct(np.concatenate([in_ctx, _flat(n, seen), rows * n + targets]))
    out_rows = left_out // n
    out_scores, out_own = S.ravel()[left_out], own[out_rows]
    below -= np.bincount(out_rows[out_scores < out_own], minlength=B)
    ties -= np.bincount(out_rows[out_scores == out_own], minlength=B)
    size = n - np.bincount(out_rows, minlength=B)
    auc = np.full(B, np.nan)
    auc[size > 0] = (below + 0.5 * ties)[size > 0] / size[size > 0]
    return values, rankable, auc


def evaluate(
    scorer,
    dataset: data.Dataset,
    split: data.Split,
    cutoffs,
    model_name: str,
    exclude_context: bool = True,
) -> EvalReport:
    """Score every held-out target and aggregate per user, then globally.

    For each test instance the scorer sees the user's long-term items
    (train sessions from strictly earlier days) and the instance context,
    and must return one score per catalog item. Instances are scored in
    chunks of consecutive instances (`score_batch`, or `score_items` one at
    a time for a scorer without it), each chunk at most 64 rows and 2**18
    scores and read as a `minibatch.Batch` of the test sessions, with the
    long-term lists the train `data.Histories` gives for each test day.
    Every metric follows from ranks under the rule of `top_k`, taken with
    one comparison of each score row against its target's score:
    precision@k and recall@k from the target's rank among the rankable
    items, novelty (mcan@k) from how many distinct context items rank
    within the first k, and AUC from the target's wins and ties over its
    negatives, the items outside the user's train history, the context and
    the target. With exclude_context on, context items are not rankable
    (novelty is then 1 by construction); an instance left with fewer than k
    items to rank has its precision@k taken over the items ranked and is
    counted in the report's `short_rankings[k]`.

    A scorer's lookup error (KeyError, IndexError: an unknown user or
    item), a score vector of the wrong length, or a context that covers the
    catalog when it is excluded (nothing is left to rank) fails only its
    instance and is listed in the report's failures, in instance order, and
    counted under its cause in `failure_causes`; any other exception
    propagates.
    """
    history = data.Histories(split.train, dataset)
    test = split.test
    cutoffs = sorted(set(int(k) for k in cutoffs))
    n = dataset.n_items
    report = EvalReport(model=model_name, rows=[])
    long_len = history.long_lengths(test.user, test.day)

    def batch(q):
        return minibatch.Batch(history, test, q, test.hold[q], long_len[q])

    def fail(i, message, cause):
        report.failures.append(f"user {dataset.users[test.user[i]]} day {test.day[i]}: {message}")
        report.failure_causes[cause] = report.failure_causes.get(cause, 0) + 1

    users, rankable, aucs = [], [], []
    values = {(name, k): [] for name in ("precision", "recall", "mcan") for k in cutoffs}
    chunk = max(1, min(_CHUNK_ROWS, _CHUNK_SCORES // max(n, 1)))
    for start in range(0, len(test), chunk):
        q = np.arange(start, min(start + chunk, len(test)))
        x = batch(q)
        S, errors = _score_rows(scorer, x.users, x.longs, x.shorts, n)
        covered = np.zeros(q.size, dtype=bool)
        if exclude_context and cutoffs:
            covered = np.bincount(_distinct(_flat(n, x.shorts)) // n, minlength=q.size) == n
        kept = []  # the instances ranked, by place in the chunk
        for b in range(q.size):
            if b in errors:
                fail(q[b], errors[b], WRONG_LENGTH if isinstance(errors[b], _ShapeError)
                     else UNKNOWN)
            elif covered[b]:
                fail(q[b], "no item left to rank once its context is dropped", COVERED)
            else:
                kept.append(b)
        if not kept:
            continue
        if len(kept) < q.size:
            x, S = batch(q[kept]), S[kept]
        chunk_values, chunk_rankable, auc = _chunk_values(
            S, x.shorts, x.positives,
            minibatch.gather(history.seen, history.start[x.users],
                             np.diff(history.start)[x.users]),
            cutoffs, exclude_context,
        )
        users.append(x.users)
        rankable.append(chunk_rankable)
        aucs.append(auc)
        for key, v in chunk_values.items():
            values[key].append(v)

    if not users:
        return report
    users, rankable, aucs = (np.concatenate(a) for a in (users, rankable, aucs))
    report.n_instances = len(users)
    users = np.unique(users, return_inverse=True)[1]
    for (name, k), v in values.items():
        report.rows.append((name, k, _user_mean_then_global(users, np.concatenate(v))))
    has_pool = ~np.isnan(aucs)
    if has_pool.any():
        report.rows.append(("auc", None, _user_mean_then_global(users[has_pool],
                                                                aucs[has_pool])))
    for k in cutoffs:
        short = int(np.count_nonzero(rankable < k))
        if short:
            report.short_rankings[k] = short
    return report


def _predictions(predictor, ratings) -> tuple:
    """(true, predicted) values of the ratings predicted, and the failures.

    `predict_ratings` predicts every rating in one call. If it raises a
    KeyError or IndexError, or the predictor has only `predict_rating`,
    each rating is predicted on its own, so a bad rating fails alone.
    """
    batch = getattr(predictor, "predict_ratings", None)
    if batch is not None:
        try:
            return ratings.value, np.asarray(batch(ratings.user, ratings.item), np.float64), []
        except (KeyError, IndexError):
            pass
    true, pred, failures = [], [], []
    for u, i, r in ratings:
        try:
            pred.append(float(predictor.predict_rating(u, i)))
            true.append(r)
        except (KeyError, IndexError) as exc:
            failures.append(f"user {u} item {i}: {exc}")
    return true, pred, failures


def evaluate_ratings(predictor, ratings: data.Ratings, model_name: str) -> EvalReport:
    """MAE/RMSE of the predictor over `ratings`.

    A KeyError or IndexError fails only its rating; no rows are reported
    when no rating was scored.
    """
    true, pred, failures = _predictions(predictor, ratings)
    rows = [("mae", None, mae(true, pred)), ("rmse", None, rmse(true, pred))] if len(true) else []
    return EvalReport(
        model=model_name,
        rows=rows,
        n_instances=len(true),
        failures=failures,
        failure_causes={UNKNOWN: len(failures)} if failures else {},
    )
