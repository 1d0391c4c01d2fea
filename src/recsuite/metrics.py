"""Accuracy, ranking, and novelty metrics plus the shared evaluation loop.

All ranking metrics consume an already-ordered item list produced by
`top_k`, so every model is ranked under the same rule: descending score,
ties broken by ascending item index.
"""

import csv
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from . import data


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
# Top-k hit metrics


def precision_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the first k ranked items that are relevant.

    When fewer than k items are available the available prefix is used
    and a warning is emitted, so short catalogs degrade loudly; an empty
    ranking is a ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(ranked):
        raise ValueError("nothing was ranked")
    if len(ranked) < k:
        _warnings.warn(f"only {len(ranked)} items ranked, wanted top-{k}")
        k = len(ranked)
    topk = list(ranked)[:k]
    return sum(1 for it in topk if it in relevant) / k


def recall_at_k(ranked, relevant, k: int) -> float:
    if not relevant:
        raise ValueError("relevant set is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    topk = list(ranked)[:k]
    return sum(1 for it in topk if it in relevant) / len(relevant)


def auc(pos_scores, neg_scores) -> float:
    """Mean over (positive, negative) pairs of win=1 / tie=0.5 / loss=0."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc needs at least one positive and one negative")
    wins = 0.0
    for p in pos:
        wins += np.count_nonzero(p > neg) + 0.5 * np.count_nonzero(p == neg)
    return float(wins / (pos.size * neg.size))


# ---------------------------------------------------------------------------
# Novelty


def can_novelty(recommended, consumed) -> float:
    """1 - |R ∩ C| / |R|: share of the recommendation the user hasn't consumed."""
    R = set(recommended)
    if not R:
        raise ValueError("empty recommendation set")
    return 1.0 - len(R & set(consumed)) / len(R)


# ---------------------------------------------------------------------------
# Shared ranking rule


def top_k(scores, k: int, drop=()) -> np.ndarray:
    """The first k items of the ranking of `scores`, leaving out `drop`.

    The ranking is by descending score, ties by ascending index, NaN last.
    A partition finds the k-th best score without sorting the catalog; only
    the items at least as good as it, every tie with it included, are then
    sorted under the exact rule. Returns fewer than k items when fewer
    remain.
    """
    key = -np.asarray(scores, dtype=np.float64)
    items = np.arange(key.size)
    if k < 1:
        return items[:0]
    if len(drop):
        keep = np.ones(key.size, dtype=bool)
        keep[drop] = False
        items, key = items[keep], key[keep]
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


# what fails a single instance (an unknown user or item, a wrong-length
# score vector); any other exception is a bug and propagates
_DATA_ERRORS = (KeyError, IndexError, _ShapeError)


# Most score rows, and most scores (2**18 float64 values, 2 MB), one chunk
# of `evaluate` holds; wider catalogs get fewer rows per chunk.
_CHUNK_ROWS = 64
_CHUNK_SCORES = 1 << 18


def _score_rows(scorer, users, longs, shorts, n):
    """One score row per instance of a chunk, or the data error it raised.

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
                return list(rows)
        except _DATA_ERRORS:
            pass
    out = []
    for user, long_items, short_items in zip(users, longs, shorts):
        try:
            row = np.asarray(scorer.score_items(user, long_items, short_items),
                             dtype=np.float64)
            if row.shape != (n,):
                raise _ShapeError(f"scorer returned shape {row.shape}, expected ({n},)")
            out.append(row)
        except _DATA_ERRORS as exc:
            out.append(exc)
    return out


def _user_mean_then_global(per_user: dict) -> float:
    user_means = [sum(vals) / len(vals) for vals in per_user.values() if vals]
    return sum(user_means) / len(user_means)


def evaluate(
    scorer,
    dataset: data.Dataset,
    split: data.Split,
    cutoffs,
    model_name: str,
    exclude_context: bool = True,
    auc_negatives: str = "all",
    rng=None,
) -> EvalReport:
    """Score every held-out target and aggregate per user, then globally.

    For each test instance the scorer sees the user's long-term items
    (train sessions from strictly earlier days) and the instance context,
    and must return one score per catalog item. Instances are scored in
    chunks of consecutive instances (`score_batch`, or `score_items` one at
    a time for a scorer without it), each chunk at most 64 rows and 2**18
    scores. With exclude_context on, context items are dropped from the
    ranking before top-k metrics are taken (novelty is then 1 by
    construction). AUC negatives are the items outside train history,
    context, and target; "sampled-100" caps that pool at 100 draws per
    instance, drawn from `rng` in instance order.

    A lookup error (KeyError, IndexError: an unknown user or item), a
    score vector of the wrong length, or a context that covers the catalog
    when it is excluded (nothing is left to rank) fails only its instance
    and is listed in the report's failures, in instance order; any other
    exception propagates.
    """
    if auc_negatives not in ("all", "sampled-100"):
        raise ValueError(f"unknown auc_negatives mode: {auc_negatives!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    history = data.Histories(split.train, dataset)
    cutoffs = sorted(set(int(k) for k in cutoffs))
    n = dataset.n_items
    per_user: dict[tuple, dict[str, list[float]]] = {}
    for k in cutoffs:
        per_user[("precision", k)] = {}
        per_user[("recall", k)] = {}
        per_user[("mcan", k)] = {}
    per_user[("auc", None)] = {}
    failures: list[str] = []
    n_done = 0

    chunk = max(1, min(_CHUNK_ROWS, _CHUNK_SCORES // max(n, 1)))
    for start in range(0, len(split.test), chunk):
        part = split.test[start:start + chunk]
        inputs = []  # per instance: (user, long items, context, target) or its error
        for inst in part:
            try:
                inputs.append((
                    dataset.user_index[inst.user],
                    history.long_term(inst.user, inst.day),
                    [dataset.item_index[i] for i in inst.context],
                    dataset.item_index[inst.target],
                ))
            except _DATA_ERRORS as exc:
                inputs.append(exc)
        found = [x for x in inputs if not isinstance(x, Exception)]
        scored = iter(_score_rows(scorer, [x[0] for x in found], [x[1] for x in found],
                                  [x[2] for x in found], n) if found else ())

        for inst, x in zip(part, inputs):
            scores = x if isinstance(x, Exception) else next(scored)
            if isinstance(scores, Exception):
                failures.append(f"user {inst.user} day {inst.day}: {scores}")
                continue
            _, _, ctx_idx, target = x
            if cutoffs:
                ranked = top_k(scores, cutoffs[-1], ctx_idx if exclude_context else ())
                if not ranked.size:
                    failures.append(f"user {inst.user} day {inst.day}: no item left to "
                                    "rank once its context is dropped")
                    continue
            for k in cutoffs:
                topk = list(ranked[:k])
                per_user[("precision", k)].setdefault(inst.user, []).append(
                    precision_at_k(topk, {target}, k)
                )
                per_user[("recall", k)].setdefault(inst.user, []).append(
                    recall_at_k(topk, {target}, k)
                )
                per_user[("mcan", k)].setdefault(inst.user, []).append(
                    can_novelty(topk, ctx_idx)
                )

            outside = np.ones(n, dtype=bool)
            outside[history.seen(inst.user)] = False
            outside[ctx_idx + [target]] = False
            pool = np.flatnonzero(outside)
            if pool.size:
                if auc_negatives == "sampled-100" and pool.size > 100:
                    pool = rng.choice(pool, size=100, replace=False)
                per_user[("auc", None)].setdefault(inst.user, []).append(
                    auc([scores[target]], scores[pool])
                )
            n_done += 1

    rows = []
    for name in ("precision", "recall", "mcan"):
        for k in cutoffs:
            if per_user[(name, k)]:
                rows.append((name, k, _user_mean_then_global(per_user[(name, k)])))
    if per_user[("auc", None)]:
        rows.append(("auc", None, _user_mean_then_global(per_user[("auc", None)])))

    return EvalReport(
        model=model_name,
        rows=rows,
        n_instances=n_done,
        failures=failures,
    )


def evaluate_ratings(predictor, triplets, model_name: str) -> EvalReport:
    """MAE/RMSE of predictor.predict_rating over (user, item, rating) triplets.

    A KeyError or IndexError fails only its triplet; no rows are reported
    when no triplet was scored.
    """
    true, pred, failures = [], [], []
    for u, i, r in triplets:
        try:
            pred.append(float(predictor.predict_rating(u, i)))
            true.append(r)
        except (KeyError, IndexError) as exc:
            failures.append(f"user {u} item {i}: {exc}")
    rows = [("mae", None, mae(true, pred)), ("rmse", None, rmse(true, pred))] if true else []
    return EvalReport(
        model=model_name,
        rows=rows,
        n_instances=len(true),
        failures=failures,
    )
