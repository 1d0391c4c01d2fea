"""Accuracy, ranking, and novelty metrics plus the shared evaluation loop.

All ranking metrics consume an already-ordered item list produced by
`rank_items`, so every model is ranked under the same rule: descending
score, ties broken by ascending item index.
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
    and a warning is emitted, so short catalogs degrade loudly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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


def mcan_at_k(pairs) -> float:
    """Mean of can_novelty over (recommended, consumed) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no recommendation/consumption pairs")
    return sum(can_novelty(R, C) for R, C in pairs) / len(pairs)


# ---------------------------------------------------------------------------
# Shared ranking rule


def rank_items(scores: np.ndarray) -> np.ndarray:
    """Item indices ordered by descending score, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


# ---------------------------------------------------------------------------
# Evaluation reports


@dataclass
class EvalReport:
    model: str
    split_id: str
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
                w.writerow([self.model, self.split_id, name, "" if c is None else c, f"{v:.17g}"])

    def to_text(self) -> str:
        lines = [f"model={self.model} split={self.split_id} instances={self.n_instances}"]
        for name, c, v in self.rows:
            label = name if c is None else f"{name}@{c}"
            lines.append(f"  {label:<14} {v:.6f}")
        if self.failures:
            lines.append(f"  ({len(self.failures)} instances failed; first: {self.failures[0]})")
        return "\n".join(lines)


def _user_mean_then_global(per_user: dict) -> float:
    user_means = [sum(vals) / len(vals) for vals in per_user.values() if vals]
    return sum(user_means) / len(user_means)


def evaluate(
    scorer,
    dataset: data.Dataset,
    split: data.Split,
    cutoffs,
    model_name: str,
    split_id: str = "test",
    exclude_context: bool = True,
    auc_negatives: str = "all",
    rng=None,
) -> EvalReport:
    """Score every held-out target and aggregate per user, then globally.

    For each test instance the scorer sees the user's long-term items
    (train sessions from strictly earlier days) and the instance context,
    and must return one score per catalog item. With exclude_context on,
    context items are dropped from the ranking before top-k metrics are
    taken (novelty is then 1 by construction). AUC negatives are the
    items outside train history, context, and target; "sampled-100" caps
    that pool at 100 draws per instance.
    """
    if auc_negatives not in ("all", "sampled-100"):
        raise ValueError(f"unknown auc_negatives mode: {auc_negatives!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    train_sessions: dict[str, list[data.Session]] = {}
    history: dict[str, set[int]] = {}
    for s in split.train:
        train_sessions.setdefault(s.user, []).append(s)
        history.setdefault(s.user, set()).update(dataset.item_index[i] for i in s.items)

    cutoffs = sorted(set(int(k) for k in cutoffs))
    n = dataset.n_items
    all_items = np.arange(n)
    per_user: dict[tuple, dict[str, list[float]]] = {}
    for k in cutoffs:
        per_user[("precision", k)] = {}
        per_user[("recall", k)] = {}
        per_user[("mcan", k)] = {}
    per_user[("auc", None)] = {}
    failures: list[str] = []
    n_done = 0

    for inst in split.test:
        try:
            uidx = dataset.user_index[inst.user]
            long_items = data.long_term_before(train_sessions.get(inst.user, []), inst.day)
            g_idx = [dataset.item_index[i] for i in long_items]
            ctx_idx = [dataset.item_index[i] for i in inst.context]
            target = dataset.item_index[inst.target]

            scores = np.asarray(scorer.score_items(uidx, g_idx, ctx_idx), dtype=np.float64)
            if scores.shape != (n,):
                raise ValueError(f"scorer returned shape {scores.shape}, expected ({n},)")

            order = rank_items(scores)
            if exclude_context:
                drop = set(ctx_idx)
                order = [i for i in order if i not in drop]
            for k in cutoffs:
                topk = list(order[:k])
                per_user[("precision", k)].setdefault(inst.user, []).append(
                    precision_at_k(topk, {target}, k)
                )
                per_user[("recall", k)].setdefault(inst.user, []).append(
                    recall_at_k(topk, {target}, k)
                )
                per_user[("mcan", k)].setdefault(inst.user, []).append(
                    can_novelty(topk, ctx_idx)
                )

            seen = history.get(inst.user, set()) | set(ctx_idx) | {target}
            pool = all_items[~np.isin(all_items, sorted(seen))]
            if pool.size:
                if auc_negatives == "sampled-100" and pool.size > 100:
                    pool = rng.choice(pool, size=100, replace=False)
                per_user[("auc", None)].setdefault(inst.user, []).append(
                    auc([scores[target]], scores[pool])
                )
            n_done += 1
        except Exception as exc:  # record and move on; one bad user can't sink a run
            failures.append(f"user {inst.user} day {inst.day}: {exc}")

    rows = []
    for name in ("precision", "recall", "mcan"):
        for k in cutoffs:
            if per_user[(name, k)]:
                rows.append((name, k, _user_mean_then_global(per_user[(name, k)])))
    if per_user[("auc", None)]:
        rows.append(("auc", None, _user_mean_then_global(per_user[("auc", None)])))

    return EvalReport(
        model=model_name,
        split_id=split_id,
        rows=rows,
        n_instances=n_done,
        failures=failures,
    )


def evaluate_ratings(predictor, triplets, model_name: str, split_id: str = "test") -> EvalReport:
    """MAE/RMSE of predictor.predict_rating over (user, item, rating) triplets."""
    true, pred, failures = [], [], []
    for u, i, r in triplets:
        try:
            pred.append(float(predictor.predict_rating(u, i)))
            true.append(r)
        except Exception as exc:
            failures.append(f"user {u} item {i}: {exc}")
    rows = [("mae", None, mae(true, pred)), ("rmse", None, rmse(true, pred))]
    return EvalReport(
        model=model_name,
        split_id=split_id,
        rows=rows,
        n_instances=len(true),
        failures=failures,
    )
