"""Checks of recsuite's outputs, computed apart from its metric code.

Only the score vectors and rating predictions come from the program (the
loaded checkpoints' `score_items` and `predict_rating`). Ranking, exclusion
of context items, pair counting and averaging are plain Python here, so a
fault in `metrics` cannot hide itself. Each check returns a list of
problems; an empty list means the output is right.
"""

import math

TOL = 1e-12

# `apar.guarded_step` accepts a multiplicative step whose objective is at
# most this much above the previous one, so that is the most a trace may rise.
GUARD_SLACK = 1e-12


def rank(scores):
    """Indices by descending score, ties by ascending index."""
    return sorted(range(len(scores)), key=lambda j: (-scores[j], j))


def _dedup(items):
    seen, out = set(), []
    for it in items:
        if it not in seen:
            seen.add(it)
            out.append(it)
    return out


def ranking_instances(ds, sp):
    """(user, long, context, target, history) in index space per test instance.

    Long-term items are the user's train sessions of strictly earlier days,
    first occurrence kept; history is every item of the user's train sessions.
    """
    by_user = {}
    for s in sp.train:
        by_user.setdefault(s.user, []).append(s)
    idx = ds.item_index
    out = []
    for inst in sp.test:
        mine = sorted(by_user.get(inst.user, []), key=lambda s: (s.day, s.t))
        long_items = _dedup(it for s in mine if s.day < inst.day for it in s.items)
        history = {idx[it] for s in mine for it in s.items}
        out.append((ds.user_index[inst.user], [idx[i] for i in long_items],
                    [idx[i] for i in inst.context], idx[inst.target], history))
    return out


def recommend_inputs(ds, user):
    """(long, short) item indices `recommend` scores a user with.

    The short side is the user's latest session, the long side the items of
    all earlier sessions, first occurrence kept.
    """
    mine = sorted((s for s in ds.sessions if s.user == user), key=lambda s: (s.day, s.t))
    short = mine[-1].items if mine else []
    long_items = _dedup(it for s in mine[:-1] for it in s.items)
    return [ds.item_index[i] for i in long_items], [ds.item_index[i] for i in short]


def _mean_of_user_means(per_user):
    means = [sum(v) / len(v) for v in per_user.values()]
    return sum(means) / len(means)


def ranking_rows(score, instances, n_items, cutoffs):
    """Expected report values {(metric, cutoff): value} of a ranking model.

    Context items leave the ranking before the top-k is taken; AUC pairs the
    target with every item outside the history, the context and the target.
    Values are averaged per user, then over users.
    """
    per = {}

    def add(key, user, value):
        per.setdefault(key, {}).setdefault(user, []).append(value)

    for user, long_items, ctx, target, history in instances:
        s = [float(v) for v in score(user, long_items, ctx)]
        drop = set(ctx)
        order = [j for j in rank(s) if j not in drop]
        for k in cutoffs:
            top = order[:k]
            hits = top.count(target)
            add(("precision", k), user, hits / k)
            add(("recall", k), user, float(hits))
            add(("mcan", k), user, 1.0 - len(set(top) & drop) / len(set(top)))
        seen = history | drop | {target}
        pool = [s[j] for j in range(n_items) if j not in seen]
        if pool:
            t = s[target]
            wins = sum(1.0 if t > v else 0.5 if t == v else 0.0 for v in pool)
            add(("auc", None), user, wins / len(pool))
    return {key: _mean_of_user_means(v) for key, v in per.items()}


def rating_rows(predict, triplets):
    """Expected MAE and RMSE over (user, item, rating) triplets."""
    errors = [r - float(predict(u, i)) for u, i, r in triplets]
    n = len(errors)
    return {("mae", None): sum(abs(e) for e in errors) / n,
            ("rmse", None): math.sqrt(sum(e * e for e in errors) / n)}


def parse_report(rows):
    """{(metric, cutoff): value} from report.csv rows read by csv.DictReader."""
    return {(r["metric"], int(r["cutoff"]) if r["cutoff"] else None): float(r["value"])
            for r in rows}


def report_problems(model, got, expected):
    problems = []
    if set(got) != set(expected):
        problems.append(f"{model}: report rows {sorted(got, key=str)} != "
                        f"expected {sorted(expected, key=str)}")
    for key in sorted(set(got) & set(expected), key=str):
        if not abs(got[key] - expected[key]) <= TOL:
            problems.append(f"{model}: {key} is {got[key]!r}, "
                            f"recomputed {expected[key]!r}")
    return problems


def listing_problems(label, stdout, scores, items, n):
    """A `recommend` listing must be the top-n of `scores` in rank order."""
    lines = [line for line in stdout.splitlines() if line]
    expected = [(str(r), items[j], float(scores[j]))
                for r, j in enumerate(rank([float(v) for v in scores])[:n], start=1)]
    if len(lines) != len(expected):
        return [f"{label}: {len(lines)} listing lines, expected {len(expected)}"]
    for line, (r, item, score) in zip(lines, expected):
        parts = line.split(",")
        if len(parts) != 3 or parts[:2] != [r, item] or float(parts[2]) != score:
            return [f"{label}: line {line!r}, expected {r},{item},{score!r}"]
    return []


def trace_problems(model, values):
    problems = [f"{model}: trace value {v!r} at epoch {i} is not finite"
                for i, v in enumerate(values) if not math.isfinite(v)]
    if model == "apar":
        problems += [f"apar: objective rose from {a!r} to {b!r} at iteration {i + 1}"
                     for i, (a, b) in enumerate(zip(values, values[1:]))
                     if b > a + GUARD_SLACK]
    return problems


def factor_problems(model, arrays):
    return [f"{model}: factor {name} has negative entries"
            for name, arr in arrays.items() if float(arr.min()) < 0.0]


def planted_problems(reports, metric, cutoff, model, baseline, factor):
    """`model` must beat `baseline` on a planted corpus by `factor`.

    factor > 1 asks for a higher value (model >= factor * baseline), factor
    < 1 for a lower one (model <= factor * baseline).
    """
    ours, theirs = reports[model][(metric, cutoff)], reports[baseline][(metric, cutoff)]
    ok = ours >= factor * theirs if factor > 1 else ours <= factor * theirs
    if ok:
        return []
    label = metric if cutoff is None else f"{metric}@{cutoff}"
    return [f"planted structure not recovered: {model} {label} {ours:.4f} vs "
            f"{baseline} {theirs:.4f} (needs a factor of {factor})"]
