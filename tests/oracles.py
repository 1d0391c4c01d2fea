"""Reference implementations that production code replaced.

`rank_items` sorts the whole catalog under the ranking rule that
`metrics.top_k` applies to its candidates only. `ingest_csv` is the
`csv.DictReader` parser that `data.ingest_csv` replaced; it numbers rows
by record ordinal, which equals the file line only when no blank line and
no multi-line field precedes the row. `rating_matrix` and `sessionize` are
the per-row loops that `data.RatingMatrix.from_interactions` and
`data.sessionize` replaced. `bpr_loss_and_grad` sums the BPR
trainer's own per-triple terms (`baselines._bpr_triple`) over a list of
triples, so gradient checks gate the arithmetic training runs.
`prepared_instances` builds the trainers' instances from token-space
`training_instances`, per-user `train_histories` sets and a set-difference
complement per user, the way `data.prepared_instances` did before
`data.Histories`. `long_term_before` re-sorts and re-walks a user's
sessions for each day, the quadratic way `Histories.long_term` built its
lists before it took them as prefixes of one walk.
"""

import collections
import csv

import numpy as np

from recsuite import baselines, data


def rank_items(scores) -> np.ndarray:
    """Item indices ordered by descending score, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def ingest_csv(path, schema=None):
    """(interactions, row errors) of a CSV, parsed through csv.DictReader."""
    mapping = {c: c for c in data.CSV_COLUMNS}
    if schema:
        mapping.update(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, no header")
        for logical in ("user", "item", "timestamp"):
            if mapping[logical] not in reader.fieldnames:
                raise ValueError(
                    f"{path}: required column {mapping[logical]!r} not in header"
                )
        rows, errors = [], []
        for line_no, row in enumerate(reader, start=2):
            def col(logical):
                value = row.get(mapping[logical])
                return value.strip() if value is not None else ""

            try:
                user, item = col("user"), col("item")
                if not user:
                    raise ValueError("empty user id")
                if not item:
                    raise ValueError("empty item id")
                ts = data._parse_timestamp(col("timestamp"))
                if ts < 0:
                    raise ValueError("negative timestamp")
                action = col("action") or "view"
                if action not in data.ACTIONS:
                    raise ValueError(f"unknown action {action!r}")
                rating_text = col("rating")
                rating = float(rating_text) if rating_text else None
                if (action == "rate") != (rating is not None):
                    raise ValueError("rating must be present exactly when action is rate")
                if rating is not None and not (1.0 <= rating <= 5.0):
                    raise ValueError(f"rating {rating} outside [1, 5]")
                helpful_text = col("helpful")
                helpful = int(helpful_text) if helpful_text else None
                if helpful is not None and helpful < 0:
                    raise ValueError("negative helpfulness votes")
                review = col("review") or None
                rows.append(
                    data.Interaction(user, item, ts, action, rating, review, helpful)
                )
            except ValueError as exc:
                errors.append(data.RowError(line=line_no, message=str(exc)))
    return rows, errors


def rating_matrix(interactions) -> data.RatingMatrix:
    """The latest rating of each (user, item), the later row on a tie."""
    users, items, uidx, iidx = [], [], {}, {}
    latest = {}
    for order, e in enumerate(interactions):
        if e.action != "rate" or e.rating is None:
            continue
        if e.user not in uidx:
            uidx[e.user] = len(users)
            users.append(e.user)
        if e.item not in iidx:
            iidx[e.item] = len(items)
            items.append(e.item)
        key = (uidx[e.user], iidx[e.item])
        stamp = (e.timestamp, order)
        if key not in latest or stamp >= latest[key][:2]:
            latest[key] = (e.timestamp, order, e.rating)
    triplets = [(u, i, r) for (u, i), (_, _, r) in sorted(latest.items())]
    return data.RatingMatrix(users, items, uidx, iidx, triplets)


def sessionize(events):
    """One session per (user, calendar day), items in timestamp order."""
    ordered = sorted(events, key=lambda e: (e.user, e.timestamp))
    sessions = []
    counters = collections.defaultdict(int)
    for e in ordered:
        day = e.timestamp // data.SECONDS_PER_DAY
        if sessions and sessions[-1].user == e.user and sessions[-1].day == day:
            sessions[-1].items.append(e.item)
        else:
            sessions.append(
                data.Session(user=e.user, t=counters[e.user], day=day, items=[e.item])
            )
            counters[e.user] += 1
    return sessions


def long_term_before(user_sessions, day):
    """Deduplicated items of the user's sessions strictly before `day`."""
    ordered = sorted(user_sessions, key=lambda s: (s.day, s.t))
    return data.ordered_dedup(it for s in ordered if s.day < day for it in s.items)


def bpr_loss_and_grad(P, Q, triples, l2):
    """Summed pairwise loss and gradients over (user, pos, neg) triples.

    Per triple: softplus(-p_u·(q_i - q_j)) + l2(|p_u|^2 + |q_i|^2 + |q_j|^2),
    the per-step objective the trainer descends.
    """
    loss = 0.0
    gP = np.zeros_like(P)
    gQ = np.zeros_like(Q)
    for u, i, j in triples:
        pu, qi, qj = P[u], Q[i], Q[j]
        data_loss, gp, gqi, gqj = baselines._bpr_triple(pu, qi, qj, l2)
        loss += data_loss
        loss += l2 * (pu @ pu + qi @ qi + qj @ qj)
        gP[u] += gp
        gQ[i] += gqi
        gQ[j] += gqj
    return float(loss), [gP, gQ]


def training_instances(train_sessions):
    """One instance per session position: that item held out, the rest as context."""
    out = []
    for s in train_sessions:
        for p in range(len(s.items)):
            out.append(
                data.TestInstance(
                    user=s.user,
                    day=s.day,
                    t=s.t,
                    context=s.items[:p] + s.items[p + 1 :],
                    target=s.items[p],
                )
            )
    return out


def train_histories(sessions):
    """user -> set of every item the user touched in these sessions."""
    hist = {}
    for s in sessions:
        hist.setdefault(s.user, set()).update(s.items)
    return hist


def prepared_instances(split, dataset):
    """(user_idx, long_idx, context_idx, target_idx, negative_pool) per position."""
    sessions_by_user = {}
    for s in split.train:
        sessions_by_user.setdefault(s.user, []).append(s)
    complement = {
        u: np.array(
            sorted(set(range(dataset.n_items)) - {dataset.item_index[i] for i in items}),
            dtype=np.int64,
        )
        for u, items in train_histories(split.train).items()
    }
    long_cache = {}
    prepared = []
    for inst in training_instances(split.train):
        key = (inst.user, inst.day)
        if key not in long_cache:
            toks = long_term_before(sessions_by_user[inst.user], inst.day)
            long_cache[key] = [dataset.item_index[i] for i in toks]
        prepared.append(
            (
                dataset.user_index[inst.user],
                long_cache[key],
                [dataset.item_index[i] for i in inst.context],
                dataset.item_index[inst.target],
                complement[inst.user],
            )
        )
    return prepared
