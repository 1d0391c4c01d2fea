"""Reference implementations that production code replaced.

`rank_items` sorts the whole catalog under the ranking rule that
`metrics.top_k` applies to its candidates only. `ingest_csv` is the
`csv.DictReader` parser that `data.ingest_csv` replaced; it numbers rows
by record ordinal, which equals the file line only when no blank line and
no multi-line field precedes the row. `ingest_rows` is the per-row
`csv.reader` loop that `data.ingest_csv` ran before it checked whole
columns; it numbers each row by the file line it starts on. Both return
`Interaction` rows, the row form of a log that tests write; `from_rows`
turns such rows into a `data.Corpus`, interning tokens in order of first
appearance, and `rows` turns a `data.Corpus` back into them.
`rating_matrix`, `sessionize`, `profile_all`, `knowledge_levels`,
`dsw_degree` and `cross_cluster_disjointness` are the per-row loops over
`Interaction` rows that the `data` and `personality` functions of those
names (`data.RatingMatrix.from_interactions` for the first) replaced;
`sessionize` returns the token `data.Session` objects that
`data.sessionize` returned before it kept sessions as index arrays.
`split` is the loop over token objects that `data.split` ran before it
split index arrays, with one `rng.integers` call per held-out target.
`sessions_of` turns hand-written `data.Session` objects into a
`data.Sessions`, or `data.TestInstance` objects into a `data.HeldOut`.
`split_ratings` walks one `rng.permutation` of the ratings once per user,
giving each user's first ratings in that order to test, the rule
`data.split_ratings` applies with one stable sort. `split_ratings_int64`
is `data.split_ratings` as it was when that sort's key was always int64
(a timsort), before it sorted `uint16` keys (a radix sort), and `recode`
is `data._recode` as it was when it found first appearances with
`np.unique(..., return_index=True)` (a mergesort) and `np.argsort`, before
`data.first_appearance`'s linear pass.
`user_mean_then_global` is the dict loop `metrics._user_mean_then_global`
ran before it summed each user's values by one bincount.
`mean_predictor` averages rating triplets per user or item in dicts and
`evaluate_ratings` predicts one triplet at a time, as `baselines.user_mean`,
`item_mean` and `metrics.evaluate_ratings` did before ratings were arrays.
`bpr_loss_and_grad` sums the BPR trainer's own per-triple terms
(`baselines._bpr_triple`) over a list of triples, so gradient checks gate
the arithmetic training runs.
`prepared_instances` builds the trainers' instances from token-space
`training_instances`, per-user `train_histories` sets and a set-difference
complement per user, the way `data.prepared_instances` did before
`data.Histories`. `long_term_before` re-sorts and re-walks a user's
sessions for each day, the quadratic way long-term lists were built
before `data.Histories` took them as prefixes of one walk.
`profile_user` profiles one user with a lexicon compiled for them alone,
as `personality.profile_all` did before it compiled the lexicon once, and
scores them through `Matcher` (a `collections.Counter` of tokens per text),
`categorize` and `trait_score` (one dict per user), the per-user path that
`profile_all` replaced with one pass over all users; `tokenize` is the
regular expression that `personality.tokenize` replaced with a byte table.
Profiles are `PersonalityProfile` records keyed by user token, with the
dominant trait of `dominant_trait`, as `personality` kept them before it
kept per-user arrays; `profiles_of` turns `personality.profile_all`'s
arrays into those records, and `with_dominants` plants profiles with given
dominant traits. `knowledge_levels`, `trait_groups` and `gamma_vector` are
the dicts keyed by user token that knowledge levels, trait groups and blend
weights passed through before they were arrays over a user vocabulary.
`evaluate` is the per-instance loop `metrics.evaluate` ran before it took
every metric from ranks over a whole chunk: a full ranking per instance
(`rank_items`) without its context items, then `precision_at_k`,
`recall_at_k`, `can_novelty` and `auc` on its top; it reads each instance
as token objects, its long-term list through `long_term_before`, as
`metrics.evaluate` did before it gathered them from index arrays.
"""

import collections
import csv
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from recsuite import baselines, data, metrics, personality


class Interaction(NamedTuple):
    """One row of a log."""

    user: str
    item: str
    timestamp: int
    action: str = "view"
    rating: float | None = None
    review: str | None = None
    helpful: int | None = None


def from_rows(rows) -> data.Corpus:
    """The `Interaction` rows as columns, in their order; nothing is checked."""
    rows = list(rows)
    user, item, stamp, action, rating, review, helpful = (
        zip(*rows) if rows else [()] * len(Interaction._fields)
    )
    users, user_codes = data._intern(user)
    items, item_codes = data._intern(item)
    return data.Corpus(
        users, items, user_codes, item_codes,
        np.array(stamp, dtype=np.int64),
        np.fromiter(map(data.ACTIONS.index, action), np.int8, len(action)),
        np.array([np.nan if r is None else r for r in rating], dtype=np.float64),
        np.array([-1 if h is None else h for h in helpful], dtype=np.int64),
        [r or "" for r in review],
    )


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
                if helpful is not None and not -(2**63) <= helpful < 2**63:
                    raise ValueError("helpful votes out of range")
                if helpful is not None and helpful < 0:
                    raise ValueError("negative helpfulness votes")
                review = col("review") or None
                rows.append(
                    Interaction(user, item, ts, action, rating, review, helpful)
                )
            except ValueError as exc:
                errors.append(data.RowError(line=line_no, message=str(exc)))
    return rows, errors


def ingest_rows(path, schema=None):
    """(interactions, row errors) of a CSV, checked one csv.reader row at a time."""
    mapping = {c: c for c in data.CSV_COLUMNS}
    if schema:
        mapping.update(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        position = {name: j for j, name in enumerate(header)}
        width = len(header)
        columns = [position.get(mapping[c], width) for c in data.CSV_COLUMNS]
        rows, errors = [], []
        line_no = reader.line_num + 1  # where the next record starts
        for row in reader:
            start, line_no = line_no, reader.line_num + 1
            if not row:
                continue
            row = (row + [""] * width)[:width] + [""]
            user, item, ts_text, action, rating_text, review, helpful_text = [
                row[j].strip() for j in columns
            ]
            try:
                if not user:
                    raise ValueError("empty user id")
                if not item:
                    raise ValueError("empty item id")
                ts = data._parse_timestamp(ts_text)
                if ts < 0:
                    raise ValueError("negative timestamp")
                action = action or "view"
                if action not in data.ACTIONS:
                    raise ValueError(f"unknown action {action!r}")
                rating = float(rating_text) if rating_text else None
                if (action == "rate") != (rating is not None):
                    raise ValueError("rating must be present exactly when action is rate")
                if rating is not None and not (1.0 <= rating <= 5.0):
                    raise ValueError(f"rating {rating} outside [1, 5]")
                helpful = int(helpful_text) if helpful_text else None
                if helpful is not None and not -(2**63) <= helpful < 2**63:
                    raise ValueError("helpful votes out of range")
                if helpful is not None and helpful < 0:
                    raise ValueError("negative helpfulness votes")
                rows.append(
                    Interaction(user, item, ts, action, rating, review or None, helpful)
                )
            except ValueError as exc:
                errors.append(data.RowError(line=start, message=str(exc)))
    return rows, errors


def rows(corpus):
    """The corpus's rows as `Interaction`s, None where a row has no value."""
    return [
        Interaction(
            corpus.users[u], corpus.items[i], t, data.ACTIONS[a],
            None if np.isnan(r) else r, v or None, None if h < 0 else h,
        )
        for u, i, t, a, r, v, h in zip(
            corpus.user.tolist(), corpus.item.tolist(), corpus.timestamp.tolist(),
            corpus.action.tolist(), corpus.rating.tolist(), corpus.review,
            corpus.helpful.tolist(),
        )
    ]


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text):
    """The maximal runs of [a-z0-9] in the lower-cased text, by regular expression."""
    return _TOKEN_RE.findall(text.lower())


class Matcher:
    """A lexicon compiled once: each distinct token is matched against it once.

    `categories(token)` lists the positions of the categories the token
    matches, exactly or by a ``stem*`` word, each at most once.
    """

    def __init__(self, lexicon):
        self.names = list(lexicon)
        self.exact = collections.defaultdict(set)
        self.stems = []
        for c, words in enumerate(lexicon.values()):
            for w in words:
                if not w.endswith("*"):
                    self.exact[w].add(c)
            stems = tuple(w[:-1] for w in words if w.endswith("*"))
            if stems:
                self.stems.append((c, stems))
        self._matches = {}

    def categories(self, token):
        if token not in self._matches:
            hits = {c for c, stems in self.stems if token.startswith(stems)}
            self._matches[token] = tuple(hits | self.exact.get(token, set()))
        return self._matches[token]

    def proportions(self, text):
        """Per-category proportion of the text's tokens matching that category."""
        tokens = tokenize(text)
        matched = [0] * len(self.names)
        for token, n in collections.Counter(tokens).items():
            for c in self.categories(token):
                matched[c] += n
        return {cat: m / len(tokens) if tokens else 0.0 for cat, m in zip(self.names, matched)}


def categorize(text, lexicon):
    """Per-category proportion of tokens matching that category's words."""
    return Matcher(lexicon).proportions(text)


def trait_score(X, weights):
    """Linear combination of category proportions, one score per trait."""
    scores = {t: 0.0 for t in personality.TRAIT_ORDER}
    for trait, pairs in weights.items():
        for category, w in pairs:
            if category not in X:
                raise ValueError(f"weights reference unknown category {category!r}")
            scores[trait] += w * X[category]
    return scores


@dataclass
class PersonalityProfile:
    user: str
    scores: dict[str, float]
    dominant: str


def dominant_trait(scores):
    """The trait of the highest score, the first in TRAIT_ORDER on a tie."""
    best = max(scores[t] for t in personality.TRAIT_ORDER)
    return next(t for t in personality.TRAIT_ORDER if scores[t] == best)


def profiles_of(users, profiles):
    """`personality.profile_all`'s (scores, has_text) over `users` as
    {user: PersonalityProfile} of the users with text, in `users`' order."""
    scores, has_text = profiles
    out = {}
    for user, row, texted in zip(users, scores.tolist(), has_text.tolist()):
        if texted:
            row = dict(zip(personality.TRAIT_ORDER, row))
            out[user] = PersonalityProfile(user=user, scores=row, dominant=dominant_trait(row))
    return out


def with_dominants(dominants):
    """(corpus, profiles): one user `u<i>` per entry of `dominants`, whose
    trait scores are 1 at the trait `dominants[i]` names and 0 elsewhere; a
    user marked "-" has no review text."""
    users = [f"u{i}" for i in range(len(dominants))]
    corpus = from_rows(Interaction(u, "a", 0) for u in users)
    scores = np.zeros((len(users), len(personality.TRAIT_ORDER)))
    has_text = np.array([d != "-" for d in dominants], dtype=bool)
    for i, d in enumerate(dominants):
        if d != "-":
            scores[i, personality.TRAIT_ORDER.index(d)] = 1.0
    return corpus, (scores, has_text)


def profile_user(user, reviews, lexicon, weights):
    """One user's profile from their reviews: concatenate, categorize, score.

    None when there is no text.
    """
    texts = [r for r in reviews if r and r.strip()]
    if not texts:
        return None
    scores = trait_score(categorize(" ".join(texts), lexicon), weights)
    return PersonalityProfile(user=user, scores=scores, dominant=dominant_trait(scores))


def profile_all(interactions, lexicon, weights):
    """user -> profile of each user with review text, first appearance first."""
    reviews = collections.defaultdict(list)
    order = []
    for e in interactions:
        if e.user not in reviews:
            order.append(e.user)
        if e.review:
            reviews[e.user].append(e.review)
        else:
            reviews.setdefault(e.user, [])
    profiles = {}
    for user in order:
        prof = profile_user(user, reviews[user], lexicon, weights)
        if prof is not None:
            profiles[user] = prof
    return profiles


def knowledge_levels(interactions):
    """user -> min-max normalized mean votes over the user's reviewed rows, 0
    for a user without one."""
    votes = collections.defaultdict(list)
    seen = []
    for e in interactions:
        if e.user not in votes:
            seen.append(e.user)
            votes.setdefault(e.user, [])
        if e.review:
            votes[e.user].append(e.helpful or 0)
    raw = {u: (float(np.mean(v)) if v else None) for u, v in votes.items()}
    defined_vals = [v for v in raw.values() if v is not None]
    lo = min(defined_vals) if defined_vals else 0.0
    hi = max(defined_vals) if defined_vals else 0.0
    out = {}
    for u in seen:
        v = raw[u]
        if v is None:
            out[u] = 0.0
        elif hi == lo:
            out[u] = 0.5
        else:
            out[u] = (v - lo) / (hi - lo)
    return out


def trait_groups(profiles, users):
    """One label per user of `users`: the position of the first user with the
    same dominant trait in `profiles`, or the user's own without a profile."""
    first = {}
    return [i if user not in profiles else first.setdefault(profiles[user].dominant, i)
            for i, user in enumerate(users)]


def gamma_vector(users, kl_map, beta, override=None):
    """Each user's blend weight: the override, else beta plus the user's level
    in kl_map (0 when absent), clamped to [0, 1]."""
    if override is not None:
        return [float(override)] * len(users)
    return [min(1.0, max(0.0, beta + kl_map.get(u, 0.0))) for u in users]


def _items_by_user(interactions):
    by_user = collections.defaultdict(set)
    for e in interactions:
        by_user[e.user].add(e.item)
    return by_user


def dsw_degree(interactions):
    """Fraction of users sharing no interacted item with any other user."""
    by_user = _items_by_user(interactions)
    holders = collections.Counter(it for items in by_user.values() for it in items)
    if not by_user:
        return 0.0
    isolated = sum(1 for items in by_user.values() if all(holders[it] == 1 for it in items))
    return isolated / len(by_user)


def cross_cluster_disjointness(interactions, labels):
    """Fraction of users sharing no item with any user of another cluster."""
    by_user = _items_by_user(interactions)
    item_clusters = collections.defaultdict(set)
    for user, items in by_user.items():
        for it in items:
            item_clusters[it].add(labels[user])
    if not by_user:
        return 0.0
    disjoint = sum(
        1 for user, items in by_user.items()
        if all(item_clusters[it] == {labels[user]} for it in items)
    )
    return disjoint / len(by_user)


def rating_matrix(interactions):
    """(users, items, triplets): the latest rating of each (user, item), the
    later row on a tie, as (user, item, rating) triplets in (user, item) order."""
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
    return users, items, triplets


def split_ratings(triplets, test_fraction, rng):
    """(train, test) triplets: per user, in ascending order, the user's first
    min(count - 1, max(1, round(test_fraction * count))) triplets in the order
    of one permutation go to test; both lists keep the triplets' order."""
    order = rng.permutation(len(triplets)).tolist()
    held = set()
    for u in sorted({t[0] for t in triplets}):
        mine = [k for k in order if triplets[k][0] == u]
        if len(mine) >= 2:
            held.update(mine[:min(len(mine) - 1, max(1, round(test_fraction * len(mine))))])
    return ([t for k, t in enumerate(triplets) if k not in held],
            [t for k, t in enumerate(triplets) if k in held])


def split_ratings_int64(ratings, test_fraction, rng):
    """(train, test) `data.Ratings`: `data.split_ratings` with an int64 sort key."""
    order = rng.permutation(len(ratings))
    order = order[np.argsort(ratings.user[order], kind="stable")]
    counts = np.bincount(ratings.user, minlength=ratings.n_users)
    n_test = np.minimum(counts - 1, np.maximum(1, np.round(test_fraction * counts)))
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(order)) - np.repeat(starts, counts)
    held = np.zeros(len(order), bool)
    held[order[rank < np.repeat(n_test, counts)]] = True
    return ratings.take(~held), ratings.take(held)


def recode(codes, vocab):
    """`data._recode` through `np.unique`: the tokens `codes` use, first
    appearance first, and the codes renumbered."""
    present, first = np.unique(codes, return_index=True)
    kept = present[np.argsort(first)]
    remap = np.zeros(len(vocab), np.int64)
    remap[kept] = np.arange(len(kept))
    return [vocab[c] for c in kept.tolist()], remap[codes]


class TableMeanPredictor(NamedTuple):
    table: dict  # key -> mean rating
    global_mean: float
    by: str

    def predict_rating(self, user, item) -> float:
        return self.table.get(user if self.by == "user" else item, self.global_mean)


def mean_predictor(triplets, pos: int, by: str) -> TableMeanPredictor:
    """Each key's mean rating, the key at position pos of its triplets."""
    sums, ns = {}, {}
    for t in triplets:
        sums[t[pos]] = sums.get(t[pos], 0.0) + t[2]
        ns[t[pos]] = ns.get(t[pos], 0) + 1
    total = 0.0
    for t in triplets:  # in order, one addition at a time
        total += t[2]
    return TableMeanPredictor({k: sums[k] / ns[k] for k in sums}, total / len(triplets), by)


def evaluate_ratings(predictor, triplets, model_name):
    """MAE/RMSE of predictor.predict_rating over (user, item, rating) triplets,
    one triplet at a time; a KeyError or IndexError fails only its triplet."""
    true, pred, failures = [], [], []
    for u, i, r in triplets:
        try:
            pred.append(float(predictor.predict_rating(u, i)))
            true.append(r)
        except (KeyError, IndexError) as exc:
            failures.append(f"user {u} item {i}: {exc}")
    rows = ([("mae", None, metrics.mae(true, pred)), ("rmse", None, metrics.rmse(true, pred))]
            if true else [])
    return metrics.EvalReport(
        model=model_name, rows=rows, n_instances=len(true), failures=failures,
        failure_causes={metrics.UNKNOWN: len(failures)} if failures else {},
    )


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


def sessions_of(objects, users=None, items=None) -> data.Sessions:
    """`data.Session` objects as a `data.Sessions`, in their order, or
    `data.TestInstance` objects as a `data.HeldOut` whose sessions hold each
    target out after its context.

    The codes index the `users` and `items` vocabularies; one not given
    lists the tokens of the objects in order of first appearance.
    """
    objects = list(objects)
    held = bool(objects) and isinstance(objects[0], data.TestInstance)
    lists = [o.context + [o.target] if held else o.items for o in objects]
    if users is None:
        users = list(dict.fromkeys(o.user for o in objects))
    if items is None:
        items = list(dict.fromkeys(it for lst in lists for it in lst))
    user_index, item_index = data._index(users), data._index(items)
    sessions = data.Sessions(
        users, items,
        np.array([user_index[o.user] for o in objects], dtype=np.int64),
        np.array([o.day for o in objects], dtype=np.int64),
        np.array([o.t for o in objects], dtype=np.int64),
        np.cumsum([0] + [len(lst) for lst in lists], dtype=np.int64),
        np.array([item_index[it] for lst in lists for it in lst], dtype=np.int64),
    )
    if not held:
        return sessions
    return data.HeldOut(**vars(sessions),
                        hold=np.array([len(o.context) for o in objects], dtype=np.int64))


def split(sessions, policy, rng, test_fraction=0.2):
    """(train, test, warnings) of a list of `data.Session` objects: the
    token-object loop `data.split` ran before it split index arrays, with
    one `rng.integers` call per held-out target."""
    warnings = []
    per_user = collections.Counter(s.user for s in sessions)

    if policy == "random-80-20":
        eligible = [
            idx
            for idx, s in enumerate(sessions)
            if len(s.items) >= 2 and per_user[s.user] >= 2
        ]
        for s in sessions:
            if per_user[s.user] == 1 and len(s.items) == 1:
                warnings.append(
                    f"user {s.user}: single one-item session, excluded from test"
                )
        n_test = min(len(eligible), max(1, round(test_fraction * len(sessions))))
        if not eligible:
            raise ValueError("no session is eligible for the test side")
        chosen = set(
            int(i) for i in rng.choice(len(eligible), size=n_test, replace=False)
        )
        test_idx = {eligible[i] for i in chosen}
    elif policy == "last-week":
        max_day = max((s.day for s in sessions), default=None)
        if max_day is None:
            raise ValueError("cannot split an empty session list")
        test_idx = {i for i, s in enumerate(sessions) if s.day > max_day - 7}
        if len(test_idx) == len(sessions):
            raise ValueError("last-week split leaves the training side empty")
    else:
        raise ValueError(f"unknown split policy {policy!r}")

    train, test = [], []
    for idx, s in enumerate(sessions):
        if idx not in test_idx:
            train.append(s)
            continue
        if len(s.items) < 2:
            warnings.append(
                f"user {s.user}: test session on day {s.day} has a single item, "
                "cannot hold out a target; excluded"
            )
            if policy == "last-week":
                continue  # too recent for train, too short for test
            train.append(s)
            continue
        hold = int(rng.integers(len(s.items)))
        context = s.items[:hold] + s.items[hold + 1 :]
        test.append(
            data.TestInstance(user=s.user, day=s.day, t=s.t, context=context,
                              target=s.items[hold])
        )
    return train, test, warnings


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


def precision_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the first k ranked items that are relevant.

    When fewer than k items are ranked, the fraction is over the items
    ranked; an empty ranking is a ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(ranked):
        raise ValueError("nothing was ranked")
    k = min(k, len(ranked))
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


def can_novelty(recommended, consumed) -> float:
    """1 - |R ∩ C| / |R|: share of the recommendation the user hasn't consumed."""
    R = set(recommended)
    if not R:
        raise ValueError("empty recommendation set")
    return 1.0 - len(R & set(consumed)) / len(R)


def _user_mean_then_global(per_user: dict) -> float:
    user_means = [sum(vals) / len(vals) for vals in per_user.values() if vals]
    return sum(user_means) / len(user_means)


def user_mean_then_global(users, values) -> float:
    """`metrics._user_mean_then_global` as a dict loop: each user's values
    listed in instance order, the user means in order of first appearance."""
    per_user: dict[int, list[float]] = {}
    for user, value in zip(np.asarray(users).tolist(), np.asarray(values).tolist()):
        per_user.setdefault(user, []).append(value)
    return _user_mean_then_global(per_user)


def evaluate(scorer, dataset, split, cutoffs, model_name, exclude_context=True):
    """`metrics.evaluate` one instance at a time: a top-k list, then each metric.

    Each instance is taken from token objects (the test instances, and
    each user's train sessions with `long_term_before`), scored alone
    (`metrics._score_rows` on a batch of one), ranked by `metrics.top_k`
    without its context when that is excluded, and scored by the
    per-instance metrics above; AUC pairs the target with every item
    outside the train history, context and target.
    """
    train = {}
    for s in split.train:
        train.setdefault(s.user, []).append(s)
    cutoffs = sorted(set(int(k) for k in cutoffs))
    n = dataset.n_items
    per_user = {(name, k): {} for name in ("precision", "recall", "mcan") for k in cutoffs}
    per_user[("auc", None)] = {}
    failures = []
    short = dict.fromkeys(cutoffs, 0)
    n_done = 0
    for inst in split.test:
        mine = train.get(inst.user, [])
        user = dataset.user_index[inst.user]
        long_items = [dataset.item_index[i] for i in long_term_before(mine, inst.day)]
        ctx_idx = [dataset.item_index[i] for i in inst.context]
        target = dataset.item_index[inst.target]
        rows, errors = metrics._score_rows(scorer, [user], [long_items], [ctx_idx], n)
        if errors:
            failures.append(f"user {inst.user} day {inst.day}: {errors[0]}")
            continue
        scores = rows[0]
        if cutoffs:
            ranked = rank_items(scores)
            if exclude_context:
                ranked = ranked[~np.isin(ranked, ctx_idx)]
            ranked = ranked[:cutoffs[-1]]
            if not ranked.size:
                failures.append(f"user {inst.user} day {inst.day}: no item left to "
                                "rank once its context is dropped")
                continue
        for k in cutoffs:
            short[k] += ranked.size < k
            topk = list(ranked[:k])
            per_user[("precision", k)].setdefault(inst.user, []).append(
                precision_at_k(topk, {target}, k))
            per_user[("recall", k)].setdefault(inst.user, []).append(
                recall_at_k(topk, {target}, k))
            per_user[("mcan", k)].setdefault(inst.user, []).append(
                can_novelty(topk, ctx_idx))
        outside = np.ones(n, dtype=bool)
        outside[[dataset.item_index[i] for s in mine for i in s.items]] = False
        outside[ctx_idx + [target]] = False
        pool = np.flatnonzero(outside)
        if pool.size:
            per_user[("auc", None)].setdefault(inst.user, []).append(
                auc([scores[target]], scores[pool]))
        n_done += 1
    rows = [(name, k, _user_mean_then_global(v)) for (name, k), v in per_user.items() if v]
    return metrics.EvalReport(
        model=model_name, rows=rows, n_instances=n_done, failures=failures,
        short_rankings={k: c for k, c in short.items() if c},
    )
