"""Interaction logs, sessions, splits, negative sampling, synthetic corpora.

An interaction log is read into `Interaction` named tuples, one checked
row at a time, and each faulty row is reported with its file line. A
session is everything one user did in one calendar day, ordered by
timestamp. Long-term context for session t is the deduplicated union of the
user's earlier-day sessions; short-term context is session t itself, order
kept. `Histories` answers every per-user question (long-term lists, touched items,
negative pools) for the trainers, the evaluator and `recommend`.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import csv
import datetime
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SECONDS_PER_DAY = 86_400

ACTIONS = {"view", "click", "cart", "wishlist", "purchase", "checkin", "rate"}

CSV_COLUMNS = ["user", "item", "timestamp", "action", "rating", "review", "helpful"]


class Interaction(NamedTuple):
    user: str
    item: str
    timestamp: int
    action: str = "view"
    rating: float | None = None
    review: str | None = None
    helpful: int | None = None


@dataclass(frozen=True)
class RowError:
    line: int
    message: str


@dataclass
class Session:
    user: str
    t: int  # ordinal among this user's sessions, 0-based
    day: int  # days since the epoch
    items: list[str]


@dataclass
class TestInstance:
    user: str
    day: int
    t: int
    context: list[str]  # session items minus the held-out target, order kept
    target: str


@dataclass
class Split:
    train: list[Session]
    test: list[TestInstance]
    policy: str
    warnings: list[str] = field(default_factory=list)


def _parse_timestamp(text: str) -> int:
    s = text.strip()
    try:
        return int(s)
    except ValueError:
        pass
    try:
        dt = datetime.datetime.fromisoformat(s)
    except ValueError:
        raise ValueError(f"unparseable timestamp {text!r}")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=datetime.timezone.utc)
    return int(dt.timestamp())


@contextlib.contextmanager
def _csv_reader(path):
    """A csv.reader over `path`; a csv.Error leaves it as a ValueError naming the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def ingest_csv(path, schema: dict[str, str] | None = None):
    """Parse a CSV of interactions.

    Returns (interactions, row_errors). Malformed rows become RowError
    records, numbered by the file line the row starts on, instead of being
    dropped silently. `schema` maps the logical column names (user, item,
    timestamp, action, rating, review, helpful) to the actual header names.
    As with csv.DictReader, blank lines are skipped, a short row reads ""
    in its missing columns, extra fields are ignored, and a header name
    that repeats names its last column. A cell the csv module cannot read
    (one past its field size limit, say) raises ValueError with the line,
    and so does a `schema` key that names no logical column.
    """
    mapping = {c: c for c in CSV_COLUMNS}
    if schema:
        unknown = sorted(set(schema) - set(mapping))
        if unknown:
            raise ValueError(
                f"unknown logical column {', '.join(map(repr, unknown))}; "
                f"expected one of {', '.join(CSV_COLUMNS)}"
            )
        mapping.update(schema)
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header")
        position = {name: j for j, name in enumerate(header)}  # the last one wins
        for logical in ("user", "item", "timestamp"):
            if mapping[logical] not in position:
                raise ValueError(
                    f"{path}: required column {mapping[logical]!r} not in header"
                )
        width = len(header)
        # a column missing from the header reads the "" appended to every row
        columns = [position.get(mapping[c], width) for c in CSV_COLUMNS]
        rows: list[Interaction] = []
        errors: list[RowError] = []
        line_no = reader.line_num + 1  # where the next record starts
        for row in reader:
            start, line_no = line_no, reader.line_num + 1
            if not row:
                continue
            if len(row) != width:
                row = (row + [""] * width)[:width]
            row.append("")
            user, item, ts_text, action, rating_text, review, helpful_text = [
                row[j].strip() for j in columns
            ]
            try:
                if not user:
                    raise ValueError("empty user id")
                if not item:
                    raise ValueError("empty item id")
                ts = _parse_timestamp(ts_text)
                if ts < 0:
                    raise ValueError("negative timestamp")
                action = action or "view"
                if action not in ACTIONS:
                    raise ValueError(f"unknown action {action!r}")
                rating = float(rating_text) if rating_text else None
                if (action == "rate") != (rating is not None):
                    raise ValueError("rating must be present exactly when action is rate")
                if rating is not None and not (1.0 <= rating <= 5.0):
                    raise ValueError(f"rating {rating} outside [1, 5]")
                helpful = int(helpful_text) if helpful_text else None
                if helpful is not None and helpful < 0:
                    raise ValueError("negative helpfulness votes")
                rows.append(
                    Interaction(user, item, ts, action, rating, review or None, helpful)
                )
            except ValueError as exc:
                errors.append(RowError(line=start, message=str(exc)))
    return rows, errors


def write_csv(path, interactions) -> None:
    """Serialize interactions in the canonical column order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for e in interactions:
            w.writerow(
                [
                    e.user,
                    e.item,
                    e.timestamp,
                    e.action,
                    "" if e.rating is None else e.rating,
                    e.review or "",
                    "" if e.helpful is None else e.helpful,
                ]
            )


def sessionize(events) -> list[Session]:
    """One session per (user, calendar day), items in timestamp order, duplicates kept."""
    ordered = sorted(events, key=operator.attrgetter("user", "timestamp"))
    sessions: list[Session] = []
    counters: dict[str, int] = collections.defaultdict(int)
    for e in ordered:
        day = e.timestamp // SECONDS_PER_DAY
        if sessions and sessions[-1].user == e.user and sessions[-1].day == day:
            sessions[-1].items.append(e.item)
        else:
            sessions.append(Session(user=e.user, t=counters[e.user], day=day, items=[e.item]))
            counters[e.user] += 1
    return sessions


def ordered_dedup(items) -> list:
    seen = set()
    out = []
    for it in items:
        if it not in seen:
            seen.add(it)
            out.append(it)
    return out


def split(sessions: list[Session], policy: str, rng, test_fraction: float = 0.2) -> Split:
    """Carve test sessions out and hold one target item out of each.

    random-80-20 samples test sessions uniformly among the eligible ones
    (length >= 2, user has >= 2 sessions); last-week takes the final seven
    calendar days. Users whose only appearance is a single one-item session
    are excluded from the test side with a warning.
    """
    warnings: list[str] = []
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

    train: list[Session] = []
    test: list[TestInstance] = []
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
            TestInstance(user=s.user, day=s.day, t=s.t, context=context, target=s.items[hold])
        )
    return Split(train=train, test=test, policy=policy, warnings=warnings)


class Histories:
    """Each user's sessions in (day, t) order, and what they say in index space.

    `long_term(user, day)` is the long-term list before a day, `seen(user)`
    the items the user touched and `unseen(user)` the rest of the catalog,
    the pool every negative and every AUC comparison is drawn from. Answers
    are cached, so equal questions share one object. A user with no session
    has an empty history.
    """

    _NO_WALK = ([], [0], [])

    def __init__(self, sessions, dataset):
        self.by_user: dict[str, list[Session]] = {}
        for s in sorted(sessions, key=operator.attrgetter("day", "t")):
            self.by_user.setdefault(s.user, []).append(s)
        self.dataset = dataset
        # one walk per user: session days, and items first-seen first, of which
        # the first counts[j] come from the first j sessions; so a long-term
        # list is a prefix
        self._walks: dict[str, tuple] = {}
        for user, user_sessions in self.by_user.items():
            order, counts = {}, [0]
            for s in user_sessions:
                order.update(dict.fromkeys(s.items))
                counts.append(len(order))
            self._walks[user] = ([s.day for s in user_sessions], counts, list(order))
        self._long: dict[tuple, list[int]] = {}
        self._seen: dict[str, np.ndarray] = {}
        self._unseen: dict[str, np.ndarray] = {}

    def long_term(self, user, day) -> list[int]:
        """Indices of the user's items from sessions before `day`, first-seen first."""
        if (user, day) not in self._long:
            days, counts, order = self._walks.get(user, self._NO_WALK)
            head = order[:counts[bisect.bisect_left(days, day)]]
            self._long[user, day] = [self.dataset.item_index[it] for it in head]
        return self._long[user, day]

    def seen(self, user) -> np.ndarray:
        """Indices of every item the user touched, ascending."""
        if user not in self._seen:
            order = self._walks.get(user, self._NO_WALK)[2]
            touched = sorted(self.dataset.item_index[it] for it in order)
            self._seen[user] = np.array(touched, dtype=np.int64)
        return self._seen[user]

    def unseen(self, user) -> np.ndarray:
        """Indices of every catalog item the user did not touch, ascending."""
        if user not in self._unseen:
            outside = np.ones(self.dataset.n_items, dtype=bool)
            outside[self.seen(user)] = False
            self._unseen[user] = np.flatnonzero(outside)
        return self._unseen[user]


def prepared_instances(split: Split, dataset) -> list:
    """Index-space training instances for the ranking trainers.

    One tuple (user_idx, long_idx, context_idx, target_idx, negative_pool)
    per position of each train session, in order: that item held out, the
    rest as context. Long lists and pools come from the train `Histories`.
    """
    hist = Histories(split.train, dataset)
    prepared = []
    for s in split.train:
        u = dataset.user_index[s.user]
        long_items, pool = hist.long_term(s.user, s.day), hist.unseen(s.user)
        items = [dataset.item_index[it] for it in s.items]
        for p, target in enumerate(items):
            prepared.append((u, long_items, items[:p] + items[p + 1:], target, pool))
    return prepared


# ---------------------------------------------------------------------------
# Synthetic corpora


def item_token(j: int) -> str:
    return f"i{j:03d}"


def user_token(u: int) -> str:
    return f"u{u:03d}"


def make_successor_map(n_items: int, rng) -> dict[str, str]:
    """A single n-cycle over the item vocabulary."""
    tokens = [item_token(j) for j in range(n_items)]
    order = rng.permutation(n_items)
    return {tokens[order[x]]: tokens[order[(x + 1) % n_items]] for x in range(n_items)}


def synth_sequential(
    n_items: int,
    n_users: int,
    n_sessions_per_user: int,
    transition: dict[str, str],
    noise_rate: float,
    rng,
    session_len: int = 5,
) -> list[Session]:
    """Sessions that walk a planted successor map with per-step noise."""
    tokens = [item_token(j) for j in range(n_items)]
    sessions = []
    for u in range(n_users):
        for t in range(n_sessions_per_user):
            items = [tokens[int(rng.integers(n_items))]]
            for _ in range(session_len - 1):
                if rng.random() < noise_rate:
                    items.append(tokens[int(rng.integers(n_items))])
                else:
                    items.append(transition[items[-1]])
            sessions.append(Session(user=user_token(u), t=t, day=t, items=items))
    return sessions


def sessions_to_interactions(sessions: list[Session], action: str = "view"):
    out = []
    for s in sessions:
        for pos, item in enumerate(s.items):
            out.append(
                Interaction(
                    user=s.user,
                    item=item,
                    timestamp=s.day * SECONDS_PER_DAY + pos,
                    action=action,
                )
            )
    return out


TRAITS = ["O", "C", "E", "A", "N"]

# One dedicated lexicon category per trait for planted-cluster corpora. The
# shipped default weight table is deliberately NOT used here: it links
# overlapping category sets to several traits, which cannot plant a strict
# argmax winner for every trait.
PLANTED_TRAIT_CATEGORIES = {
    "O": "insight",
    "C": "achievement",
    "E": "social_processes",
    "A": "positive_emotions",
    "N": "sadness",
}

BACKGROUND_CATEGORIES = ["prepositions", "humans", "past_tense_verbs"]


@dataclass(frozen=True)
class ClusterInfo:
    cluster: int
    trait: str


def planted_cluster_weights() -> dict[str, list[tuple[str, float]]]:
    """Weight table that makes each planted trait the strict argmax."""
    return {t: [(cat, 1.0)] for t, cat in PLANTED_TRAIT_CATEGORIES.items()}


def synth_personality_clusters(
    n_clusters: int,
    users_per_cluster: int,
    items_per_cluster: int,
    lexicon: dict[str, list[str]] | None = None,
    rng=None,
    rating_density: float = 0.6,
):
    """Rated interactions with review text, planted in personality clusters.

    Users of one cluster rate only that cluster's items (zero co-rated items
    across clusters) and write reviews dominated by one lexicon category, so
    trait scoring separates the clusters. Returns (interactions, truth) with
    truth mapping user token -> ClusterInfo.
    """
    if n_clusters < 2:
        raise ValueError("need at least 2 clusters")
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    if lexicon is None:
        from .personality import DEMO_LEXICON

        lexicon = DEMO_LEXICON

    def words_of(category: str) -> list[str]:
        return [w.rstrip("*") for w in lexicon[category]]

    interactions: list[Interaction] = []
    truth: dict[str, ClusterInfo] = {}
    for c in range(n_clusters):
        trait = TRAITS[c % len(TRAITS)]
        own_words = words_of(PLANTED_TRAIT_CATEGORIES[trait])
        other_words = [
            w
            for t, cat in PLANTED_TRAIT_CATEGORIES.items()
            if t != trait
            for w in words_of(cat)
        ]
        background = [w for cat in BACKGROUND_CATEGORIES for w in words_of(cat)]
        item_ids = [f"c{c}_i{j:03d}" for j in range(items_per_cluster)]
        base_quality = rng.uniform(1.2, 4.8, size=items_per_cluster)
        for k in range(users_per_cluster):
            user = f"c{c}_u{k:03d}"
            truth[user] = ClusterInfo(cluster=c, trait=trait)
            offset = rng.normal(0.0, 0.2)
            n_rated = max(1, round(rating_density * items_per_cluster))
            rated = rng.choice(items_per_cluster, size=n_rated, replace=False)
            day = c * users_per_cluster + k
            for pos, j in enumerate(sorted(int(x) for x in rated)):
                rating = float(
                    np.clip(base_quality[j] + offset + rng.normal(0.0, 0.25), 1.0, 5.0)
                )
                review_words = []
                for _ in range(8):
                    r = rng.random()
                    if r < 0.6:
                        pool = own_words
                    elif r < 0.7:
                        pool = other_words
                    else:
                        pool = background
                    review_words.append(pool[int(rng.integers(len(pool)))])
                interactions.append(
                    Interaction(
                        user=user,
                        item=item_ids[j],
                        timestamp=day * SECONDS_PER_DAY + pos,
                        action="rate",
                        rating=rating,
                        review=" ".join(review_words),
                        helpful=int(rng.integers(0, 6)),
                    )
                )
    return interactions, truth


def _items_by_user(interactions):
    by_user: dict[str, set] = collections.defaultdict(set)
    for e in interactions:
        by_user[e.user].add(e.item)
    return by_user


def dsw_degree(interactions) -> float:
    """Fraction of users sharing no interacted item with any other user."""
    by_user = _items_by_user(interactions)
    holders: dict[str, int] = collections.Counter()
    for items in by_user.values():
        for it in items:
            holders[it] += 1
    if not by_user:
        return 0.0
    isolated = sum(
        1 for items in by_user.values() if all(holders[it] == 1 for it in items)
    )
    return isolated / len(by_user)


def cross_cluster_disjointness(interactions, labels: dict[str, int]) -> float:
    """Fraction of users sharing no item with any user of another cluster."""
    by_user = _items_by_user(interactions)
    item_clusters: dict[str, set] = collections.defaultdict(set)
    for user, items in by_user.items():
        for it in items:
            item_clusters[it].add(labels[user])
    if not by_user:
        return 0.0
    disjoint = sum(
        1
        for user, items in by_user.items()
        if all(item_clusters[it] == {labels[user]} for it in items)
    )
    return disjoint / len(by_user)


# ---------------------------------------------------------------------------
# Explicit-rating view


_USER = operator.attrgetter("user")
_ITEM = operator.attrgetter("item")


def _first_appearance(tokens) -> tuple[list, dict]:
    """The distinct tokens in order of first appearance, and their indices."""
    order = list(dict.fromkeys(tokens))
    return order, dict(zip(order, range(len(order))))


@dataclass
class RatingMatrix:
    """Observed (user, item, rating) triplets with dense index maps."""

    users: list[str]
    items: list[str]
    user_index: dict[str, int]
    item_index: dict[str, int]
    triplets: list[tuple[int, int, float]]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @classmethod
    def from_interactions(cls, interactions) -> "RatingMatrix":
        rated = [e for e in interactions if e.action == "rate" and e.rating is not None]
        users, uidx = _first_appearance(map(_USER, rated))
        items, iidx = _first_appearance(map(_ITEM, rated))
        n = len(rated)
        u = np.fromiter(map(uidx.__getitem__, map(_USER, rated)), np.int64, n)
        i = np.fromiter(map(iidx.__getitem__, map(_ITEM, rated)), np.int64, n)
        stamps = list(map(operator.attrgetter("timestamp"), rated))
        try:
            t = np.array(stamps, dtype=np.int64)
        except OverflowError:  # seconds past int64 still order as Python ints
            t = np.array(stamps, dtype=object)
        # the latest rating of each (user, item) wins, the later row on a tie:
        # lexsort is stable, so it is the last row of its pair's run
        pair = u * len(items) + i
        order = np.lexsort((t, pair))
        pair = pair[order]
        last = order[np.append(pair[1:] != pair[:-1], True)] if n else order
        ratings = list(map(operator.attrgetter("rating"), rated))
        triplets = list(zip(
            u[last].tolist(), i[last].tolist(), map(ratings.__getitem__, last.tolist())
        ))
        return cls(users, items, uidx, iidx, triplets)


def split_ratings(matrix: RatingMatrix, test_fraction: float, rng):
    """Per-user random holdout of rating triplets; single-rating users stay in train."""
    by_user: dict[int, list[tuple[int, int, float]]] = collections.defaultdict(list)
    for trip in matrix.triplets:
        by_user[trip[0]].append(trip)
    train: list[tuple[int, int, float]] = []
    test: list[tuple[int, int, float]] = []
    for u in sorted(by_user):
        trips = by_user[u]
        if len(trips) < 2:
            train.extend(trips)
            continue
        n_test = min(len(trips) - 1, max(1, round(test_fraction * len(trips))))
        chosen = set(int(i) for i in rng.choice(len(trips), size=n_test, replace=False))
        for pos, trip in enumerate(trips):
            (test if pos in chosen else train).append(trip)
    return train, test


# ---------------------------------------------------------------------------
# Indexed dataset used by trainers and the evaluator


@dataclass
class Dataset:
    """Interned token maps of an interaction log, and its sessions."""

    users: list[str]
    items: list[str]
    user_index: dict[str, int]
    item_index: dict[str, int]
    sessions: list[Session]

    @classmethod
    def from_interactions(cls, interactions) -> "Dataset":
        users, uidx = _first_appearance(map(_USER, interactions))
        items, iidx = _first_appearance(map(_ITEM, interactions))
        return cls(
            users=users,
            items=items,
            user_index=uidx,
            item_index=iidx,
            sessions=sessionize(interactions),
        )

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)
