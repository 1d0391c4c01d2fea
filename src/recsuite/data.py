"""Interaction logs, sessions, splits, negative sampling, synthetic corpora.

An interaction log is held as a `Corpus`, one array per field, with user
and item tokens interned in order of first appearance. `ingest_csv` reads
a file in one `csv.reader` pass, checks each column as a whole and reports
each faulty row, with its first fault, at the file line the row starts on.
A session is everything one user did in one calendar day, ordered by
timestamp. Long-term context for session t is the deduplicated union of the
user's earlier-day sessions; short-term context is session t itself, order
kept. Sessions are index arrays (`Sessions`; `HeldOut` for the test side
of a `split`), and iterating them gives token `Session` or `TestInstance`
objects. `Histories` answers every per-user question of the train sessions
(long-term lists, touched items, the d-th untouched item, the training
instances) for the trainers and the evaluator. Explicit ratings are index
arrays too (`Ratings`; `RatingMatrix` holds a corpus's latest rating of
each pair), and `split_ratings` holds out each user's share in one draw.
A parse can be kept in a sidecar file (`write_sidecar`) and read back
(`read_sidecar`) under a key that names the file's content, the schema and
this module's source, so a file content is parsed once while its sidecar
lasts. The sidecar is one `container` file, its columns read back as
aligned views of one buffer.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import functools
import hashlib
import itertools
import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import container

SECONDS_PER_DAY = 86_400

# a corpus stores each row's action as its position here
ACTIONS = ("view", "click", "cart", "wishlist", "purchase", "checkin", "rate")
RATE = ACTIONS.index("rate")
_ACTION_CODES = {**{name: code for code, name in enumerate(ACTIONS)}, "": ACTIONS.index("view")}

CSV_COLUMNS = ["user", "item", "timestamp", "action", "rating", "review", "helpful"]

INT64_MAX = 2**63 - 1
_INT64 = range(-INT64_MAX - 1, INT64_MAX + 1)
_BLOCK_ROWS = 4096  # rows the parser holds as lists at once
_EPOCH = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
_SECOND = datetime.timedelta(seconds=1)


def _index(vocab: list) -> dict:
    """Each token's position in `vocab`."""
    return dict(zip(vocab, range(len(vocab))))


def _intern(tokens) -> tuple[list, np.ndarray]:
    """The distinct tokens in order of first appearance, and each token's code."""
    vocab = list(dict.fromkeys(tokens))
    codes = np.fromiter(map(_index(vocab).__getitem__, tokens), np.int64, len(tokens))
    return vocab, codes


class _TokenMaps:
    """`user_index` and `item_index`, each token's position in `users` and
    `items`, built when first read."""

    @functools.cached_property
    def user_index(self) -> dict[str, int]:
        return _index(self.users)

    @functools.cached_property
    def item_index(self) -> dict[str, int]:
        return _index(self.items)


def first_appearance(codes: np.ndarray, n: int) -> np.ndarray:
    """The distinct values of `codes`, each in range(n), first appearance first. One linear
    pass (`np.minimum.at`) finds each one's earliest row; only they are sorted, by that row."""
    first = np.full(n, len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    return codes[np.sort(first[first < len(codes)])]


def _recode(codes: np.ndarray, vocab: list) -> tuple[list, np.ndarray]:
    """The tokens `codes` use, in order of first appearance, and the codes renumbered."""
    kept = first_appearance(codes, len(vocab))
    remap = np.zeros(len(vocab), np.int64)
    remap[kept] = np.arange(len(kept))
    return [vocab[c] for c in kept.tolist()], remap[codes]


@dataclass(eq=False)
class Corpus:
    """An interaction log as columns, one entry per row.

    `user` and `item` are int64 codes into the `users` and `items`
    vocabularies. `ingest_csv` and the generators list each token of the rows
    once, in order of first appearance; `take` keeps the vocabularies of the
    corpus it selects from. `timestamp` holds int64 seconds, `action`
    positions in `ACTIONS`, and `rating`, `helpful` and `review` hold NaN, -1
    and "" where a row has none. The reviews may be given as a function of no
    arguments that returns their list; it is called when `review` is first
    read, so a sidecar read or a `take` makes no review string that no one
    reads.
    """

    users: list[str]
    items: list[str]
    user: np.ndarray
    item: np.ndarray
    timestamp: np.ndarray
    action: np.ndarray
    rating: np.ndarray
    helpful: np.ndarray
    _review: list[str] | Callable[[], list[str]] = field(repr=False)

    @property
    def review(self) -> list[str]:
        if callable(self._review):
            self._review = self._review()
        return self._review

    def __len__(self) -> int:
        return len(self.user)

    def take(self, mask: np.ndarray) -> "Corpus":
        """The rows `mask` selects, in order, with this corpus's vocabularies."""
        mask = np.array(mask, dtype=bool)
        return Corpus(
            self.users, self.items, self.user[mask], self.item[mask],
            self.timestamp[mask], self.action[mask], self.rating[mask],
            self.helpful[mask], lambda: list(itertools.compress(self.review, mask)),
        )


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


@dataclass(eq=False)
class Sessions:
    """Sessions as index arrays: session i is user `user[i]`'s session number
    `t[i]` on day `day[i]`, with items `item[offsets[i]:offsets[i + 1]]`, all
    codes into the `users` and `items` vocabularies. Iterating gives token
    `Session` objects, in this order."""

    users: list[str]
    items: list[str]
    user: np.ndarray
    day: np.ndarray
    t: np.ndarray
    offsets: np.ndarray
    item: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self):
        tokens = list(map(self.items.__getitem__, self.item.tolist()))
        at = self.offsets.tolist()
        for u, t, day, a, b in zip(self.user.tolist(), self.t.tolist(), self.day.tolist(),
                                   at, at[1:]):
            yield Session(self.users[u], t, day, tokens[a:b])

    def take(self, index: np.ndarray) -> "Sessions":
        """The sessions at positions `index`, in that order."""
        lengths = np.diff(self.offsets)[index]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        at = np.repeat(self.offsets[index] - offsets[:-1], lengths) + np.arange(offsets[-1])
        return Sessions(self.users, self.items, self.user[index], self.day[index],
                        self.t[index], offsets, self.item[at])


@dataclass(eq=False)
class HeldOut(Sessions):
    """Test sessions, each holding out its item at position `hold[i]`; each
    iterates as a token `TestInstance`, the rest of the session its context."""

    hold: np.ndarray

    def __iter__(self):
        for s, h in zip(super().__iter__(), self.hold.tolist()):
            yield TestInstance(s.user, s.day, s.t, s.items[:h] + s.items[h + 1:], s.items[h])


@dataclass
class Split:
    train: Sessions
    test: HeldOut
    policy: str
    warnings: list[str] = field(default_factory=list)


def _parse_timestamp(text: str) -> int:
    """Whole seconds since the epoch of an integer or an ISO date or time.

    A fractional time is floored, so any time before the epoch is negative.
    Naive times are UTC. A value an int64 cannot hold is out of range.
    """
    s = text.strip()
    try:
        ts = int(s)
    except ValueError:
        try:
            dt = datetime.datetime.fromisoformat(s)
        except ValueError:
            raise ValueError(f"unparseable timestamp {text!r}")
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=datetime.timezone.utc)
        ts = (dt - _EPOCH) // _SECOND
    if ts not in _INT64:
        raise ValueError("timestamp out of range")
    return ts


def _parse_votes(text: str) -> int:
    votes = int(text)
    if votes not in _INT64:
        raise ValueError("helpful votes out of range")
    return votes


def _action_cell(text: str) -> int:
    name = text or "view"
    if name not in _ACTION_CODES:
        raise ValueError(f"unknown action {name!r}")
    return _ACTION_CODES[name]


@contextlib.contextmanager
def _csv_reader(path):
    """A csv.reader over `path`; a csv.Error leaves it as a ValueError naming the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _start_lines(rows, first: int) -> np.ndarray:
    """The file line each record starts on, the first on line `first`.

    A record spans one line more than the line breaks inside its quoted
    cells, each counted as the file iterator splits lines: \\r\\n, \\n or \\r.
    """
    spans = [
        1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
        for row in rows
    ]
    return first + np.concatenate(([0], np.cumsum(spans[:-1], dtype=np.int64)))


def _convert(texts, bulk, cell, dtype, faults: dict, none=None):
    """(values, present) of a column of cell texts.

    `bulk` converts the cells all at once. Only if that fails anywhere is
    the column stripped and converted again by `cell`, one cell at a time,
    and each cell it rejects becomes its row's fault unless the row has one.
    With `none` given, an empty cell is absent and holds `none`.
    """
    n = len(texts)
    empty = texts.count("") if none is not None else 0
    present = np.fromiter(map(bool, texts), bool, n) if empty else np.ones(n, bool)
    values = np.full(n, 0 if none is None else none, dtype)
    try:
        if empty < n:
            values[present] = np.fromiter(
                map(bulk, itertools.compress(texts, present) if empty else texts),
                dtype, n - empty,
            )
    except (ValueError, KeyError, OverflowError):
        texts = [t.strip() for t in texts]
        if none is not None:
            present = np.fromiter(map(bool, texts), bool, n)
        for k in np.flatnonzero(present).tolist():
            try:
                values[k] = cell(texts[k])
            except ValueError as exc:
                faults.setdefault(k, str(exc))
    return values, present


def _flag(faults: dict, rows: np.ndarray, message) -> None:
    """Give each of `rows` without a fault yet `message(row)`, or `message`."""
    for k in rows.tolist():
        faults.setdefault(k, message(k) if callable(message) else message)


def _checked_block(cells: dict, index: dict) -> tuple[dict, dict[int, str]]:
    """A block's columns as arrays, and the fault of each row that fails a check.

    `cells` maps each logical column to the block's cells, unstripped. User
    and item cells become codes of their raw tokens in `index[logical]`,
    which numbers each token it has not seen. The checks run a column at a
    time in the order a row reads: user, item, timestamp and its sign,
    action, rating, the rating's pairing with `rate` and its range, helpful
    votes and their sign. A row's fault is the first check it fails; rows
    are numbered from 0 within the block.
    """
    faults: dict[int, str] = {}
    arrays = {}
    for logical in ("user", "item"):
        codes, block = index[logical], cells[logical]
        distinct = dict.fromkeys(block)
        for token in distinct:
            codes.setdefault(token, len(codes))
        arrays[logical] = np.fromiter(map(codes.__getitem__, block), np.int64, len(block))
        blank = [codes[token] for token in distinct if not token.strip()]
        if blank:
            _flag(faults, np.flatnonzero(np.isin(arrays[logical], blank)),
                  f"empty {logical} id")
    stamp, _ = _convert(cells["timestamp"], int, _parse_timestamp, np.int64, faults)
    _flag(faults, np.flatnonzero(stamp < 0), "negative timestamp")
    action, _ = _convert(cells["action"], _ACTION_CODES.__getitem__, _action_cell,
                         np.int8, faults)
    rating, rated = _convert(cells["rating"], float, float, np.float64, faults, none=np.nan)
    _flag(faults, np.flatnonzero((action == RATE) != rated),
          "rating must be present exactly when action is rate")
    _flag(faults, np.flatnonzero(rated & ~((rating >= 1.0) & (rating <= 5.0))),
          lambda k: f"rating {float(rating[k])} outside [1, 5]")
    helpful, voted = _convert(cells["helpful"], int, _parse_votes, np.int64, faults, none=-1)
    _flag(faults, np.flatnonzero(voted & (helpful < 0)), "negative helpfulness votes")
    arrays.update(timestamp=stamp, action=action, rating=rating, helpful=helpful,
                  review=list(map(str.strip, cells["review"])))
    return arrays, faults


def ingest_csv(path, schema: dict[str, str] | None = None):
    """Parse a CSV of interactions.

    Returns (corpus, row_errors). Malformed rows become RowError records,
    numbered by the file line the row starts on and giving the row's first
    fault, instead of being dropped silently. `schema` maps the logical
    column names (user, item, timestamp, action, rating, review, helpful)
    to the actual header names. As with csv.DictReader, blank lines are
    skipped, a short row reads "" in its missing columns, extra fields are
    ignored, and a header name that repeats names its last column. A cell
    the csv module cannot read (one past its field size limit, say) raises
    ValueError with the line, and so does a `schema` key that names no
    logical column.

    The rows are read in blocks. Each block is transposed and checked a
    column at a time, so only one block's cells exist as strings at once.
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
    index: dict[str, dict[str, int]] = {"user": {}, "item": {}}
    # an empty block first gives every column its dtype
    blocks = [_checked_block(dict.fromkeys(CSV_COLUMNS, ()), index)[0]]
    line_blocks = [np.empty(0, np.int64)]
    faults: dict[int, str] = {}
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
        taken = [position.get(mapping[c]) for c in CSV_COLUMNS]
        n = 0
        start = reader.line_num + 1  # where the next record starts
        while block := list(itertools.islice(reader, _BLOCK_ROWS)):
            lines = (np.arange(start, start + len(block))
                     if reader.line_num - start + 1 == len(block)
                     else _start_lines(block, start))
            start = reader.line_num + 1
            lengths = set(map(len, block))
            if 0 in lengths:  # blank lines
                nonblank = np.fromiter(map(bool, block), bool, len(block))
                block, lines = list(itertools.compress(block, nonblank)), lines[nonblank]
            if lengths - {0, width}:
                block = [r if len(r) == width else (r + [""] * width)[:width] for r in block]
            columns = list(zip(*block)) or [()] * width
            missing = ("",) * len(block)
            arrays, block_faults = _checked_block(
                {c: missing if j is None else columns[j] for c, j in zip(CSV_COLUMNS, taken)},
                index,
            )
            faults.update((n + k, message) for k, message in block_faults.items())
            n += len(block)
            blocks.append(arrays)
            line_blocks.append(lines)

    lines = np.concatenate(line_blocks)
    users, user_remap = _intern([token.strip() for token in index["user"]])
    items, item_remap = _intern([token.strip() for token in index["item"]])
    corpus = Corpus(
        users, items,
        user_remap[np.concatenate([b["user"] for b in blocks])],
        item_remap[np.concatenate([b["item"] for b in blocks])],
        *(np.concatenate([b[f] for b in blocks])
          for f in ("timestamp", "action", "rating", "helpful")),
        [text for b in blocks for text in b["review"]],
    )
    if faults:
        keep = np.ones(n, bool)
        keep[list(faults)] = False
        corpus = corpus.take(keep)
        corpus.users, corpus.user = _recode(corpus.user, corpus.users)
        corpus.items, corpus.item = _recode(corpus.item, corpus.items)
    errors = [RowError(line=int(lines[k]), message=m) for k, m in sorted(faults.items())]
    return corpus, errors


def write_csv(path, corpus: Corpus) -> None:
    """Write a corpus in the canonical column order, one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows(zip(
            map(corpus.users.__getitem__, corpus.user.tolist()),
            map(corpus.items.__getitem__, corpus.item.tolist()),
            corpus.timestamp.tolist(),
            map(ACTIONS.__getitem__, corpus.action.tolist()),
            np.where(np.isnan(corpus.rating), None, corpus.rating).tolist(),
            corpus.review,
            np.where(corpus.helpful < 0, None, corpus.helpful).tolist(),
        ))


# ---------------------------------------------------------------------------
# Parsed-corpus sidecar

SIDECAR_SUFFIX = ".parsed"

# the sidecar's members and their dtypes, in file order; every member is 1-d
_SIDECAR = {
    "key": np.uint8,  # UTF-8 of the key it was written under
    "user": np.int64, "item": np.int64, "timestamp": np.int64, "action": np.int8,
    "rating": np.float64, "helpful": np.int64,
    "error_line": np.int64,
    "vocab_sizes": np.int64,  # (users, items)
    # every string, one UTF-8 blob: users, items, reviews, error messages;
    # string k is the blob's text from character text_at[k] to text_at[k + 1].
    # The text comes last, so that a read holds its bytes apart from the columns.
    "text_at": np.int64, "text": np.uint8,
}
_COLUMNS = ("user", "item", "timestamp", "action", "rating", "helpful")


@functools.cache
def _source_digest() -> str:
    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sidecar_key(digest: str, schema: dict[str, str] | None) -> bytes:
    """The key of the parse of a file whose sha256 is `digest` under `schema`.

    It also names the sha256 of this module's source, so an edit to the
    parser retires every sidecar written before it.
    """
    return json.dumps({"csv": digest, "schema": schema or {}, "source": _source_digest()},
                      sort_keys=True).encode("utf-8")


def write_sidecar(path, key: bytes, corpus: Corpus, errors: list[RowError]) -> None:
    """Write the parse (corpus, errors) under `key` to `path`, atomically.

    The file is a `container` file of the members in `_SIDECAR` order. It
    goes to a temporary file beside `path`, then replaces it, so a reader
    sees the old file or the whole new one. An OSError removes the
    temporary file and propagates.
    """
    texts = [*corpus.users, *corpus.items, *corpus.review, *(e.message for e in errors)]
    text_at = np.zeros(len(texts) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts)), out=text_at[1:])
    members = {
        "key": np.frombuffer(key, np.uint8),
        **{c: getattr(corpus, c) for c in _COLUMNS},
        "error_line": np.array([e.line for e in errors], np.int64),
        "vocab_sizes": np.array([len(corpus.users), len(corpus.items)], np.int64),
        "text_at": text_at,
        "text": np.frombuffer("".join(texts).encode("utf-8"), np.uint8),
    }
    container.write(path, {name: np.asarray(members[name], dtype)
                           for name, dtype in _SIDECAR.items()})


def read_sidecar(path, key: bytes) -> tuple[Corpus, list[RowError]] | None:
    """The parse the sidecar at `path` holds under `key`, or None.

    None when the file is missing or not a whole `container` file (no magic
    line, lengths that disagree with its size, a failed CRC-32), its
    members are not `_SIDECAR`'s in order, each 1-d and of its dtype, it
    was written under another key, or a member fails a check: equal column
    lengths, codes within their vocabularies and `ACTIONS`, UTF-8 text, and
    string offsets that ascend from 0 to the end of the text. The columns
    are views of the buffer the file was read into; the text is read apart
    from them, so its bytes go once it is decoded.
    """
    try:
        with open(path, "rb") as fh:
            m, _ = container.read(fh, last_apart=True)
    except (OSError, ValueError):
        return None
    if list(m) != list(_SIDECAR) or any(
            m[name].dtype != dtype or m[name].ndim != 1 for name, dtype in _SIDECAR.items()):
        return None
    n, n_errors = len(m["user"]), len(m["error_line"])
    sizes, text_at = m["vocab_sizes"], m["text_at"]
    if not (
        m["key"].tobytes() == key
        and all(len(m[c]) == n for c in _COLUMNS)
        and len(sizes) == 2 and (sizes >= 0).all()
        and len(text_at) == sizes.sum() + n + n_errors + 1
        and text_at[0] == 0 and (np.diff(text_at) >= 0).all()
        and ((0 <= m["user"]) & (m["user"] < sizes[0])).all()
        and ((0 <= m["item"]) & (m["item"] < sizes[1])).all()
        and ((0 <= m["action"]) & (m["action"] < len(ACTIONS))).all()
    ):
        return None
    try:
        text = str(m.pop("text"), "utf-8")
    except UnicodeDecodeError:
        return None
    if text_at[-1] != len(text):
        return None

    def texts(first, last):
        at = text_at[first:last + 1].tolist()
        return [text[a:b] for a, b in zip(at, at[1:])]

    n_users, n_items = sizes.tolist()
    r = n_users + n_items  # where the reviews start
    corpus = Corpus(texts(0, n_users), texts(n_users, r), *(m[c] for c in _COLUMNS),
                    lambda: texts(r, r + n))
    return corpus, list(map(RowError, m["error_line"].tolist(), texts(r + n, r + n + n_errors)))


def sessionize(corpus: Corpus) -> Sessions:
    """One session per (user, calendar day), items in timestamp order, duplicates kept.

    Sessions come user by user in token order; one stable sort on (user,
    timestamp) orders the rows, and a session ends wherever the user or the
    day changes. The sessions keep the corpus's vocabularies.
    """
    n_users = len(corpus.users)
    rank = np.empty(n_users, np.int64)
    rank[sorted(range(n_users), key=corpus.users.__getitem__)] = np.arange(n_users)
    order = np.lexsort((corpus.timestamp, rank[corpus.user]))
    user = corpus.user[order]
    day = corpus.timestamp[order] // SECONDS_PER_DAY
    new = np.ones(order.size, bool)
    new[1:] = (user[1:] != user[:-1]) | (day[1:] != day[:-1])
    starts = np.flatnonzero(new)
    owner, at = user[starts], np.arange(starts.size)
    first = np.ones(starts.size, bool)  # a user's first session; t counts from it
    first[1:] = owner[1:] != owner[:-1]
    return Sessions(corpus.users, corpus.items, owner, day[starts],
                    at - np.maximum.accumulate(np.where(first, at, 0)),
                    np.append(starts, order.size), corpus.item[order])


def ordered_dedup(items) -> list:
    seen = set()
    out = []
    for it in items:
        if it not in seen:
            seen.add(it)
            out.append(it)
    return out


def split(sessions: Sessions, policy: str, rng, test_fraction: float = 0.2) -> Split:
    """Carve test sessions out and hold one target item out of each.

    random-80-20 samples test sessions uniformly among the eligible ones
    (length >= 2, user has >= 2 sessions); last-week takes the final seven
    calendar days. Users whose only appearance is a single one-item session
    are excluded from the test side with a warning, and so is a one-item
    test session. One `rng.integers` call draws every held-out position.
    """
    lengths = np.diff(sessions.offsets)
    if policy == "random-80-20":
        per_user = np.bincount(sessions.user, minlength=len(sessions.users))[sessions.user]
        eligible = np.flatnonzero((lengths >= 2) & (per_user >= 2))
        warnings = [f"user {sessions.users[u]}: single one-item session, excluded from test"
                    for u in sessions.user[(per_user == 1) & (lengths == 1)].tolist()]
        n_test = min(eligible.size, max(1, round(test_fraction * len(sessions))))
        if not eligible.size:
            raise ValueError("no session is eligible for the test side")
        test = np.zeros(len(sessions), bool)
        test[eligible[rng.choice(eligible.size, size=n_test, replace=False)]] = True
    elif policy == "last-week":
        if not len(sessions):
            raise ValueError("cannot split an empty session list")
        test = sessions.day > sessions.day.max() - 7
        if test.all():
            raise ValueError("last-week split leaves the training side empty")
        warnings = []
    else:
        raise ValueError(f"unknown split policy {policy!r}")

    # only last-week can pick a one-item session; it is too recent for train
    short = test & (lengths < 2)
    warnings += [f"user {sessions.users[u]}: test session on day {d} has a single item, "
                 "cannot hold out a target; excluded"
                 for u, d in zip(sessions.user[short].tolist(), sessions.day[short].tolist())]
    held = sessions.take(np.flatnonzero(test & ~short))
    return Split(train=sessions.take(np.flatnonzero(~test)),
                 test=HeldOut(**vars(held), hold=rng.integers(np.diff(held.offsets))),
                 policy=policy, warnings=warnings)


class Histories:
    """Each user's sessions in (day, t) order, and what they say in index space.

    Held as flat arrays, user after user: user u's items first-seen first
    in `first_seen[start[u]:start[u + 1]]`, the same items ascending in
    that span of `seen`. A long-term list is a prefix of the user's
    first-seen items, as long as `long_lengths` says for a (user, day);
    `unseen_items` gives the d-th item a user did not touch, the pool
    negatives are drawn from. Session i of `sessions` has a long-term list
    `long_len[i]` long, and training instance q holds out item q of the
    sessions, with the rest of its session as context. A user with no
    session has an empty history.
    """

    def __init__(self, sessions: Sessions, dataset):
        self.sessions, self.dataset, n = sessions, dataset, dataset.n_items
        lengths = np.diff(sessions.offsets)
        rank = np.lexsort((sessions.t, sessions.day, sessions.user))  # stable: ties keep order
        # the items, and their users and sessions, with the sessions in rank order
        size, self._day, self._user = lengths[rank], sessions.day[rank], sessions.user[rank]
        at = np.repeat(sessions.offsets[rank] - np.cumsum(size) + size, size)
        at += np.arange(at.size)
        items, who = sessions.item[at], np.repeat(self._user, size)
        _, first = np.unique(who * n + items, return_index=True)  # each (user, item) once
        self.seen, owner = items[first], who[first]
        self.first_seen = items[np.sort(first)]
        self.start = np.append(0, np.bincount(owner, minlength=dataset.n_users).cumsum())
        # (user, item) pairs first seen before each ranked session, and in all
        new = np.bincount(np.repeat(np.arange(rank.size), size)[first], minlength=rank.size)
        self._known = np.concatenate((np.cumsum(new) - new, [first.size]))
        self.long_len = self.long_lengths(sessions.user, sessions.day)
        # the untouched items below each touched one (seen[j] less its place in
        # its user's span), offset per user so that the whole array ascends
        self._gaps = self.seen - np.arange(first.size) + self.start[owner] + owner * (n + 1)

    def long_lengths(self, users: np.ndarray, days: np.ndarray) -> np.ndarray:
        """For each b, how many distinct items users[b] touched before day days[b]:
        the length of that long-term list."""
        # days as dense codes, so that (user, day) keys ascend with the ranked sessions
        code = np.unique(np.concatenate((self._day, days)), return_inverse=True)[1]
        width = code.max(initial=0) + 1
        keys = self._user * width + code[:self._day.size]
        ahead = np.searchsorted(keys, users * width + code[self._day.size:])
        return self._known[ahead] - self.start[users]

    def unseen_items(self, users: np.ndarray, d: np.ndarray) -> np.ndarray:
        """For each b, the d[b]-th (from 0) ascending item users[b] did not touch:
        d[b] plus the count of touched items with at most d[b] untouched below."""
        keys = users * (self.dataset.n_items + 1) + d
        return d + np.searchsorted(self._gaps, keys, "right") - self.start[users]


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
) -> Sessions:
    """Sessions that walk a planted successor map with per-step noise; user
    u's session t falls on day t."""
    tokens = [item_token(j) for j in range(n_items)]
    successor = list(map(_index(tokens).__getitem__, map(transition.__getitem__, tokens)))
    item = []
    for _ in range(n_users * n_sessions_per_user):
        item.append(int(rng.integers(n_items)))
        for _ in range(session_len - 1):
            item.append(int(rng.integers(n_items)) if rng.random() < noise_rate
                        else successor[item[-1]])
    t = np.tile(np.arange(n_sessions_per_user, dtype=np.int64), n_users)
    return Sessions(
        [user_token(u) for u in range(n_users)], tokens,
        np.repeat(np.arange(n_users, dtype=np.int64), n_sessions_per_user), t.copy(), t,
        np.arange(t.size + 1, dtype=np.int64) * max(1, session_len), np.array(item, np.int64),
    )


def sessions_to_interactions(sessions: Sessions, action: str = "view") -> Corpus:
    """The corpus of the sessions' items, the p-th of a session p seconds into its
    day; its vocabularies hold the tokens the rows use, first appearance first."""
    lengths = np.diff(sessions.offsets)
    n = int(sessions.offsets[-1])
    users, user = _recode(np.repeat(sessions.user, lengths), sessions.users)
    items, item = _recode(sessions.item, sessions.items)
    position = np.arange(n) - np.repeat(sessions.offsets[:-1], lengths)
    return Corpus(
        users, items, user, item,
        np.repeat(sessions.day * SECONDS_PER_DAY, lengths) + position,
        np.full(n, ACTIONS.index(action), np.int8), np.full(n, np.nan),
        np.full(n, -1, np.int64), [""] * n,
    )


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
    trait scoring separates the clusters. Returns (corpus, cluster): the
    planted cluster of each user of `corpus.users`, whose trait is
    `TRAITS[cluster % len(TRAITS)]`.
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

    background = [w for cat in BACKGROUND_CATEGORIES for w in words_of(cat)]
    n_rated = max(1, round(rating_density * items_per_cluster))
    n = users_per_cluster * n_rated  # rows per cluster
    item_codes, ratings, reviews, helpful = [], [], [], []
    for c in range(n_clusters):
        trait = TRAITS[c % len(TRAITS)]
        own = words_of(PLANTED_TRAIT_CATEGORIES[trait])
        other = [w for t, cat in PLANTED_TRAIT_CATEGORIES.items() if t != trait
                 for w in words_of(cat)]
        # pools 0, 1, 2 (own trait, other traits, background) laid end to end
        words = np.array(own + other + background, dtype=object)
        pool_size = np.array([len(own), len(other), len(background)])
        pool_start = np.array([0, len(own), len(own) + len(other)])

        quality = rng.uniform(1.2, 4.8, size=items_per_cluster)
        offset = rng.normal(0.0, 0.2, size=users_per_cluster)
        # each user's subset: the items of their n_rated smallest keys, ascending
        keys = rng.random((users_per_cluster, items_per_cluster))
        rated = np.sort(np.argsort(keys, axis=1)[:, :n_rated], axis=1)
        noise = rng.normal(0.0, 0.25, size=rated.shape)
        ratings.append(np.clip(quality[rated] + offset[:, None] + noise, 1.0, 5.0).ravel())
        item_codes.append(c * items_per_cluster + rated.ravel())
        draw = rng.random((n, 8))
        pool = (draw >= 0.6).astype(np.int64) + (draw >= 0.7)
        word = pool_start[pool] + rng.integers(0, pool_size[pool])
        reviews.extend(map(" ".join, words[word].tolist()))
        helpful.append(rng.integers(0, 6, size=n))

    n_users = n_clusters * users_per_cluster
    items, item = _recode(
        np.concatenate(item_codes),
        [f"c{c}_i{j:03d}" for c in range(n_clusters) for j in range(items_per_cluster)],
    )
    # user u rates on day u, the p-th of their items p seconds into it
    user = np.repeat(np.arange(n_users, dtype=np.int64), n_rated)
    stamp = user * SECONDS_PER_DAY + np.tile(np.arange(n_rated, dtype=np.int64), n_users)
    corpus = Corpus(
        [f"c{c}_u{k:03d}" for c in range(n_clusters) for k in range(users_per_cluster)],
        items, user, item, stamp, np.full(len(user), RATE, np.int8),
        np.concatenate(ratings), np.concatenate(helpful), reviews,
    )
    return corpus, np.repeat(np.arange(n_clusters, dtype=np.int64), users_per_cluster)


def _touched(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """(user codes, item codes) of each distinct pair the corpus holds."""
    n_items = len(corpus.items)
    pair = np.unique(corpus.user * n_items + corpus.item)
    return pair // n_items, pair % n_items


def _share_of_users_without(user: np.ndarray, flagged: np.ndarray) -> float:
    """Fraction of the users in `user` with no flagged pair."""
    n_users = len(np.unique(user))
    if not n_users:
        return 0.0
    return (n_users - len(np.unique(user[flagged]))) / n_users


def dsw_degree(corpus: Corpus) -> float:
    """Fraction of users sharing no interacted item with any other user."""
    user, item = _touched(corpus)
    holders = np.bincount(item, minlength=len(corpus.items))
    return _share_of_users_without(user, holders[item] > 1)


def cross_cluster_disjointness(corpus: Corpus, cluster: np.ndarray) -> float:
    """Fraction of users sharing no item with any user of another cluster;
    `cluster` holds one label per user of `corpus.users`."""
    user, item = _touched(corpus)
    label = np.asarray(cluster, dtype=np.int64)[user]
    # an item is shared across clusters when its users' labels differ
    lowest = np.full(len(corpus.items), INT64_MAX)
    highest = np.full(len(corpus.items), -INT64_MAX - 1)
    np.minimum.at(lowest, item, label)
    np.maximum.at(highest, item, label)
    return _share_of_users_without(user, (lowest != highest)[item])


# ---------------------------------------------------------------------------
# Explicit-rating view


def rated_vocabularies(corpus: Corpus):
    """The rated rows (a rate action with a number), and their users and items.

    Returns the row mask, then (tokens, codes) for users and for items: the
    tokens the rated rows use, in order of first appearance, and each rated
    row's code into them.
    """
    rated = (corpus.action == RATE) & ~np.isnan(corpus.rating)
    return (rated, _recode(corpus.user[rated], corpus.users),
            _recode(corpus.item[rated], corpus.items))


@dataclass(eq=False)
class Ratings(_TokenMaps):
    """Explicit ratings as aligned arrays: rating k is user `user[k]`'s
    `value[k]` for item `item[k]`, codes into the `users` and `items`
    vocabularies. Iterating gives (user, item, value) tuples, in this order."""

    users: list[str]
    items: list[str]
    user: np.ndarray
    item: np.ndarray
    value: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    def __len__(self) -> int:
        return len(self.user)

    def __iter__(self):
        return zip(self.user.tolist(), self.item.tolist(), self.value.tolist())

    def take(self, index: np.ndarray) -> "Ratings":
        """The ratings `index` selects (positions or a mask), in its order."""
        return Ratings(self.users, self.items, self.user[index], self.item[index],
                       self.value[index])


@dataclass(eq=False)
class RatingMatrix(Ratings):
    """The latest rating of each rated (user, item) pair of a corpus, in
    (user, item) order, over the rated rows' vocabularies."""

    @classmethod
    def from_interactions(cls, corpus: Corpus) -> "RatingMatrix":
        """The rated rows' users and items, first appearance first, and their ratings."""
        rated, (users, u), (items, i) = rated_vocabularies(corpus)
        # the latest rating of each (user, item) wins, the later row on a tie:
        # lexsort is stable, so it is the last row of its pair's run
        pair = u * len(items) + i
        order = np.lexsort((corpus.timestamp[rated], pair))
        pair = pair[order]
        last = order[np.append(pair[1:] != pair[:-1], True)] if len(pair) else order
        return cls(users, items, u[last], i[last], corpus.rating[rated][last])


def split_ratings(ratings: Ratings, test_fraction: float, rng) -> tuple[Ratings, Ratings]:
    """(train, test): a random holdout of each user's ratings, both in `ratings`' order.

    One `rng.permutation` orders the ratings at random, and a stable sort by user
    (a linear radix sort of `uint16` keys, up to 65,536 users) groups them, each
    user's in that random order. A user with `count` ratings gives the first
    min(count - 1, max(1, round(test_fraction * count))) of them to test, so a user
    with one rating keeps it in train. Both sides are gathered by position, not mask.
    """
    counts = np.bincount(ratings.user, minlength=ratings.n_users)
    order = rng.permutation(len(ratings))
    key = ratings.user[order].astype(np.uint16 if len(counts) <= 1 << 16 else np.int64)
    order = order[np.argsort(key, kind="stable")]
    n_test = np.minimum(counts - 1, np.maximum(1, np.round(test_fraction * counts)))
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(order)) - np.repeat(starts, counts)
    held = np.zeros(len(order), bool)
    held[order[rank < np.repeat(n_test, counts)]] = True
    return ratings.take(np.flatnonzero(~held)), ratings.take(np.flatnonzero(held))


# ---------------------------------------------------------------------------
# Indexed dataset used by trainers and the evaluator


@dataclass
class Dataset(_TokenMaps):
    """The vocabularies of an interaction log, and its sessions."""

    users: list[str]
    items: list[str]
    sessions: Sessions

    @classmethod
    def from_interactions(cls, corpus: Corpus) -> "Dataset":
        """The corpus's vocabularies and its sessions."""
        return cls(users=corpus.users, items=corpus.items, sessions=sessionize(corpus))

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)
