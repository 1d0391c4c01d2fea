"""Trait scoring from review text via a category lexicon and weight table.

A lexicon file has one category per line: ``category_name: word1 word2 word3*``
(a trailing ``*`` matches any completion). A weights file holds whitespace
separated ``trait category weight`` triples. Trait scores are linear:
score(trait) = sum over that trait's categories of weight * category
proportion of the user's tokens.

The proprietary dictionary of the original tool is not shipped; a small demo
lexicon (20 categories with example words) and a 0/1 default weight table
stand in. Absolute scores are therefore not comparable to published outputs;
only relative and cluster behavior is meaningful.
"""

from __future__ import annotations

import csv

import numpy as np

TRAIT_ORDER = ["O", "C", "E", "A", "N"]

# bytes outside [a-z0-9] become spaces; UTF-8 writes non-ASCII as bytes >= 0x80
_TOKEN_BYTES = bytes(b if b in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32 for b in range(256))


def tokenize(text: str) -> list[str]:
    """The maximal runs of [a-z0-9] in the lower-cased text."""
    return text.lower().encode().translate(_TOKEN_BYTES).decode().split()


# ---------------------------------------------------------------------------
# Lexicon and weight parsing

DEMO_LEXICON_TEXT = """\
anger: hate kill pissed
metaphysical_issues: god heaven coffin
friends: buddy friend neighbour
family_members: mom brother cousin
past_tense_verbs: walked were had
references_to_friends: pal buddy coworker
positive_emotions: love nice sweet
negative_emotions: hurt ugly nasty
sadness: crying grief sad
prepositions: to with above
family: daughter husband
humans: adult baby boy
physical_state: ache breast sleep
cognitive_process: cause know ought
tentative: maybe perhaps guess
insight: think consider
social_processes: talk us friend
achievement: hero win earn
inclusive_words: with and include
motion: arrive car go
"""

# 0/1 default weights: each trait gets weight 1 on the demo-lexicon categories
# associated with it; everything else is 0 and omitted.
DEMO_WEIGHTS_TEXT = """\
O achievement 1
O anger 1
O family 1
O friends 1
O motion 1
C anger 1
C prepositions 1
C negative_emotions 1
E friends 1
E positive_emotions 1
E family 1
A anger 1
A negative_emotions 1
A positive_emotions 1
A family 1
A motion 1
A achievement 1
N anger 1
N family 1
N friends 1
N negative_emotions 1
N prepositions 1
"""


def parse_lexicon_text(text: str) -> dict[str, list[str]]:
    lexicon: dict[str, list[str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"lexicon line {line_no}: expected 'category: words'")
        name, _, words_part = line.partition(":")
        name = name.strip()
        words = words_part.split()
        if not name:
            raise ValueError(f"lexicon line {line_no}: empty category name")
        if name in lexicon:
            raise ValueError(f"lexicon line {line_no}: duplicate category {name!r}")
        if not words:
            raise ValueError(f"lexicon line {line_no}: category {name!r} has no words")
        lexicon[name] = words
    return lexicon


def load_lexicon(path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8") as fh:
        return parse_lexicon_text(fh.read())


def parse_weights_text(text: str) -> dict[str, list[tuple[str, float]]]:
    weights: dict[str, list[tuple[str, float]]] = {t: [] for t in TRAIT_ORDER}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"weights line {line_no}: expected 'trait category weight'")
        trait, category, weight = parts
        if trait not in TRAIT_ORDER:
            raise ValueError(f"weights line {line_no}: unknown trait {trait!r}")
        try:
            value = float(weight)
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise ValueError(f"weights line {line_no}: weight {weight!r} is not a finite number")
        weights[trait].append((category, value))
    return weights


def load_weights(path) -> dict[str, list[tuple[str, float]]]:
    with open(path, encoding="utf-8") as fh:
        return parse_weights_text(fh.read())


DEMO_LEXICON = parse_lexicon_text(DEMO_LEXICON_TEXT)
DEMO_WEIGHTS = parse_weights_text(DEMO_WEIGHTS_TEXT)


# ---------------------------------------------------------------------------
# Scoring


class _Classes(dict):
    """token -> lexicon class; each distinct token is matched against the lexicon once.

    Tokens that match the same categories, exactly or by a ``stem*`` word,
    share a class; `sets` maps the category positions of each class to its
    number, and class 0 matches none.
    """

    def __init__(self, lexicon: dict[str, list[str]]):
        super().__init__()
        self.words = [({w for w in words if not w.endswith("*")},
                       tuple(w[:-1] for w in words if w.endswith("*")))
                      for words in lexicon.values()]
        self.sets: dict[tuple[int, ...], int] = {(): 0}

    def __missing__(self, token: str) -> int:
        key = tuple(c for c, (exact, stems) in enumerate(self.words)
                    if token in exact or token.startswith(stems))
        k = self[token] = self.sets.setdefault(key, len(self.sets))
        return k


def _proportions(texts: list[str], lexicon: dict[str, list[str]]) -> np.ndarray:
    """Row u: the share of texts[u]'s tokens that match each lexicon category (0
    without tokens), from one bincount of the (text, token class) pairs."""
    classes = _Classes(lexicon)
    ids = [np.empty(0, dtype=np.int64)]
    for text in texts:
        tokens = tokenize(text)
        ids.append(np.fromiter(map(classes.__getitem__, tokens), np.int64, len(tokens)))
    lengths = [len(a) for a in ids[1:]]
    n, k = len(texts), len(classes.sets)
    members = np.zeros((k, len(lexicon)), dtype=np.int64)
    for cats, j in classes.sets.items():
        members[j, list(cats)] = 1
    pairs = np.repeat(np.arange(n) * k, lengths) + np.concatenate(ids)
    counts = np.bincount(pairs, minlength=n * k).reshape(n, k) @ members
    return counts / np.maximum(lengths, 1)[:, None]


def _weight_terms(lexicon, weights) -> list[tuple[int, int, float]]:
    """(trait column, category column, weight) of each weight, in the weights' order."""
    column = {c: j for j, c in enumerate(lexicon)}
    terms = []
    for trait, pairs in weights.items():
        for category, w in pairs:
            if category not in column:
                raise ValueError(f"weights reference unknown category {category!r}")
            terms.append((TRAIT_ORDER.index(trait), column[category], w))
    return terms


def _trait_scores(X: np.ndarray, terms) -> np.ndarray:
    """Row u, column t: the sum of weight * X[u, category] over trait t's terms."""
    scores = np.zeros((len(X), len(TRAIT_ORDER)))
    for t, c, w in terms:
        scores[:, t] += w * X[:, c]
    return scores


def profile_all(
    corpus,
    lexicon: dict[str, list[str]],
    weights: dict[str, list[tuple[str, float]]],
) -> tuple[np.ndarray, np.ndarray]:
    """(scores, has_text): the trait scores of each user of `corpus.users`, in
    TRAIT_ORDER columns, and a mask of the users with review text.

    The weights are checked against the lexicon before any text is read.
    Each user's reviews are joined and scored as one text; a user whose
    reviews are all empty or whitespace has no text, and a score row of 0.
    A user's dominant trait is `scores.argmax(axis=1)`: the first maximum,
    so ties go in TRAIT_ORDER.
    """
    terms = _weight_terms(lexicon, weights)
    reviews: list[list[str]] = [[] for _ in corpus.users]
    for u, text in zip(corpus.user.tolist(), corpus.review):
        reviews[u].append(text)
    joined = [" ".join(texts) for texts in reviews]
    has_text = np.fromiter((bool(text.strip()) for text in joined), bool, len(joined))
    return _trait_scores(_proportions(joined, lexicon), terms), has_text


def _positions(corpus, users) -> np.ndarray:
    """The position of each token of `users` in `corpus.users`, -1 where absent."""
    index = dict(zip(corpus.users, range(len(corpus.users))))
    return np.fromiter((index.get(u, -1) for u in users), np.int64, len(users))


# ---------------------------------------------------------------------------
# Trait groups over users


def trait_groups(corpus, profiles, users) -> np.ndarray:
    """One integer label per token of `users`; users sharing a dominant trait
    share a label.

    profiles is `profile_all`'s (scores, has_text) over `corpus.users`. A
    user without review text, or absent from the corpus, gets a label of
    their own, a group of one. Each label is the position in `users` of the
    group's first member.
    """
    scores, has_text = profiles
    # one trait per corpus user, -1 without text; the appended -1 is the trait
    # of a user absent from the corpus, position -1
    dominant = np.append(np.where(has_text, scores.argmax(axis=1), -1), -1)
    key = dominant[_positions(corpus, users)]
    # each user without a trait is a key of their own, below every trait's
    key = np.where(key >= 0, key, -1 - np.arange(len(users)))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first[inverse].astype(np.int64)


# ---------------------------------------------------------------------------
# Knowledge levels from helpfulness votes


def knowledge_levels(corpus, users) -> np.ndarray:
    """The normalized knowledge level of each token of `users`: the user's
    mean helpfulness votes, min-max normalized across the corpus's users.

    The mean runs over the user's reviewed rows, a row without votes
    counting 0. A user with no reviewed row, or absent from the corpus,
    gets level 0 and takes no part in the min and max. A constant column
    (everyone equal, or a single reviewer) normalizes to 0.5.
    """
    reviewed = np.fromiter(map(bool, corpus.review), bool, len(corpus))
    user = corpus.user[reviewed]
    n_users = len(corpus.users)
    counts = np.bincount(user, minlength=n_users)
    sums = np.bincount(user, weights=np.maximum(corpus.helpful[reviewed], 0),
                       minlength=n_users)
    defined = counts > 0
    level = np.zeros(n_users + 1)  # the last, position -1: users absent from the corpus
    if defined.any():
        mean = sums[defined] / counts[defined]
        lo, hi = mean.min(), mean.max()
        level[:n_users][defined] = 0.5 if hi == lo else (mean - lo) / (hi - lo)
    return level[_positions(corpus, users)]


# ---------------------------------------------------------------------------
# Profiles CSV


def profiles_to_csv(users, profiles, path) -> None:
    """One row per user with review text: the token, the trait scores and
    the dominant trait; profiles is `profile_all`'s (scores, has_text) over
    `users`."""
    scores, has_text = profiles
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["user"] + TRAIT_ORDER + ["dominant"])
        for i in np.flatnonzero(has_text).tolist():
            row = scores[i]
            w.writerow([users[i]] + row.tolist() + [TRAIT_ORDER[row.argmax()]])
