import csv
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import apar_oracles
import oracles
from recsuite import data, personality
from recsuite.numeric import make_rng

_WORD = st.text(alphabet="abc", min_size=1, max_size=4)


def categorize(text, lex):
    """One text's category proportions, computed as `profile_all` computes them."""
    return dict(zip(lex, personality._proportions([text], lex)[0].tolist()))


def trait_score(X, weights):
    """One row of category proportions, scored as `profile_all` scores it."""
    terms = personality._weight_terms(X, weights)
    row = personality._trait_scores(np.array([list(X.values())]), terms)[0]
    return dict(zip(personality.TRAIT_ORDER, row.tolist()))


# Fragments of review text: case, digits, punctuation, stem completions, a
# word in two categories ("friend", "with"), and non-ASCII characters. U+212A
# KELVIN SIGN lower-cases to "k" and U+0130 to "i" and a combining dot, so
# the text must be lower-cased before it is encoded.
_FRAGMENTS = ["Win", "WINNER", "wine", "win42", "hero", "friend", "FRIENDS", "with",
              "With,friend.", "42", "a1b2", "don't", "\u212aill", "\u212aILL",
              "\u0130", "W\u0130N", "stra\u00dfe", "caf\u00e9", "\u00e9", "\U0001f600",
              "\u00a0", "\u2003", "nasty!!", "hate-kill", "", " ", "\t\n"]
_REVIEW = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=6).map(" ".join),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=6).map("".join),
    st.text(max_size=12),
    st.sampled_from(["", "   ", "\t", "\u2003"]),
)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert personality.tokenize("Love:NICE, sweet!!") == ["love", "nice", "sweet"]

    def test_empty(self):
        assert personality.tokenize("") == []

    def test_numbers_kept(self):
        assert personality.tokenize("win 42 times") == ["win", "42", "times"]

    def test_non_ascii_lower_cases_before_the_byte_table(self):
        assert personality.tokenize("\u212aILL \u0130x caf\u00e9") == ["kill", "i", "x", "caf"]

    @given(st.one_of(st.text(), _REVIEW))
    def test_matches_the_regular_expression(self, text):
        assert personality.tokenize(text) == oracles.tokenize(text)


class TestLexiconParsing:
    def test_parse_and_wildcard(self):
        lex = personality.parse_lexicon_text("pos: love nice friend*\nneg: hate\n")
        assert lex == {"pos": ["love", "nice", "friend*"], "neg": ["hate"]}

    def test_comments_and_blanks(self):
        lex = personality.parse_lexicon_text("# header\n\npos: love\n")
        assert list(lex) == ["pos"]

    def test_duplicate_category_rejected(self):
        with pytest.raises(ValueError):
            personality.parse_lexicon_text("pos: love\npos: nice\n")

    def test_empty_word_set_rejected(self):
        with pytest.raises(ValueError):
            personality.parse_lexicon_text("pos:\n")

    def test_weights_parse(self):
        w = personality.parse_weights_text("O insight 1.0\nN sadness -0.5\n")
        assert w["O"] == [("insight", 1.0)]
        assert w["N"] == [("sadness", -0.5)]

    def test_weights_unknown_trait_rejected(self):
        with pytest.raises(ValueError):
            personality.parse_weights_text("X insight 1.0\n")

    def test_demo_lexicon_shape(self):
        assert len(personality.DEMO_LEXICON) == 20
        assert "hate" in personality.DEMO_LEXICON["anger"]
        assert all(words for words in personality.DEMO_LEXICON.values())

    def test_demo_weights_reference_existing_categories(self):
        for trait, pairs in personality.DEMO_WEIGHTS.items():
            assert trait in personality.TRAIT_ORDER
            for cat, w in pairs:
                assert cat in personality.DEMO_LEXICON
                assert w == 1.0


_WEIGHT_LINES = st.one_of(
    st.text(max_size=20),
    st.builds(" ".join, st.lists(st.one_of(
        st.sampled_from(personality.TRAIT_ORDER + ["X", "#", "insight"]),
        st.sampled_from(["1", "-0.5", "nan", "-inf", "1e400", "1e-400", "0x1", "1_0", "abc"]),
        st.floats().map(repr), st.text(max_size=5),
    ), max_size=4)),
)


@given(st.lists(_WEIGHT_LINES, max_size=6).map("\n".join))
def test_any_weights_text_parses_or_names_its_line(text):
    try:
        weights = personality.parse_weights_text(text)
    except ValueError as exc:
        line = int(re.match(r"weights line (\d+): ", str(exc)).group(1))
        assert 1 <= line <= len(text.splitlines())
    else:
        assert set(weights) == set(personality.TRAIT_ORDER)
        assert all(np.isfinite(w) for pairs in weights.values() for _, w in pairs)


class TestCategorize:
    lex = {"pos": ["love", "nice", "sweet"], "ach": ["win", "hero"]}

    def test_full_match(self):
        X = categorize("love nice sweet", self.lex)
        assert X["pos"] == 1.0 and X["ach"] == 0.0

    def test_empty_text(self):
        X = categorize("", self.lex)
        assert all(v == 0.0 for v in X.values())

    def test_ratio(self):
        text = "love nice sweet x x x x x x x"  # 10 tokens, 3 matches
        assert categorize(text, self.lex)["pos"] == pytest.approx(0.3)

    def test_wildcard_prefix(self):
        lex = {"fr": ["friend*"]}
        X = categorize("friends friendly foe", lex)
        assert X["fr"] == pytest.approx(2 / 3)

    def test_token_in_two_categories_counts_in_both(self):
        lex = {"a": ["win"], "b": ["win"]}
        X = categorize("win", lex)
        assert X["a"] == 1.0 and X["b"] == 1.0

    def test_word_listed_twice_in_a_category_counts_once(self):
        lex = {"a": ["win", "win", "wi*"], "b": ["hero"]}
        X = categorize("win hero win wine", lex)
        assert X == apar_oracles.categorize("win hero win wine", lex)
        assert X["a"] == 0.75 and X["b"] == 0.25

    @given(st.text(alphabet="ab cd", max_size=30))
    def test_repetition_invariance(self, text):
        lex = {"x": ["ab"], "y": ["cd"]}
        once = categorize(text, lex)
        twice = categorize(text + " " + text, lex)
        for cat in lex:
            assert once[cat] == pytest.approx(twice[cat])

    @given(
        st.lists(st.sampled_from(["a", "ab", "abc", "ba", "c", "cab", "A,b", "  "]),
                 max_size=40).map(" ".join),
        st.dictionaries(
            st.sampled_from(["p", "q", "r"]),
            st.lists(st.one_of(_WORD, _WORD.map(lambda w: w + "*"), st.just("*")),
                     min_size=1, max_size=5),
            min_size=1,
        ),
    )
    def test_matches_per_token_oracle_exactly(self, text, lex):
        assert categorize(text, lex) == apar_oracles.categorize(text, lex)

    def test_demo_corpus_matches_per_token_oracle(self):
        corpus, _ = data.synth_personality_clusters(2, 5, 4, rng=make_rng(3))
        for text in corpus.review:
            want = apar_oracles.categorize(text, personality.DEMO_LEXICON)
            assert categorize(text, personality.DEMO_LEXICON) == want


class TestTraitScore:
    def test_all_zero(self):
        X = {"a": 0.0, "b": 0.0}
        scores = trait_score(X, {"O": [("a", 1.0)], "N": [("b", 2.0)]})
        assert all(v == 0.0 for v in scores.values())

    def test_single_term(self):
        scores = trait_score({"a": 0.3}, {"E": [("a", 0.2)]})
        assert scores["E"] == pytest.approx(0.06)

    def test_two_terms_hand_sum(self):
        # 0.5*0.4 + (-0.2)*0.1 = 0.18
        X = {"c1": 0.4, "c2": 0.1}
        scores = trait_score(X, {"A": [("c1", 0.5), ("c2", -0.2)]})
        assert scores["A"] == pytest.approx(0.18)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            trait_score({"a": 0.1}, {"O": [("missing", 1.0)]})

    def test_missing_traits_default_zero(self):
        scores = trait_score({"a": 1.0}, {"O": [("a", 1.0)]})
        assert scores["C"] == 0.0 and set(scores) == set(personality.TRAIT_ORDER)

    @given(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    def test_linearity(self, a, b, x1, x2):
        weights = {"O": [("c1", 0.7), ("c2", -0.3)]}
        Xa = {"c1": a * x1, "c2": a * x2}
        Xb = {"c1": b * x1, "c2": b * x2}
        sa = trait_score(Xa, weights)["O"]
        sb = trait_score(Xb, weights)["O"]
        combined = trait_score(
            {"c1": a * x1 + b * x1, "c2": a * x2 + b * x2}, weights
        )["O"]
        assert combined == pytest.approx(sa + sb, abs=1e-9)


def profile_one(*reviews):
    """(scores row, has text) of one user with these reviews, under the demo tables."""
    rows = [oracles.Interaction("u1", f"i{n}", n, "rate", 3.0, text)
            for n, text in enumerate(reviews)] or [oracles.Interaction("u1", "a", 0)]
    scores, has_text = personality.profile_all(
        oracles.from_rows(rows), personality.DEMO_LEXICON, personality.DEMO_WEIGHTS)
    return scores[0], bool(has_text[0])


class TestProfileUser:
    def test_o_linked_text_dominant_o(self):
        # words from every category the default table ties to openness
        scores, _ = profile_one("hero win hate kill daughter husband buddy friend arrive go")
        assert personality.TRAIT_ORDER[scores.argmax()] == "O"

    def test_tie_breaks_to_first_trait_in_order(self):
        scores, has_text = profile_one("zzz qqq")
        assert has_text and not scores.any()
        assert personality.TRAIT_ORDER[scores.argmax()] == "O"  # tie order O,C,E,A,N

    def test_zero_reviews_gives_no_profile(self):
        for reviews in ((), ("", "  \t")):
            scores, has_text = profile_one(*reviews)
            assert not has_text and not scores.any()

    def test_planted_clusters_recovered(self):
        evs, cluster = data.synth_personality_clusters(5, 6, 8, rng=make_rng(3))
        weights = data.planted_cluster_weights()
        scores, has_text = personality.profile_all(evs, personality.DEMO_LEXICON, weights)
        assert has_text.all() and len(scores) == len(cluster) == 30
        hits = (scores.argmax(axis=1) == cluster % len(data.TRAITS)).sum()
        assert hits / len(cluster) >= 0.9

    def test_trait_separation_at_least_twice_within_std(self):
        evs, cluster = data.synth_personality_clusters(2, 10, 8, rng=make_rng(4))
        weights = data.planted_cluster_weights()
        scores, _ = personality.profile_all(evs, personality.DEMO_LEXICON, weights)
        for c in (0, 1):
            trait = personality.TRAIT_ORDER.index(data.TRAITS[c])
            own, other = scores[cluster == c, trait], scores[cluster != c, trait]
            gap = abs(np.mean(own) - np.mean(other))
            within = max(np.std(own), 1e-12)
            assert gap >= 2 * within


def _profile_key(profiles):
    """Everything of each profile, scores as exact bits, in the dict's order."""
    return [(user, p.user, p.dominant, [(t, type(s), s.hex()) for t, s in p.scores.items()])
            for user, p in profiles.items()]


class TestProfileAll:
    lexicon = dict(personality.DEMO_LEXICON, stems=["win*", "fr*", "hero"])

    @given(
        st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]),
                           st.one_of(st.none(), _REVIEW)), max_size=12),
        st.lists(st.tuples(st.sampled_from(personality.TRAIT_ORDER),
                           st.sampled_from(list(lexicon)),
                           st.floats(-3, 3, allow_nan=False)), max_size=12),
    )
    def test_equals_the_per_user_oracle_bit_for_bit(self, reviews, triples):
        rows = [oracles.Interaction(user, f"i{n}", n, "rate", 3.0, text, None)
                for n, (user, text) in enumerate(reviews)]
        weights = {t: [] for t in personality.TRAIT_ORDER}
        for trait, category, w in triples:
            weights[trait].append((category, w))
        corpus = oracles.from_rows(rows)
        got = personality.profile_all(corpus, self.lexicon, weights)
        want = oracles.profile_all(rows, self.lexicon, weights)
        assert _profile_key(oracles.profiles_of(corpus.users, got)) == _profile_key(want)

    def test_demo_corpus_equals_the_oracle_bit_for_bit(self):
        corpus, _ = data.synth_personality_clusters(3, 6, 4, rng=make_rng(5))
        for weights in (personality.DEMO_WEIGHTS, data.planted_cluster_weights()):
            got = oracles.profiles_of(corpus.users, personality.profile_all(
                corpus, personality.DEMO_LEXICON, weights))
            want = oracles.profile_all(oracles.rows(corpus), personality.DEMO_LEXICON,
                                       weights)
            assert len(got) == 18
            assert _profile_key(got) == _profile_key(want)

    def test_unknown_category_rejected_without_review_text(self):
        rows = [oracles.Interaction("u1", "a", 0, "view")]
        with pytest.raises(ValueError, match="unknown category 'nosuchcat'"):
            personality.profile_all(oracles.from_rows(rows), personality.DEMO_LEXICON,
                                    {"O": [("nosuchcat", 1.0)]})


class TestSimilarityMatrix:
    """trait_groups labels: users share a label iff they share a dominant trait."""

    def groups(self, dominants):
        corpus, profiles = oracles.with_dominants(dominants)
        return personality.trait_groups(corpus, profiles, corpus.users)

    def test_same_dominant_connected(self):
        g = self.groups(["E", "E"])
        assert g[0] == g[1]

    def test_different_dominant_disconnected(self):
        g = self.groups(["E", "N"])
        assert g[0] != g[1]

    def test_diagonal_zero(self):
        # the dense graph the labels stand for has no self-loops
        L = apar_oracles.clique_matrix(self.groups(["A", "A", "A"]))
        assert np.all(np.diag(L) == 0)

    @given(st.lists(st.sampled_from("OCEAN-"), min_size=1, max_size=12))
    def test_clique_partition(self, dominants):
        # "-" marks a user without a profile: a group of their own
        corpus, profiles = oracles.with_dominants(dominants)
        g = personality.trait_groups(corpus, profiles, corpus.users)
        for j in range(len(dominants)):
            for k in range(len(dominants)):
                same = dominants[j] == dominants[k] != "-"
                assert (g[j] == g[k]) == (j == k or same)
        assert np.array_equal(
            apar_oracles.clique_matrix(g),
            apar_oracles.similarity(oracles.profiles_of(corpus.users, profiles),
                                    corpus.users))


class TestKnowledgeLevels:
    def levels(self, *rows, users=None):
        corpus = oracles.from_rows(rows)
        return dict(zip(users or corpus.users,
                        personality.knowledge_levels(corpus, users or corpus.users).tolist()))

    def ev(self, user, item, helpful, review="nice"):
        return oracles.Interaction(
            user=user,
            item=item,
            timestamp=0,
            action="rate",
            rating=3.0,
            review=review,
            helpful=helpful,
        )

    def test_mean_votes(self):
        # u1's mean, 3, lies halfway between u2's 0 and u3's 6
        kl = self.levels(self.ev("u1", "a", 2), self.ev("u1", "b", 4), self.ev("u2", "c", 0),
                         self.ev("u3", "c", 6))
        assert kl["u1"] == 0.5

    def test_single_user_constant_column_rule(self):
        kl = self.levels(self.ev("u1", "a", 2))
        assert kl["u1"] == 0.5

    def test_min_max(self):
        kl = self.levels(self.ev("u1", "a", 1), self.ev("u2", "b", 3), self.ev("u3", "c", 5))
        assert kl == {"u1": 0.0, "u2": 0.5, "u3": 1.0}

    def test_zero_reviews_flagged(self):
        # u2 has no reviewed row and u3 no row at all: level 0, outside the min-max
        kl = self.levels(
            self.ev("u1", "a", 4),
            oracles.Interaction(user="u2", item="b", timestamp=0, action="view"),
            users=["u3", "u2", "u1"],
        )
        assert kl == {"u3": 0.0, "u2": 0.0, "u1": 0.5}

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
    def test_normalized_in_unit_interval(self, votes):
        kl = self.levels(*(self.ev(f"u{i}", f"i{i}", v) for i, v in enumerate(votes)))
        for level in kl.values():
            assert 0.0 <= level <= 1.0


class TestProfilesCsv:
    def test_round_trip(self, tmp_path):
        scores = np.array([[0.1, 0.2, 0.0, 0.0, 0.5], [0.3, 0.0, 0.0, 0.0, 0.0]])
        path = tmp_path / "profiles.csv"
        personality.profiles_to_csv(["u1", "u2"], (scores, np.array([True, False])), path)
        header = path.read_text().splitlines()[0]
        assert header == "user,O,C,E,A,N,dominant"
        with open(path, newline="", encoding="utf-8") as fh:
            again = list(csv.DictReader(fh))
        assert len(again) == 1  # u2 has no text
        assert again[0]["user"] == "u1" and again[0]["dominant"] == "N"
        assert float(again[0]["N"]) == pytest.approx(0.5)
