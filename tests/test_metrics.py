import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from recsuite import apar, baselines, can, das, data, metrics
from recsuite.numeric import make_rng


class TestMae:
    def test_hand_value(self):
        assert metrics.mae([4, 2], [3, 4]) == pytest.approx(1.5)

    def test_perfect(self):
        assert metrics.mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.mae([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            metrics.mae([], [])


class TestRmse:
    def test_hand_value(self):
        assert metrics.rmse([4, 2], [3, 4]) == pytest.approx(math.sqrt(2.5))
        assert metrics.rmse([4, 2], [3, 4]) == pytest.approx(1.581139, abs=1e-5)

    def test_perfect(self):
        assert metrics.rmse([2, 2], [2, 2]) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=5),
                st.floats(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_rmse_at_least_mae(self, pairs):
        true = [a for a, _ in pairs]
        pred = [b for _, b in pairs]
        assert metrics.rmse(true, pred) >= metrics.mae(true, pred) - 1e-12


class TestPrecisionRecall:
    def test_precision_example(self):
        assert oracles.precision_at_k(["a", "b", "c"], {"b"}, 3) == pytest.approx(1 / 3)

    def test_precision_all_relevant(self):
        assert oracles.precision_at_k(["a", "b"], {"a", "b", "c"}, 2) == 1.0

    def test_precision_none(self):
        assert oracles.precision_at_k(["a", "b"], {"z"}, 2) == 0.0

    def test_precision_of_an_empty_ranking_is_a_value_error(self):
        with pytest.raises(ValueError, match="nothing was ranked"):
            oracles.precision_at_k([], {"a"}, 5)

    def test_precision_k_beyond_length_is_over_the_items_ranked(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = oracles.precision_at_k(["a"], {"a"}, 5)
        assert v == 1.0  # computed over the single available position

    def test_recall_leave_one_out_hit(self):
        assert oracles.recall_at_k(["a", "b"], {"b"}, 2) == 1.0

    def test_recall_miss(self):
        assert oracles.recall_at_k(["a", "b"], {"z"}, 2) == 0.0

    def test_recall_empty_relevant(self):
        with pytest.raises(ValueError):
            oracles.recall_at_k(["a"], set(), 1)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_recall_monotone_in_k(self, k1, k2):
        ranked = list("abcdefgh")
        relevant = {"b", "e", "h"}
        lo, hi = sorted((k1, k2))
        assert oracles.recall_at_k(ranked, relevant, lo) <= oracles.recall_at_k(
            ranked, relevant, hi
        )

    @given(
        st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=8),
    )
    def test_counting_identity(self, relevant, k):
        # precision*k == recall*|relevant| (both count |top-k ∩ relevant|)
        ranked = list("abcdefgh")
        p = oracles.precision_at_k(ranked, relevant, k)
        r = oracles.recall_at_k(ranked, relevant, k)
        assert p * k == pytest.approx(r * len(relevant), abs=1e-12)


class TestAuc:
    def test_perfect_separation(self):
        assert oracles.auc([0.9], [0.1, 0.5]) == 1.0

    def test_all_ties(self):
        assert oracles.auc([0.3, 0.3], [0.3]) == 0.5

    def test_pairwise_enumeration(self):
        # pairs: (0.6 > 0.4) = 1, (0.6 < 0.7) = 0 -> mean 0.5
        assert oracles.auc([0.6], [0.4, 0.7]) == 0.5

    def test_empty_side(self):
        with pytest.raises(ValueError):
            oracles.auc([], [0.1])
        with pytest.raises(ValueError):
            oracles.auc([0.1], [])

    @given(
        # eighths in [-5, 5]: binary fractions keep order exact under both maps
        st.lists(st.integers(-40, 40).map(lambda n: n / 8), min_size=1, max_size=6),
        st.lists(st.integers(-40, 40).map(lambda n: n / 8), min_size=1, max_size=6),
    )
    def test_invariant_under_increasing_transform(self, pos, neg):
        base = oracles.auc(pos, neg)
        affine = oracles.auc([2 * x + 1 for x in pos], [2 * x + 1 for x in neg])
        expo = oracles.auc([math.exp(x) for x in pos], [math.exp(x) for x in neg])
        assert base == pytest.approx(affine, abs=1e-12)
        assert base == pytest.approx(expo, abs=1e-12)

    @given(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5),
        st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5),
    )
    def test_matches_brute_force(self, pos, neg):
        total = 0.0
        for p in pos:
            for n in neg:
                total += 1.0 if p > n else (0.5 if p == n else 0.0)
        assert oracles.auc(pos, neg) == pytest.approx(
            total / (len(pos) * len(neg)), abs=1e-12
        )


class TestNovelty:
    def test_half_overlap(self):
        assert oracles.can_novelty({"a", "b"}, {"a"}) == 0.5

    def test_fully_novel(self):
        assert oracles.can_novelty({"a", "b"}, {"c"}) == 1.0

    def test_fully_seen(self):
        assert oracles.can_novelty({"a"}, {"a", "b"}) == 0.0

    def test_empty_recommendation(self):
        with pytest.raises(ValueError):
            oracles.can_novelty(set(), {"a"})


class TestRankItems:
    """`metrics.top_k`, the one ranking routine, against the full sort."""

    def test_descending_scores(self):
        order = metrics.top_k(np.array([0.1, 0.9, 0.5]), 3)
        assert list(order) == [1, 2, 0]

    def test_ties_broken_by_ascending_index(self):
        order = metrics.top_k(np.array([0.5, 0.9, 0.5, 0.9]), 4)
        assert list(order) == [1, 3, 0, 2]

    def test_tie_at_the_cutoff_takes_the_lower_index(self):
        order = metrics.top_k(np.array([0.2, 0.7, 0.9, 0.7, 0.7]), 2)
        assert list(order) == [2, 1]

    def test_nan_ranks_last(self):
        scores = np.array([np.nan, -np.inf, 0.0, np.nan])
        assert list(metrics.top_k(scores, 4)) == [2, 1, 0, 3]
        assert list(metrics.top_k(scores, 3)) == [2, 1, 0]

    def test_k_below_one_is_empty(self):
        assert metrics.top_k(np.array([0.5, 0.1]), 0).size == 0

    # few distinct values, so ties are the rule; ±inf, -0.0 and NaN among them
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, np.inf, -np.inf, np.nan])
    score_lists = st.lists(values | st.floats(-2, 2), max_size=40)

    @given(score_lists, st.integers(1, 44))
    @example([0.5, 0.5, 0.5], 1)
    @example([np.nan, 1.0, np.nan], 2)
    @example([np.nan, 1.0, np.nan, -np.inf], 6)
    def test_equals_oracle_prefix(self, scores, k):
        scores = np.array(scores, dtype=np.float64)
        want = oracles.rank_items(scores)[:k]
        assert list(metrics.top_k(scores, k)) == list(want)


class _OracleScorer:
    """Scores the instance target highest; needs the answer key."""

    def __init__(self, answers, n_items):
        self.answers = answers  # (user, tuple(context)) -> target index
        self.n_items = n_items

    def score_items(self, user, long_items, short_items):
        scores = np.zeros(self.n_items)
        scores[self.answers[(user, tuple(short_items))]] = 1.0
        return scores


def tiny_dataset():
    sessions = []
    for u in range(4):
        for t in range(3):
            items = [data.item_token((u + t + j) % 8) for j in range(3)]
            sessions.append(data.Session(user=data.user_token(u), t=t, day=t, items=items))
    evs = data.sessions_to_interactions(oracles.sessions_of(sessions))
    return data.Dataset.from_interactions(evs)


class TestEvaluate:
    def test_perfect_oracle_recall_at_1(self):
        ds = tiny_dataset()
        sp = data.split(ds.sessions, "random-80-20", make_rng(5))
        answers = {}
        for inst in sp.test:
            uidx = ds.user_index[inst.user]
            ctx = tuple(ds.item_index[i] for i in inst.context)
            answers[(uidx, ctx)] = ds.item_index[inst.target]
        report = metrics.evaluate(
            _OracleScorer(answers, ds.n_items), ds, sp, cutoffs=[1, 5], model_name="oracle"
        )
        assert report.value("recall", 1) == 1.0
        assert report.value("precision", 1) == 1.0

    def test_deterministic_given_seed(self):
        ds = tiny_dataset()
        sp = data.split(ds.sessions, "random-80-20", make_rng(5))

        class Rand:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def score_items(self, user, long_items, short_items):
                return self.rng.random(ds.n_items)

        r1 = metrics.evaluate(Rand(3), ds, sp, cutoffs=[5], model_name="random")
        r2 = metrics.evaluate(Rand(3), ds, sp, cutoffs=[5], model_name="random")
        assert r1.rows == r2.rows

    def test_context_exclusion(self):
        ds = tiny_dataset()
        sp = data.split(ds.sessions, "random-80-20", make_rng(5))

        class ContextLover:
            def score_items(self, user, long_items, short_items):
                scores = np.zeros(ds.n_items)
                scores[short_items] = 1.0  # always re-recommend the context
                return scores

        on = metrics.evaluate(
            ContextLover(), ds, sp, cutoffs=[2], model_name="m", exclude_context=True
        )
        off = metrics.evaluate(
            ContextLover(), ds, sp, cutoffs=[2], model_name="m", exclude_context=False
        )
        assert on.value("mcan", 2) == 1.0  # context never reappears
        assert off.value("mcan", 2) < 1.0

    def test_failures_recorded_run_continues(self):
        ds = tiny_dataset()
        sp = data.split(ds.sessions, "random-80-20", make_rng(5))
        bad_user = next(iter(sp.test)).user

        class Flaky:
            def score_items(self, user, long_items, short_items):
                if user == ds.user_index[bad_user]:
                    raise KeyError("boom")
                return np.zeros(ds.n_items)

        report = metrics.evaluate(Flaky(), ds, sp, cutoffs=[1], model_name="flaky")
        assert report.failures and bad_user in report.failures[0]

    @pytest.mark.parametrize("broken", ["index", "shape"])
    def test_data_errors_fail_only_their_instance(self, broken):
        ds = tiny_dataset()
        sp = data.split(ds.sessions, "random-80-20", make_rng(5))
        bad_user = ds.user_index[next(iter(sp.test)).user]

        class Broken:
            def score_items(self, user, long_items, short_items):
                if user != bad_user:
                    return np.zeros(ds.n_items)
                if broken == "index":
                    return np.zeros(ds.n_items)[[ds.n_items]]
                return np.zeros(ds.n_items + 1)

        report = metrics.evaluate(Broken(), ds, sp, cutoffs=[1], model_name="broken")
        n_bad = sum(1 for inst in sp.test if ds.user_index[inst.user] == bad_user)
        assert len(report.failures) == n_bad
        assert report.n_instances == len(sp.test) - n_bad

    def test_other_errors_propagate(self):
        ds = tiny_dataset()
        sp = data.split(ds.sessions, "random-80-20", make_rng(5))

        class Buggy:
            def score_items(self, user, long_items, short_items):
                raise ZeroDivisionError("a bug, not a data error")

        with pytest.raises(ZeroDivisionError):
            metrics.evaluate(Buggy(), ds, sp, cutoffs=[1], model_name="buggy")

    def test_csv_column_order(self, tmp_path):
        ds = tiny_dataset()
        sp = data.split(ds.sessions, "random-80-20", make_rng(5))

        class Zero:
            def score_items(self, user, long_items, short_items):
                return np.zeros(ds.n_items)

        report = metrics.evaluate(Zero(), ds, sp, cutoffs=[5], model_name="zero")
        out = tmp_path / "report.csv"
        report.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "model,split,metric,cutoff,value"
        assert all(line.startswith("zero,") for line in lines[1:])
        assert "auc" in report.to_text()


    def test_context_covering_the_catalog_fails_alone(self):
        # u000 views a, b on day 0 and a, b, c, a on day 1: holding out the
        # last a leaves a context with every item of the catalog
        day0 = data.Session(user="u000", t=0, day=0, items=["a", "b"])
        day1 = data.Session(user="u000", t=1, day=1, items=["a", "b", "c", "a"])
        ds = dataset_of([day0, day1])
        covering = data.TestInstance(user="u000", day=1, t=1, context=["a", "b", "c"],
                                     target="a")
        partial = data.TestInstance(user="u000", day=1, t=1, context=["a", "c", "a"],
                                    target="b")
        sp = split_of(ds, [day0], [covering, partial])
        scorer = baselines.RandomScorer(ds.n_items, 0)
        report = metrics.evaluate(scorer, ds, sp, [1], "random")
        assert report.n_instances == 1
        assert report.failures == [
            "user u000 day 1: no item left to rank once its context is dropped"]
        both = metrics.evaluate(scorer, ds, sp, [1], "random", exclude_context=False)
        assert both.n_instances == 2 and not both.failures


def dataset_of(sessions):
    """The dataset of a list of `data.Session` objects."""
    return data.Dataset.from_interactions(
        data.sessions_to_interactions(oracles.sessions_of(sessions)))


def split_of(ds, train, test, policy="fixed"):
    """The split of `data.Session` and `data.TestInstance` lists over ds's vocabularies."""
    return data.Split(train=oracles.sessions_of(train, ds.users, ds.items),
                      test=oracles.sessions_of(test, ds.users, ds.items), policy=policy)


@st.composite
def _sessions_and_split(draw, max_items=4):
    """A catalog of 1 to max_items items, sessions that repeat items, and a split."""
    n_items = draw(st.integers(1, max_items))
    tokens = st.sampled_from([data.item_token(j) for j in range(n_items)])
    sessions = [
        data.Session(user=data.user_token(u), t=t, day=t, items=items)
        for u in range(draw(st.integers(1, 3)))
        for t, items in enumerate(draw(st.lists(st.lists(tokens, min_size=1, max_size=5),
                                                min_size=1, max_size=3)))
    ]
    train, test = [], []
    for s in sessions:
        if len(s.items) < 2 or not draw(st.booleans()):
            train.append(s)
            continue
        hold = draw(st.integers(0, len(s.items) - 1))
        test.append(data.TestInstance(user=s.user, day=s.day, t=s.t,
                                      context=s.items[:hold] + s.items[hold + 1:],
                                      target=s.items[hold]))
    ds = dataset_of(sessions)
    return ds, split_of(ds, train, test, "random-80-20")


@given(_sessions_and_split(), st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.booleans(), st.integers(0, 100))
def test_evaluate_scores_or_lists_each_instance(ds_split, cutoffs, exclude, seed):
    ds, sp = ds_split
    report = metrics.evaluate(baselines.RandomScorer(ds.n_items, seed), ds, sp, cutoffs,
                              "random", exclude_context=exclude)
    covering = sum(exclude and len(set(inst.context)) == ds.n_items for inst in sp.test)
    assert len(report.failures) == covering
    assert report.n_instances + len(report.failures) == len(sp.test)
    assert all(f.endswith("no item left to rank once its context is dropped")
               for f in report.failures)
    assert all(0.0 <= v <= 1.0 for _, _, v in report.rows)
    rankable = [ds.n_items - exclude * len(set(inst.context)) for inst in sp.test]
    short = {k: sum(0 < r < k for r in rankable) for k in sorted(set(cutoffs))}
    assert report.short_rankings == {k: n for k, n in short.items() if n}


class _TableScorer(metrics.Ranker):
    """Scores each instance with the table row its inputs pick. It knows no
    user in `unknown_users` (a KeyError) and no context item in
    `unknown_items` (an IndexError)."""

    def __init__(self, table, unknown_users=(), unknown_items=()):
        self.table = np.array(table, dtype=np.float64)
        self.unknown_users, self.unknown_items = set(unknown_users), set(unknown_items)

    def score_batch(self, users, longs, shorts):
        for u, c in zip(users, shorts):
            if u in self.unknown_users:
                raise KeyError(f"user {int(u)}")
            if self.unknown_items.intersection(c):
                raise IndexError("an unknown item")
        return self.table[[(7 * u + 3 * len(g) + sum(c)) % len(self.table)
                           for u, g, c in zip(users, longs, shorts)]]


# few distinct values, so ties are the rule; ±0.0, ±inf and NaN among them
_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, np.inf, -np.inf, np.nan]) | st.floats(-2, 2)


@st.composite
def _ranking_case(draw):
    """A split of up to 8 items with contexts that repeat items or hold the
    target, and a score table whose scorer knows at most one user and one
    item less than the split holds."""
    ds, sp = draw(_sessions_and_split(max_items=8))
    n = ds.n_items
    table = draw(st.lists(st.lists(_SCORES, min_size=n, max_size=n), min_size=1, max_size=5))
    unknown = (draw(st.sets(st.integers(0, ds.n_users - 1), max_size=1)),
               draw(st.sets(st.integers(0, n - 1), max_size=1)))
    return ds, sp, _TableScorer(table, *unknown)


@given(_ranking_case(), st.lists(st.integers(1, 10), min_size=1, max_size=3),
       st.booleans(), st.sampled_from([1, 5, 64]))
@example(  # NaN target behind a NaN at a lower index, a context holding the target
    (lambda ds: (ds, split_of(ds, [], [data.TestInstance(
        user="u000", day=0, t=0, context=["i0", "i1", "i1"], target="i1")]),
        _TableScorer([[np.nan, np.nan, -0.0, 0.0]])))(
        dataset_of([data.Session(user="u000", t=0, day=0, items=["i0", "i1", "i2", "i3"])])),
    [1, 3, 9], False, 1)
def test_evaluate_equals_the_per_instance_oracle(case, cutoffs, exclude, chunk):
    ds, sp, scorer = case
    with mock.patch.object(metrics, "_CHUNK_ROWS", chunk):
        got = metrics.evaluate(scorer, ds, sp, cutoffs, "table", exclude)
    want = oracles.evaluate(scorer, ds, sp, cutoffs, "table", exclude)
    assert got.rows == want.rows
    assert got.n_instances == want.n_instances
    assert got.failures == want.failures
    assert got.short_rankings == want.short_rankings
    assert sum(got.failure_causes.values()) == len(got.failures)


@given(st.lists(st.tuples(st.integers(0, 6), st.floats(-1e6, 1e6)), min_size=1,
                max_size=80))
@example([(3, 0.1), (0, 0.7), (3, 0.2), (5, 1e-17), (0, 0.3), (3, 0.3)])
def test_user_means_equal_the_dict_loop_oracle_bit_for_bit(pairs):
    users, values = (np.array(a) for a in zip(*pairs))
    codes = np.unique(users, return_inverse=True)[1]
    assert (metrics._user_mean_then_global(codes, values)
            == oracles.user_mean_then_global(users, values))


def test_user_means_of_an_eval_sized_run_equal_the_dict_loop_oracle():
    rng = make_rng(5)
    users, values = rng.integers(0, 400, 2030), rng.random(2030) / 7
    codes = np.unique(users, return_inverse=True)[1]
    for v in (values, np.floor(values * 10) / 10, values[::-1].copy()):
        assert (metrics._user_mean_then_global(codes, v)
                == oracles.user_mean_then_global(users, v))


def test_failures_are_counted_by_cause():
    # a, b on day 0; a, b, c, a on day 1: holding out the last a leaves a
    # context with every item of the catalog
    day0 = data.Session(user="u000", t=0, day=0, items=["a", "b"])
    day1 = data.Session(user="u000", t=1, day=1, items=["a", "b", "c", "a"])
    ds = dataset_of([day0, day1])

    def inst(context, target):
        return data.TestInstance(user="u000", day=1, t=1, context=context, target=target)

    test = [inst(["a", "b", "c"], "a"), inst(["a"], "b"), inst([], "a"),
            inst(["c", "b"], "a"), inst(["b", "c"], "a"), inst(["a", "c", "b"], "b")]

    class OneLong(metrics.Ranker):
        """One score too many for a context of one item; a lookup error for
        an empty context (KeyError) and for one that starts with c (IndexError)."""

        def score_batch(self, users, longs, shorts):
            if any(len(c) <= 1 or c[0] == ds.item_index["c"] for c in shorts):
                raise IndexError("not in one batch")
            return np.zeros((len(users), ds.n_items))

        def score_items(self, user, long_items, short_items):
            if not len(short_items):
                raise KeyError("no context")
            if short_items[0] == ds.item_index["c"]:
                raise IndexError("no item c")
            return np.zeros(ds.n_items + (len(short_items) == 1))

    report = metrics.evaluate(OneLong(), ds, split_of(ds, [day0], test), [1], "m")
    assert report.n_instances == 1 and len(report.failures) == 5
    assert report.failure_causes == {metrics.COVERED: 2, metrics.WRONG_LENGTH: 1,
                                     metrics.UNKNOWN: 2}


class _OneAtATime:
    """A model seen through `score_items` alone: the per-instance path."""

    def __init__(self, model):
        self.model = model

    def score_items(self, user, long_items, short_items):
        return self.model.score_items(user, long_items, short_items)


N_USERS, N_ITEMS = 100, 130


def perturbed(state, seed):
    rng = make_rng(seed)
    for p in state.params():
        p += rng.normal(0, 0.3, size=p.shape)
    return state


def ranking_models():
    """One scorer of every ranking model kind over N_USERS x N_ITEMS."""
    rng = make_rng(21)
    P, Q = rng.random((N_USERS, 3)), rng.random((N_ITEMS, 3))
    return {
        "das": perturbed(das.init_das(N_USERS, N_ITEMS, das.DasConfig(k=4, seed=1)), 2),
        "can": perturbed(can.init_can(N_USERS, N_ITEMS, can.CanConfig(
            D=4, D_u=3, N_f=4, D_p=3, D_q=5, seed=1)), 2),
        "apar": apar.AparState(P=P, Q=Q, gamma=rng.random(N_USERS),
                               groups=rng.integers(0, 5, N_USERS),
                               config=apar.AparConfig(d=3)),
        "bpr": baselines.BprState(P=rng.normal(size=(N_USERS, 3)),
                                  Q=rng.normal(size=(N_ITEMS, 3)),
                                  config=baselines.BprConfig(d=3)),
        "top": baselines.TopScorer(counts=rng.integers(0, 4, N_ITEMS).astype(float)),
        "random": baselines.RandomScorer(n_items=N_ITEMS, seed=8),
    }


@pytest.fixture(scope="module")
def wide():
    """N_USERS users with four one-day sessions each: 80 test instances."""
    rng = make_rng(6)
    sessions = data.synth_sequential(N_ITEMS, N_USERS, 4,
                                     data.make_successor_map(N_ITEMS, rng), 0.3, rng)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    assert (ds.n_users, ds.n_items) == (N_USERS, N_ITEMS)
    return ds, data.split(ds.sessions, "random-80-20", make_rng(6))


class TestScoreBatch:
    @pytest.mark.parametrize("kind", ["das", "can", "apar", "bpr", "top"])
    def test_rows_equal_score_items(self, kind):
        model = ranking_models()[kind]
        rng = make_rng(4)
        users = list(rng.integers(0, N_USERS, 9))
        longs = [list(rng.integers(0, N_ITEMS, int(rng.integers(0, 6)))) for _ in users]
        shorts = [list(rng.integers(0, N_ITEMS, int(rng.integers(0, 4)))) for _ in users]
        rows = model.score_batch(users, longs, shorts)
        assert rows.shape == (len(users), N_ITEMS)
        for row, u, g, c in zip(rows, users, longs, shorts):
            want = model.score_items(u, g, c)
            assert np.abs(row - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_random_batch_draws_equal_single_draws(self):
        batch = baselines.RandomScorer(n_items=17, seed=3).score_batch([0] * 5, [[]] * 5, [[]] * 5)
        single = baselines.RandomScorer(n_items=17, seed=3)
        assert np.array_equal(batch, [single.score_items(0, [], []) for _ in range(5)])


class TestChunkedEvaluate:
    """`evaluate` in chunks reports what scoring one instance at a time does."""

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("kind", ["das", "can", "apar", "bpr", "top", "random"])
    def test_rows_equal_per_instance_loop(self, wide, monkeypatch, kind, chunk):
        ds, sp = wide
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", chunk)
        kw = dict(cutoffs=[1, 5, 10], model_name=kind)
        got = metrics.evaluate(ranking_models()[kind], ds, sp, **kw)
        want = metrics.evaluate(_OneAtATime(ranking_models()[kind]), ds, sp, **kw)
        assert got.n_instances == want.n_instances == len(sp.test) > chunk
        assert [r[:2] for r in got.rows] == [r[:2] for r in want.rows]
        for (_, _, a), (_, _, b) in zip(got.rows, want.rows):
            assert abs(a - b) <= 1e-12

    def test_chunk_bound_follows_the_catalog(self, wide, monkeypatch):
        ds, sp = wide
        monkeypatch.setattr(metrics, "_CHUNK_SCORES", 3 * N_ITEMS)
        sizes = []

        class Sizes:
            def score_batch(self, users, longs, shorts):
                sizes.append(len(users))
                return np.zeros((len(users), N_ITEMS))

        metrics.evaluate(Sizes(), ds, sp, [5], "sizes")
        assert max(sizes) == 3 and sum(sizes) == len(sp.test)

    @pytest.mark.parametrize("broken", ["index", "shape"])
    def test_a_failed_batch_is_rescored_one_at_a_time(self, wide, broken):
        ds, sp = wide
        bad_user = ds.user_index[list(sp.test)[3].user]

        class Broken(metrics.Ranker):
            def score_batch(self, users, longs, shorts):
                if bad_user not in users:
                    return np.zeros((len(users), N_ITEMS))
                if broken == "index":
                    raise IndexError("no such user")
                return np.zeros((len(users), N_ITEMS + 1))

        report = metrics.evaluate(Broken(), ds, sp, cutoffs=[1], model_name="broken")
        bad = [inst for inst in sp.test if ds.user_index[inst.user] == bad_user]
        assert report.n_instances == len(sp.test) - len(bad)
        expected = ("no such user" if broken == "index"
                    else f"scorer returned shape ({N_ITEMS + 1},), expected ({N_ITEMS},)")
        assert report.failures == [f"user {inst.user} day {inst.day}: {expected}"
                                   for inst in bad]

    def test_failures_stay_in_instance_order(self, wide):
        ds, sp = wide
        bad_user = ds.user_index[list(sp.test)[1].user]
        # the scorer knows no instance without context
        unknown = data.TestInstance(user=ds.users[0], day=9, t=0, context=[],
                                    target=ds.items[0])
        test = list(sp.test)[:6]
        test.insert(0, unknown)
        test.insert(4, unknown)
        split = data.Split(train=sp.train, test=oracles.sessions_of(test, ds.users, ds.items),
                           policy="fixed")

        class Flaky:
            def score_items(self, user, long_items, short_items):
                if not len(short_items):
                    raise KeyError("nobody")
                if user == bad_user:
                    raise KeyError("boom")
                return np.zeros(N_ITEMS)

        report = metrics.evaluate(Flaky(), ds, split, cutoffs=[1], model_name="flaky")
        want = [f"user {inst.user} day {inst.day}: "
                + ("'nobody'" if inst is unknown else "'boom'")
                for inst in test
                if inst is unknown or ds.user_index[inst.user] == bad_user]
        assert report.failures == want


def ratings_of(triplets, users=(), items=()) -> data.Ratings:
    user, item, value = zip(*triplets) if triplets else ((), (), ())
    return data.Ratings(list(users), list(items), np.array(user, np.int64),
                        np.array(item, np.int64), np.array(value, np.float64))


class TestEvaluateRatings:
    def test_mae_rmse_rows(self):
        evs = [
            oracles.Interaction("u1", "a", 0, "rate", 4.0),
            oracles.Interaction("u1", "b", 1, "rate", 2.0),
            oracles.Interaction("u2", "a", 2, "rate", 3.0),
        ]
        m = data.RatingMatrix.from_interactions(oracles.from_rows(evs))

        class Const:
            def predict_rating(self, u, i):
                return 3.0

        report = metrics.evaluate_ratings(Const(), m, model_name="const")
        assert report.value("mae") == pytest.approx((1 + 1 + 0) / 3)
        assert report.value("rmse") == pytest.approx(math.sqrt(2 / 3))

    def test_lookup_errors_recorded(self):
        class Table:
            def predict_rating(self, u, i):
                return {(0, 0): 3.0}[(u, i)]

        report = metrics.evaluate_ratings(Table(), ratings_of([(0, 0, 4.0), (0, 1, 2.0)]),
                                          "table")
        assert report.n_instances == 1 and report.value("mae") == 1.0
        assert len(report.failures) == 1 and "item 1" in report.failures[0]

    def test_no_rows_when_nothing_scored(self):
        class Empty:
            def predict_rating(self, u, i):
                return np.zeros(0)[i]

        report = metrics.evaluate_ratings(Empty(), ratings_of([(0, 0, 4.0), (1, 0, 2.0)]),
                                          "empty")
        assert report.n_instances == 0 and report.rows == []
        assert len(report.failures) == 2

    def test_other_errors_propagate(self):
        class Buggy:
            def predict_rating(self, u, i):
                raise TypeError("a bug, not a data error")

        with pytest.raises(TypeError):
            metrics.evaluate_ratings(Buggy(), ratings_of([(0, 0, 4.0)]), "buggy")

    def test_one_batched_call_when_every_rating_is_in_range(self):
        predictor = baselines.user_mean(ratings_of([(0, 0, 4.0), (1, 1, 2.0)], "ab", "ab"))
        with mock.patch.object(baselines.MeanPredictor, "predict_rating",
                               side_effect=AssertionError("called per rating")):
            report = metrics.evaluate_ratings(
                predictor, ratings_of([(0, 1, 3.0), (1, 0, 1.0)]), "usermean")
        assert report.value("mae") == 1.0 and report.failures == []


def _rating_case(seed, n_users=7, n_items=9, n_ratings=30):
    """Ratings over n_users x n_items, and the apar, usermean and itemmean
    predictors trained on their first two thirds."""
    rng = make_rng(seed)
    pairs = rng.choice(n_users * n_items, size=n_ratings, replace=False)
    ratings = data.Ratings([f"u{u}" for u in range(n_users)],
                           [f"i{i}" for i in range(n_items)], pairs // n_items,
                           pairs % n_items, rng.uniform(1.0, 5.0, n_ratings))
    train = ratings.take(np.arange(2 * n_ratings // 3))
    state = apar.fit_ratings(train, rng.integers(0, 3, n_users), np.zeros(n_users),
                             apar.AparConfig(d=3, max_iters=30, seed=seed))
    return ratings, {"apar": state, "usermean": baselines.user_mean(train),
                     "itemmean": baselines.item_mean(train)}


def _same_report(got, want):
    assert got.rows == want.rows  # the values bit for bit
    assert (got.n_instances, got.failures, got.failure_causes) == (
        want.n_instances, want.failures, want.failure_causes)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["apar", "usermean", "itemmean"])
def test_evaluate_ratings_equals_the_per_rating_loop(seed, kind):
    ratings, predictors = _rating_case(seed)
    predictor = predictors[kind]
    _same_report(metrics.evaluate_ratings(predictor, ratings, kind),
                 oracles.evaluate_ratings(predictor, list(ratings), kind))
    users, items = ratings.user, ratings.item
    assert predictor.predict_ratings(users, items).tolist() == [
        predictor.predict_rating(u, i) for u, i, _ in ratings]


@pytest.mark.parametrize("kind", ["apar", "usermean", "itemmean"])
def test_codes_outside_the_predictor_fail_alone_as_in_the_per_rating_loop(kind):
    ratings, predictors = _rating_case(3)
    # a user and an item past the end of every table
    ratings = data.Ratings(ratings.users, ratings.items,
                           np.append(ratings.user, [7, 0, 7]),
                           np.append(ratings.item, [0, 9, 9]),
                           np.append(ratings.value, [1.0, 2.0, 3.0]))
    got = metrics.evaluate_ratings(predictors[kind], ratings, kind)
    _same_report(got, oracles.evaluate_ratings(predictors[kind], list(ratings), kind))
    assert got.failure_causes == {metrics.UNKNOWN: 2 if kind != "apar" else 3}
    assert got.failures[-1] == ("user 7 item 9: index 7 is out of bounds for axis 0 with "
                                "size 7" if kind != "itemmean" else
                                "user 7 item 9: index 9 is out of bounds for axis 0 with "
                                "size 9")


def test_mean_model_ratings_equal_the_dict_mean_oracle():
    ratings, predictors = _rating_case(4)
    train = list(ratings)[:20]  # the ratings `_rating_case` trains on
    for pos, by, kind in ((0, "user", "usermean"), (1, "item", "itemmean")):
        _same_report(metrics.evaluate_ratings(predictors[kind], ratings, kind),
                     oracles.evaluate_ratings(oracles.mean_predictor(train, pos, by),
                                              list(ratings), kind))
