import collections
import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from recsuite import apar, data, minibatch, personality
from recsuite.numeric import make_rng


def write_csv(tmp_path, text, name="in.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def ingest(path, schema=None):
    """(rows, errors) of data.ingest_csv, its corpus as `Interaction` rows.

    The corpus must list each user and item once, in order of first
    appearance among its rows, and no other, and reading the file two rows
    a block must give the same corpus and errors.
    """
    corpus, errors = data.ingest_csv(path, schema)
    rows = oracles.rows(corpus)
    assert len(rows) == len(corpus)
    assert corpus.users == list(dict.fromkeys(r.user for r in rows))
    assert corpus.items == list(dict.fromkeys(r.item for r in rows))
    with mock.patch.object(data, "_BLOCK_ROWS", 2):
        blocked, blocked_errors = data.ingest_csv(path, schema)
    assert (oracles.rows(blocked), blocked_errors) == (rows, errors)
    assert (blocked.users, blocked.items) == (corpus.users, corpus.items)
    return rows, errors


class TestIngest:
    def test_happy_path(self, tmp_path):
        p = write_csv(
            tmp_path,
            "user,item,timestamp\nu1,a,100\nu1,b,200\nu2,a,300\n",
        )
        rows, errors = ingest(p)
        assert len(rows) == 3 and not errors
        assert rows[0].user == "u1" and rows[0].item == "a" and rows[0].timestamp == 100

    def test_empty_item_is_error_record(self, tmp_path):
        p = write_csv(tmp_path, "user,item,timestamp\nu1,a,100\nu1,,200\nu2,b,300\n")
        rows, errors = ingest(p)
        assert len(rows) == 2
        assert len(errors) == 1 and errors[0].line == 3

    def test_iso_dates_and_datetimes(self, tmp_path):
        p = write_csv(
            tmp_path,
            "user,item,timestamp\nu1,a,2020-01-15\nu1,b,2020-01-15T06:30:00\n",
        )
        rows, errors = ingest(p)
        assert not errors
        assert rows[1].timestamp - rows[0].timestamp == 6 * 3600 + 30 * 60
        assert rows[0].timestamp % data.SECONDS_PER_DAY == 0

    def test_fractional_times_are_floored(self, tmp_path):
        p = write_csv(
            tmp_path,
            "user,item,timestamp\n"
            "u1,a,1970-01-01T00:00:00.5\n"
            "u1,b,2020-01-15T06:30:00.999999\n"
            "u1,c,1970-01-01T01:00:00.5+01:00\n"
            "u1,d,1969-12-31T23:59:59.5\n"
            "u1,e,1969-12-31T23:59:59\n",
        )
        rows, errors = ingest(p)
        assert [(r.item, r.timestamp) for r in rows] == [
            ("a", 0), ("b", 1579069800), ("c", 0),
        ]
        assert [(e.line, e.message) for e in errors] == [
            (5, "negative timestamp"), (6, "negative timestamp"),
        ]

    def test_bad_timestamp_is_error_record(self, tmp_path):
        p = write_csv(tmp_path, "user,item,timestamp\nu1,a,not-a-time\n")
        rows, errors = ingest(p)
        assert not rows and len(errors) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            data.ingest_csv(tmp_path / "absent.csv")

    def test_unmappable_column(self, tmp_path):
        p = write_csv(tmp_path, "user,thing,timestamp\nu1,a,100\n")
        with pytest.raises(ValueError):
            data.ingest_csv(p)

    def test_schema_remap(self, tmp_path):
        p = write_csv(tmp_path, "uid,sku,ts\nu1,a,100\n")
        rows, errors = ingest(
            p, schema={"user": "uid", "item": "sku", "timestamp": "ts"}
        )
        assert len(rows) == 1 and not errors

    def test_unknown_logical_name_in_schema(self, tmp_path):
        p = write_csv(tmp_path, "uid,item,timestamp\nu1,a,100\n")
        with pytest.raises(ValueError) as err:
            data.ingest_csv(p, schema={"usr": "uid"})
        assert "'usr'" in str(err.value)
        assert "user, item, timestamp, action, rating, review, helpful" in str(err.value)

    def test_rating_requires_rate_action(self, tmp_path):
        p = write_csv(
            tmp_path,
            "user,item,timestamp,action,rating\n"
            "u1,a,100,rate,4.5\n"
            "u1,b,200,view,3.0\n"
            "u1,c,300,rate,\n",
        )
        rows, errors = ingest(p)
        assert len(rows) == 1 and rows[0].rating == 4.5
        assert len(errors) == 2

    def test_review_with_commas_quoted(self, tmp_path):
        p = write_csv(
            tmp_path,
            'user,item,timestamp,action,rating,review,helpful\n'
            'u1,a,100,rate,4,"love, nice, sweet",3\n',
        )
        rows, errors = ingest(p)
        assert not errors
        assert rows[0].review == "love, nice, sweet" and rows[0].helpful == 3

    def test_unknown_action_is_error(self, tmp_path):
        p = write_csv(tmp_path, "user,item,timestamp,action\nu1,a,100,teleport\n")
        rows, errors = ingest(p)
        assert not rows and len(errors) == 1

    def test_lines_are_file_lines(self, tmp_path):
        # a blank line (3) and a review over two lines (5-6) precede the faults
        p = write_csv(
            tmp_path,
            "user,item,timestamp,action,rating,review\n"
            "u1,a,100,view,,\n"
            "\n"
            ",b,200,view,,\n"
            'u1,c,300,rate,4,"good,\nvery good"\n'
            "u1,d,400,teleport,,\n"
            "u2,,500,view,,\n",
        )
        rows, errors = ingest(p)
        assert [r.item for r in rows] == ["a", "c"]
        assert rows[1].review == "good,\nvery good"
        assert [(e.line, e.message) for e in errors] == [
            (4, "empty user id"), (7, "unknown action 'teleport'"), (8, "empty item id"),
        ]

    def test_short_extra_and_repeated_columns(self, tmp_path):
        p = write_csv(
            tmp_path,
            "user,item,timestamp,item,rating\n"
            "u1,a,100,b\n"  # short: rating reads ""
            "u1,a,200,c,,surplus,fields\n"
            "u1,a,300\n",  # the item column named last is missing: ""
        )
        rows, errors = ingest(p)
        assert [(r.item, r.timestamp) for r in rows] == [("b", 100), ("c", 200)]
        assert [(e.line, e.message) for e in errors] == [(4, "empty item id")]


# cells that parse, that fail each check, and that need quoting
CELLS = st.sampled_from([
    "", " ", "u1", " u2 ", "a", "100", "-5", "2020-01-15", "x", "view", "rate",
    "teleport", "4", "4.5", "0.5", "nan", "3", "-1", "1.5", 'say "hi"', "a,b",
])


@st.composite
def csv_files(draw):
    """A header holding the required columns, some names repeated, and rows
    of any width; no blank line and no multi-line cell."""
    extra = draw(st.lists(st.sampled_from(data.CSV_COLUMNS + ["extra"]), max_size=6))
    names = draw(st.permutations(["user", "item", "timestamp"] + extra))
    rows = draw(st.lists(st.lists(CELLS, min_size=1, max_size=len(names) + 2),
                         max_size=12))
    return [names] + rows


MULTILINE = st.sampled_from(["good,\nvery good", "a\r\nb", "x\ry", "\n", "4\n", "\r\n\r\n"])


@st.composite
def ragged_csv_texts(draw):
    """`csv_files` tables written with blank lines before some rows and
    multi-line cells in some, every line ended by \\n or by \\r\\n."""
    table = draw(csv_files())
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(table[0])
    for row in table[1:]:
        buf.write(end * draw(st.integers(0, 2)))
        writer.writerow([draw(MULTILINE) if draw(st.integers(0, 4)) == 0 else c for c in row])
    return buf.getvalue()


@given(ragged_csv_texts())
def test_ingest_equals_per_row_oracle_at_file_lines(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("ingest") / "in.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    want = oracles.ingest_rows(p)
    assert ingest(p) == want
    assert len(data.ingest_csv(p)[0]) == len(want[0])


@given(csv_files())
def test_ingest_equals_dictreader_oracle(tmp_path_factory, table):
    p = tmp_path_factory.mktemp("ingest") / "in.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)
    want = oracles.ingest_csv(p)
    assert ingest(p) == want
    assert len(data.ingest_csv(p)[0]) == len(want[0])


def _padded(texts):
    """`texts` with spaces around them, which every reader strips."""
    return st.tuples(st.sampled_from(["", "  "]), texts, st.sampled_from(["", " "])).map("".join)


TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
               max_size=12)
IDS = _padded(st.sampled_from(["u1", "u2", "a", "b", "c0_i001", "Ünï", "x,y", 'q"t']))
STAMPS = _padded(
    st.one_of(st.integers(0, 10**6), st.integers(0, data.INT64_MAX)).flatmap(
        lambda n: st.sampled_from([str(n), f"{n:08d}"])
    )
)
RATINGS = _padded(st.sampled_from(["1", "5", "4.5", "3.25", "1e0", "2.000", "4.693368257549446"]))
COUNTS = _padded(st.sampled_from(["0", "3", "007", "120"]))


@st.composite
def valid_csv_files(draw):
    """Headers in any column order, with repeated and extra names, over rows
    that every check accepts (`csv_files` almost always draws a faulty row)."""
    optional = draw(st.lists(st.sampled_from(data.CSV_COLUMNS[3:]), unique=True))
    names = draw(st.permutations(["user", "item", "timestamp"] + optional))
    names += draw(st.lists(st.sampled_from(names + ["extra"]), max_size=3))
    table = [names]
    # a rate row needs its rating, so there is none without a rating column
    actions = sorted(set(data.ACTIONS) - ({"rate"} if "rating" not in names else set())) + [""]
    for _ in range(draw(st.integers(0, 12))):
        action = draw(st.sampled_from(actions)) if "action" in names else ""
        cells = {
            "user": draw(IDS),
            "item": draw(IDS),
            "timestamp": draw(STAMPS),
            "action": action,
            "rating": draw(RATINGS) if action == "rate" else draw(st.sampled_from(["", " "])),
            "review": draw(TEXT),
            "helpful": draw(st.one_of(COUNTS, st.just(""))),
        }
        # a repeated name is read from its last column; earlier ones hold anything
        last = {name: j for j, name in enumerate(names)}
        table.append([
            cells[name] if last.get(name) == j and name in cells else draw(TEXT)
            for j, name in enumerate(names)
        ])
    return table


@given(valid_csv_files())
def test_valid_files_equal_dictreader_oracle(tmp_path_factory, table):
    p = tmp_path_factory.mktemp("ingest") / "in.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)
    got = ingest(p)
    assert got == oracles.ingest_csv(p)
    assert not got[1] and len(data.ingest_csv(p)[0]) == len(table) - 1


HEADER = "user,item,timestamp,action,rating,review,helpful\n"


@pytest.mark.parametrize("body, items, errors", [
    pytest.param(
        "".join(f"u{k},i{k},{k},rate,4,,\n" for k in range(5))
        + "u9,i9,9,rate,9,,\n"
        + "".join(f"u{k},j{k},{k},view,,ok,1\n" for k in range(5)),
        [f"i{k}" for k in range(5)] + [f"j{k}" for k in range(5)],
        [(7, "rating 9.0 outside [1, 5]")],
        id="one-bad-row-among-clean",
    ),
    pytest.param(
        "u1,a,100,view,,,\nu1,b,2020-01-15T06:30:00,view,,,\nu1,c, 0170 ,view,,,\n",
        ["a", "b", "c"], [], id="iso-timestamp-among-integers",
    ),
    pytest.param(
        "u1,a,100,view,,,\n\nu1,b,200,rate,4,\"good,\nvery good\",2\nu1,c,300,rate,,,\n",
        ["a", "b"], [(6, "rating must be present exactly when action is rate")],
        id="blank-line-and-multiline-review-before-bad-row",
    ),
    pytest.param("u1,a,1,view,,,\n ,b,2,view,,,\n", ["a"], [(3, "empty user id")],
                 id="empty-user-id"),
    pytest.param("u1,a,+5,view,,,\nu1,b,1_0,view,,,\n", ["a", "b"], [],
                 id="signed-and-underscored-timestamps"),
    pytest.param("u1,a,1,view,,,\nu1,b,-5,view,,,\n", ["a"], [(3, "negative timestamp")],
                 id="negative-timestamp"),
    pytest.param("u1,a,1,view,,,+2\nu1,b,2,view,,,-0\n", ["a", "b"], [],
                 id="signed-helpful-votes"),
    pytest.param("u1,a,1,view,,,2\nu1,b,2,view,,,-1\n", ["a"],
                 [(3, "negative helpfulness votes")], id="negative-helpful-votes"),
    pytest.param("u1,a,\u0661\u0662,view,,,\nu1,b,\u00b2,view,,,\n", ["a"],
                 [(3, "unparseable timestamp '\u00b2'")], id="non-ascii-digits"),
    pytest.param(
        "u1,a,1,rate,4,,\nu1,b,2,rate,nan,,\n", ["a"], [(3, "rating nan outside [1, 5]")],
        id="nan-rating",
    ),
    pytest.param(
        "u1,a,1,rate,4,,\nu1,b,2,rate,abc,,\n", ["a"],
        [(3, "could not convert string to float: 'abc'")], id="unparseable-rating",
    ),
    pytest.param(
        "u1,a,1,view,,,\nu1,b,2,view\nu1,c,3,view,,,,surplus\n",
        ["a", "b", "c"], [], id="rows-of-other-widths",
    ),
    pytest.param(
        "u1,a,9223372036854775807,view,,,\nu1,b,9223372036854775808,view,,,\n"
        "u1,c,18446744073709551616,view,,,\nu1,d,-9223372036854775809,view,,,\n",
        ["a"], [(3, "timestamp out of range"), (4, "timestamp out of range"),
                (5, "timestamp out of range")],
        id="timestamps-past-int64",
    ),
    pytest.param(
        "u1,a,1,view,,,9223372036854775807\nu1,b,2,view,,,9223372036854775808\n"
        "u1,c,3,view,,,-9223372036854775809\n",
        ["a"], [(3, "helpful votes out of range"), (4, "helpful votes out of range")],
        id="helpful-votes-past-int64",
    ),
    pytest.param(
        # each row fails every check from its own onward, in the order a
        # row reads; a blank line and a two-line review shift the lines
        ",,x,teleport,abc,,-1\n"
        "u1,,x,teleport,abc,,-1\n"
        "\n"
        "u1,a,x,teleport,abc,\"two\nlines\",-1\n"
        "u1,a,-5,teleport,abc,,-1\n"
        "u1,a,5,teleport,abc,,-1\n"
        "u1,a,5,view,abc,,-1\n"
        "u1,a,5,view,9,,-1\n"
        "u1,a,5,rate,9,,-1\n"
        "u1,a,5,rate,4,,x\n"
        "u1,a,5,rate,4,,-1\n"
        "u1,b,5,rate,4,,1\n",
        ["b"],
        [(2, "empty user id"), (3, "empty item id"), (5, "unparseable timestamp 'x'"),
         (7, "negative timestamp"), (8, "unknown action 'teleport'"),
         (9, "could not convert string to float: 'abc'"),
         (10, "rating must be present exactly when action is rate"),
         (11, "rating 9.0 outside [1, 5]"),
         (12, "invalid literal for int() with base 10: 'x'"),
         (13, "negative helpfulness votes")],
        id="faults-in-several-columns-report-the-first",
    ),
])
def test_one_fault_among_clean_rows(tmp_path, body, items, errors):
    rows, errs = ingest(write_csv(tmp_path, HEADER + body))
    assert [r.item for r in rows] == items
    assert [(e.line, e.message) for e in errs] == errors


def I(user, item, ts, **kw):
    return oracles.Interaction(user=user, item=item, timestamp=ts, **kw)


def rows_corpus(*rows):
    return oracles.from_rows(rows)


def sessionize(*rows):
    return list(data.sessionize(rows_corpus(*rows)))


class TestSessionize:
    def test_same_day_one_session(self):
        out = sessionize(I("u", "a", 100), I("u", "b", 50))
        assert len(out) == 1
        assert out[0].items == ["b", "a"]  # timestamp order

    def test_different_days_two_sessions(self):
        out = sessionize(I("u", "a", 0), I("u", "b", data.SECONDS_PER_DAY))
        assert len(out) == 2
        assert [s.t for s in out] == [0, 1]

    def test_empty(self):
        assert sessionize() == []
        assert len(data.sessionize(rows_corpus())) == 0

    def test_duplicates_retained(self):
        out = sessionize(I("u", "a", 1), I("u", "a", 2))
        assert out[0].items == ["a", "a"]

    events = st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=4 * data.SECONDS_PER_DAY - 1),
        ),
        max_size=30,
    )

    @given(events)
    def test_concat_reproduces_per_user_sequence(self, tuples):
        evs = [I(u, i, ts) for u, i, ts in tuples]
        sessions = sessionize(*evs)
        for user in {e.user for e in evs}:
            per_user = [s for s in sessions if s.user == user]
            assert [s.t for s in per_user] == list(range(len(per_user)))
            concat = [it for s in per_user for it in s.items]
            expected = [e.item for e in sorted(
                [e for e in evs if e.user == user], key=lambda e: e.timestamp
            )]
            assert concat == expected


class TestLongShort:
    """The long-term side of a session: the user's earlier-day items, deduplicated."""

    def sessions(self):
        return [
            data.Session(user="u", t=0, day=0, items=["a", "b"]),
            data.Session(user="u", t=1, day=1, items=["b", "c"]),
            data.Session(user="u", t=2, day=2, items=["d"]),
        ]

    def long_term(self, day, sessions=None):
        ds, hist = histories(sessions or self.sessions())
        u = ds.user_index["u"]
        length = hist.long_lengths(np.array([u]), np.array([day]))[0]
        return [ds.items[i] for i in hist.first_seen[hist.start[u]:hist.start[u] + length]]

    def test_first_session_boundary(self):
        assert self.long_term(0) == []

    def test_union_definition(self):
        assert self.long_term(1) == ["a", "b"]

    def test_third_session(self):
        assert self.long_term(2) == ["a", "b", "c"]

    def test_out_of_range(self):
        assert self.long_term(-1) == []
        assert self.long_term(99) == ["a", "b", "c", "d"]

    @given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), min_size=1, max_size=5))
    def test_growth_property(self, item_lists):
        sessions = [
            data.Session(user="u", t=i, day=i, items=list(its))
            for i, its in enumerate(item_lists)
        ]
        for day in range(len(sessions)):
            G = self.long_term(day, sessions)
            assert G == oracles.long_term_before(sessions, day)
            assert len(set(G)) == len(G)  # deduplicated
            G_next = self.long_term(day + 1, sessions)
            assert set(G) <= set(G_next)
            assert set(G_next) == set(G) | set(sessions[day].items)


def histories(sessions):
    """The dataset of `Session` objects and the `Histories` of all of them."""
    ds = data.Dataset.from_interactions(
        data.sessions_to_interactions(oracles.sessions_of(sessions)))
    return ds, data.Histories(oracles.sessions_of(sessions, ds.users, ds.items), ds)


def split(sessions, policy, rng):
    return data.split(oracles.sessions_of(sessions), policy, rng)


def make_sessions(n_users, per_user, length=3, start_item=0, n_items=20):
    out = []
    k = start_item
    for u in range(n_users):
        for t in range(per_user):
            items = [f"i{(k + j) % n_items}" for j in range(length)]
            k += length
            out.append(data.Session(user=f"u{u}", t=t, day=t, items=items))
    return out


class TestSplit:
    def test_random_ratio_and_reproducibility(self):
        sessions = make_sessions(5, 2)  # 10 sessions
        s1 = split(sessions, "random-80-20", make_rng(7))
        s2 = split(sessions, "random-80-20", make_rng(7))
        assert len(s1.train) == 8 and len(s1.test) == 2
        assert [(t.user, t.target, t.context) for t in s1.test] == [
            (t.user, t.target, t.context) for t in s2.test
        ]

    def test_holdout_keeps_context(self):
        sessions = [
            data.Session(user="u", t=0, day=0, items=["a", "b", "c"]),
            data.Session(user="u", t=1, day=1, items=["a", "b", "c"]),
        ]
        sp = split(sessions, "random-80-20", make_rng(0))
        for inst in sp.test:
            assert inst.target in {"a", "b", "c"}
            assert len(inst.context) == 2
            assert sorted(inst.context + [inst.target]) == ["a", "b", "c"]

    def test_last_week_all_same_week_errors(self):
        sessions = make_sessions(3, 2)  # days 0..1 only
        with pytest.raises(ValueError):
            split(sessions, "last-week", make_rng(0))

    def test_last_week_policy(self):
        old = [data.Session(user="u", t=0, day=0, items=["a", "b"])]
        recent = [data.Session(user="u", t=1, day=30, items=["c", "d"])]
        sp = split(old + recent, "last-week", make_rng(1))
        assert [s.day for s in sp.train] == [0]
        assert [inst.day for inst in sp.test] == [30]

    def test_single_one_item_session_user_excluded_with_warning(self):
        sessions = [data.Session(user="lonely", t=0, day=30, items=["a"])] + [
            data.Session(user="u", t=0, day=0, items=["a", "b"]),
            data.Session(user="u", t=1, day=30, items=["a", "b"]),
        ]
        sp = split(sessions, "last-week", make_rng(1))
        assert all(inst.user != "lonely" for inst in sp.test)
        assert any("lonely" in w for w in sp.warnings)

    def test_train_test_disjoint(self):
        sessions = make_sessions(6, 4)
        sp = split(sessions, "random-80-20", make_rng(3))
        test_keys = {(i.user, i.day) for i in sp.test}
        train_keys = {(s.user, s.day) for s in sp.train}
        assert not (test_keys & train_keys)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            split(make_sessions(2, 2), "bogus", make_rng(0))


def _stamp(day, second):
    return day * data.SECONDS_PER_DAY + second


# user tokens whose order differs from their order of first appearance,
# repeated items, one-item sessions, users with one session, and stamps on
# and beside day boundaries over two weeks, so last-week has both sides
SESSION_EVENTS = st.lists(
    st.builds(
        I,
        st.sampled_from(["u3", "u1", "u2", "solo"]),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(
            st.builds(_stamp, st.integers(0, 13),
                      st.sampled_from([0, 1, data.SECONDS_PER_DAY - 1])),
            st.integers(0, 14 * data.SECONDS_PER_DAY - 1),
        ),
    ),
    max_size=40,
)


@given(SESSION_EVENTS, st.sampled_from(["random-80-20", "last-week"]), st.floats(0, 1),
       st.integers(0, 2**32 - 1))
@example([I("u3", "a", 0), I("u3", "a", 5), I("u3", "b", _stamp(1, 0)),
          I("solo", "c", _stamp(13, 0)), I("u1", "a", _stamp(13, 0)),
          I("u1", "b", _stamp(14, -1)), I("u1", "c", _stamp(2, 0))],
         "last-week", 0.2, 1)
@example([I("u3", "a", 0), I("solo", "c", 0), I("u3", "b", _stamp(1, 0)),
          I("u3", "c", _stamp(1, 1)), I("u2", "b", _stamp(0, -1))],
         "random-80-20", 0.5, 2)
def test_sessions_and_split_equal_object_oracles(events, policy, test_fraction, seed):
    sessions = data.sessionize(rows_corpus(*events))
    objects = oracles.sessionize(events)
    assert list(sessions) == objects
    rng, oracle_rng = make_rng(seed), make_rng(seed)
    try:
        want = oracles.split(objects, policy, oracle_rng, test_fraction)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            data.split(sessions, policy, rng, test_fraction)
        assert str(got.value) == str(exc)
    else:
        sp = data.split(sessions, policy, rng, test_fraction)
        assert (list(sp.train), list(sp.test), sp.warnings) == want
        assert sp.policy == policy
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSynthSequential:
    def test_zero_noise_obeys_map(self):
        rng = make_rng(0)
        succ = data.make_successor_map(10, rng)
        sessions = data.synth_sequential(10, 4, 3, succ, noise_rate=0.0, rng=rng)
        assert len(sessions) == 12
        for s in sessions:
            for a, b in zip(s.items, s.items[1:]):
                assert succ[a] == b

    def test_full_noise_chance_rate(self):
        rng = make_rng(1)
        n_items = 20
        succ = data.make_successor_map(n_items, rng)
        sessions = data.synth_sequential(
            n_items, 50, 10, succ, noise_rate=1.0, rng=rng, session_len=6
        )
        pairs = hits = 0
        for s in sessions:
            for a, b in zip(s.items, s.items[1:]):
                pairs += 1
                hits += succ[a] == b
        assert abs(hits / pairs - 1.0 / n_items) < 0.03

    def test_deterministic(self):
        a = data.synth_sequential(10, 3, 2, data.make_successor_map(10, make_rng(2)), 0.3, rng=make_rng(3))
        b = data.synth_sequential(10, 3, 2, data.make_successor_map(10, make_rng(2)), 0.3, rng=make_rng(3))
        assert [(s.user, s.items) for s in a] == [(s.user, s.items) for s in b]

    def test_successor_map_is_single_cycle(self):
        succ = data.make_successor_map(12, make_rng(4))
        start = next(iter(succ))
        seen, cur = set(), start
        for _ in range(12):
            seen.add(cur)
            cur = succ[cur]
        assert cur == start and len(seen) == 12

    def test_interactions_round_trip(self):
        sessions = data.synth_sequential(
            8, 2, 3, data.make_successor_map(8, make_rng(5)), 0.2, rng=make_rng(6)
        )
        evs = data.sessions_to_interactions(sessions)
        again = data.sessionize(evs)
        assert [(s.user, s.day, s.items) for s in again] == [
            (s.user, s.day, s.items) for s in sorted(sessions, key=lambda s: (s.user, s.day))
        ]


class TestSynthPersonalityClusters:
    def corpus(self):
        return data.synth_personality_clusters(2, 8, 10, rng=make_rng(0))

    def test_disjoint_item_blocks(self):
        corpus, cluster = self.corpus()
        by_cluster = collections.defaultdict(set)
        for u, item in zip(corpus.user.tolist(), corpus.item.tolist()):
            by_cluster[cluster[u]].add(item)
        assert not (by_cluster[0] & by_cluster[1])

    def test_cross_cluster_disjointness_is_total(self):
        evs, cluster = self.corpus()
        assert data.cross_cluster_disjointness(evs, cluster) == 1.0

    def test_strict_dsw_degree_zero_with_sharing(self):
        evs, _ = self.corpus()
        # users inside a cluster co-rate items, so the strict degree is low
        assert data.dsw_degree(evs) < 1.0

    def test_dsw_degree_all_isolated(self):
        evs = rows_corpus(I("u1", "a", 0, action="rate", rating=4.0),
                          I("u2", "b", 0, action="rate", rating=2.0))
        assert data.dsw_degree(evs) == 1.0

    def test_ratings_valid_and_reviews_present(self):
        corpus, _ = self.corpus()
        evs = oracles.rows(corpus)
        assert evs
        for e in evs:
            assert e.action == "rate"
            assert 1.0 <= e.rating <= 5.0
            assert e.review and e.helpful is not None

    def test_deterministic(self):
        a, _ = data.synth_personality_clusters(2, 3, 4, rng=make_rng(9))
        b, _ = data.synth_personality_clusters(2, 3, 4, rng=make_rng(9))
        a, b = oracles.rows(a), oracles.rows(b)
        assert [(e.user, e.item, e.rating, e.review) for e in a] == [
            (e.user, e.item, e.rating, e.review) for e in b
        ]


COLUMNS = ("user", "item", "timestamp", "action", "rating", "helpful")


def assert_same_corpus(got, want):
    """Equal vocabularies, reviews and columns, dtypes included."""
    assert (got.users, got.items, got.review) == (want.users, want.items, want.review)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name


def planted_pools(trait):
    """The words of a cluster's own-trait, other-trait and background pools."""
    def words(categories):
        return {w.rstrip("*") for cat in categories for w in personality.DEMO_LEXICON[cat]}

    return (
        words([data.PLANTED_TRAIT_CATEGORIES[trait]]),
        words(cat for t, cat in data.PLANTED_TRAIT_CATEGORIES.items() if t != trait),
        words(data.BACKGROUND_CATEGORIES),
    )


@given(
    n_clusters=st.integers(2, 6),
    users_per_cluster=st.integers(1, 8),
    items_per_cluster=st.integers(1, 12),
    density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_personality_generator_layout(tmp_path_factory, n_clusters, users_per_cluster,
                                      items_per_cluster, density, seed):
    corpus, cluster = data.synth_personality_clusters(
        n_clusters, users_per_cluster, items_per_cluster, rng=make_rng(seed),
        rating_density=density,
    )
    n_rated = max(1, round(density * items_per_cluster))
    assert len(corpus) == n_clusters * users_per_cluster * n_rated
    assert corpus.users == [f"c{c}_u{k:03d}" for c in range(n_clusters)
                            for k in range(users_per_cluster)]
    assert cluster.dtype == np.int64
    assert cluster.tolist() == [c for c in range(n_clusters) for _ in range(users_per_cluster)]
    by_user = collections.defaultdict(list)
    for e in oracles.rows(corpus):
        by_user[e.user].append(e)
    assert list(by_user) == corpus.users
    for day, (user, events) in enumerate(by_user.items()):
        c = cluster[day]
        trait = data.TRAITS[c % len(data.TRAITS)]
        assert [e.timestamp for e in events] == [
            day * data.SECONDS_PER_DAY + p for p in range(n_rated)
        ]
        owner, _, j = zip(*(e.item.partition("_i") for e in events))
        assert set(owner) == {f"c{c}"}
        j = [int(x) for x in j]
        assert j == sorted(set(j)) and 0 <= j[0] and j[-1] < items_per_cluster
        pools = set().union(*planted_pools(trait))
        for e in events:
            assert e.action == "rate" and 1.0 <= e.rating <= 5.0 and 0 <= e.helpful <= 5
            words = e.review.split(" ")
            assert len(words) == 8 and set(words) <= pools
    # vocabularies in order of first appearance, as the row oracle interns them
    assert_same_corpus(corpus, oracles.from_rows(oracles.rows(corpus)))
    p = tmp_path_factory.mktemp("synth") / "corpus.csv"
    data.write_csv(p, corpus)
    again, errors = data.ingest_csv(p)
    assert not errors
    assert_same_corpus(again, corpus)


def test_personality_generator_pool_shares():
    corpus, cluster = data.synth_personality_clusters(5, 200, 40, rng=make_rng(1))
    assert len(corpus) == 24_000
    drawn = np.zeros(3)
    for u, review in zip(corpus.user.tolist(), corpus.review):
        pools = planted_pools(data.TRAITS[cluster[u] % len(data.TRAITS)])
        for word in review.split(" "):
            drawn[[word in pool for pool in pools].index(True)] += 1
    assert drawn.sum() == 8 * len(corpus)
    assert np.allclose(drawn / drawn.sum(), [0.6, 0.1, 0.3], rtol=0, atol=0.01)


class TestRatingMatrix:
    def test_from_interactions(self):
        evs = [
            I("u1", "a", 0, action="rate", rating=4.0),
            I("u1", "b", 1, action="rate", rating=2.0),
            I("u2", "a", 2, action="rate", rating=5.0),
            I("u2", "c", 3, action="view"),
        ]
        m = data.RatingMatrix.from_interactions(rows_corpus(*evs))
        assert m.n_users == 2 and m.n_items == 2  # c never rated
        assert list(m) == [(0, 0, 4.0), (0, 1, 2.0), (1, 0, 5.0)]
        assert m.user.dtype == m.item.dtype == np.int64 and m.value.dtype == np.float64
        assert m.user_index == {"u1": 0, "u2": 1} and m.item_index == {"a": 0, "b": 1}

    def test_last_rating_wins(self):
        evs = [
            I("u1", "a", 0, action="rate", rating=1.0),
            I("u1", "a", 5, action="rate", rating=3.0),
        ]
        m = data.RatingMatrix.from_interactions(rows_corpus(*evs))
        assert list(m) == [(0, 0, 3.0)]

    def test_split_ratings(self):
        rng = make_rng(0)
        evs = [
            I("u1", f"i{k}", k, action="rate", rating=float(1 + k % 5)) for k in range(10)
        ] + [I("u2", "i0", 99, action="rate", rating=2.0)]
        m = data.RatingMatrix.from_interactions(rows_corpus(*evs))
        train, test = data.split_ratings(m, 0.2, rng)
        assert len(train) + len(test) == 11
        assert len(test) == 2  # 20% of u1's ten; u2 has one rating, stays in train
        assert not (set(train) & set(test))
        assert train.users is m.users and test.items is m.items
        train2, test2 = data.split_ratings(m, 0.2, make_rng(0))
        assert list(test) == list(test2)


def ratings_of(triplets) -> data.Ratings:
    user, item, value = (zip(*triplets) if triplets else ((), (), ()))
    return data.Ratings([], [], np.array(user, np.int64), np.array(item, np.int64),
                        np.array(value, np.float64))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9),
                         st.sampled_from([1.0, 2.5, 5.0])), max_size=40),
       st.floats(0, 1), st.integers(0, 2**32 - 1))
@example([(0, 0, 1.0)], 0.5, 0)  # a single-rating user stays in train
@example([(1, 0, 1.0), (0, 1, 2.5), (1, 2, 5.0), (0, 0, 1.0), (2, 4, 2.5)], 0.0, 3)
@example([(1, 0, 1.0), (0, 1, 2.5), (1, 2, 5.0), (0, 0, 1.0), (1, 4, 2.5)], 1.0, 3)
def test_split_ratings_equals_per_user_loop_oracle(triplets, test_fraction, seed):
    # triplets in any user order, so the grouping sort has work to do
    rng, oracle_rng = make_rng(seed), make_rng(seed)
    train, test = data.split_ratings(ratings_of(triplets), test_fraction, rng)
    assert (list(train), list(test)) == oracles.split_ratings(triplets, test_fraction,
                                                              oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("test_fraction, n_test", [(0.0, [0, 1, 1, 1, 1]),
                                                   (0.5, [0, 1, 2, 2, 2]),
                                                   (1.0, [0, 1, 2, 3, 4])])
def test_split_ratings_holds_out_the_rounded_share_of_each_user(test_fraction, n_test):
    # user u has u + 1 ratings, users interleaved
    triplets = [(u, k, 3.0) for k in range(5) for u in range(5) if k <= u]
    train, test = data.split_ratings(ratings_of(triplets), test_fraction, make_rng(2))
    assert np.bincount(test.user, minlength=5).tolist() == n_test
    assert sorted(list(train) + list(test)) == sorted(triplets)


def test_first_appearance_lists_each_code_once_earliest_first():
    codes = np.array([3, 1, 3, 0, 1, 4])
    assert data.first_appearance(codes, 6).tolist() == [3, 1, 0, 4]
    empty = data.first_appearance(np.zeros(0, np.int64), 4)
    assert empty.tolist() == [] and empty.dtype == np.int64


# (n, codes): codes in range(n), none when n is 0
CODES = st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, max(n - 1, 0)),
                                             max_size=0 if n == 0 else 40)))


@given(CODES)
def test_first_appearance_equals_dict_order(case):
    n, codes = case
    assert data.first_appearance(np.array(codes, np.int64), n).tolist() == \
        list(dict.fromkeys(codes))


@given(CODES)
@example((0, []))  # an empty vocabulary and no rows
@example((5, []))  # no rows, so no token is used
@example((9, [7, 2, 7]))  # tokens no row uses, before and after those used
def test_recode_equals_unique_oracle(case):
    n, codes = case
    vocab = [f"t{k}" for k in range(n)]
    tokens, recoded = data._recode(np.array(codes, np.int64), vocab)
    want_tokens, want = oracles.recode(np.array(codes, np.int64), vocab)
    assert tokens == want_tokens
    assert recoded.dtype == want.dtype and np.array_equal(recoded, want)


# up to 65,536 users the grouping sort's key is uint16, beyond it int64
USER_COUNTS = [1, 7, 2**16, 2**16 + 1, 70_000]


@st.composite
def user_ratings(draw):
    """`data.Ratings` over one of `USER_COUNTS` users: codes near both ends of
    the range, so most users rate once or not at all and a few rate often."""
    n_users = draw(st.sampled_from(USER_COUNTS))
    code = st.one_of(st.integers(0, min(3, n_users - 1)),
                     st.integers(max(0, n_users - 3), n_users - 1),
                     st.integers(0, n_users - 1))
    user = draw(st.lists(code, max_size=60))
    item = draw(st.lists(st.integers(0, 9), min_size=len(user), max_size=len(user)))
    value = draw(st.lists(st.floats(0, 5), min_size=len(user), max_size=len(user)))
    return data.Ratings(["u"] * n_users, [], np.array(user, np.int64),
                        np.array(item, np.int64), np.array(value, np.float64))


@given(user_ratings(), st.one_of(st.sampled_from([0.0, 0.999, 1 - 1e-12, 1.0]),
                                 st.floats(0, 1)), st.integers(0, 2**32 - 1))
@example(data.Ratings(["u"] * 70_000, [], np.array([0, 65_536, 0, 65_536, 69_999], np.int64),
                      np.arange(5), np.linspace(1, 5, 5)), 0.5, 1)  # 65,536 wraps to 0 as uint16
@example(data.Ratings(["u"] * 2**16, [], np.array([65_535, 0, 65_535, 0], np.int64),
                      np.arange(4), np.linspace(1, 4, 4)), 0.5, 2)  # the largest uint16 code
@example(data.Ratings([], [], np.zeros(0, np.int64), np.zeros(0, np.int64),
                      np.zeros(0)), 0.2, 0)  # no ratings
def test_split_ratings_equals_int64_sort_oracle(ratings, test_fraction, seed):
    rng, oracle_rng = make_rng(seed), make_rng(seed)
    got = data.split_ratings(ratings, test_fraction, rng)
    want = oracles.split_ratings_int64(ratings, test_fraction, oracle_rng)
    for g, w in zip(got, want):
        for name in ("user", "item", "value"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


EVENTS = st.lists(
    st.builds(
        oracles.Interaction,
        user=st.sampled_from(["u1", "u2", "u3"]),
        item=st.sampled_from(["a", "b", "c", "d"]),
        timestamp=st.one_of(
            st.sampled_from([0, 5, data.SECONDS_PER_DAY, data.INT64_MAX]),
            st.integers(0, 3 * data.SECONDS_PER_DAY),
        ),
        action=st.sampled_from(["rate", "rate", "view", "click", "purchase"]),
        rating=st.one_of(st.none(), st.sampled_from([1.0, 2.5, 4.0, 5.0])),
        review=st.one_of(st.none(), st.sampled_from(
            ["love nice", "sad crying grief", "think win", "hero talk us", " ", "x"]
        )),
        helpful=st.one_of(st.none(), st.integers(0, 40)),
    ),
    max_size=30,
)


@given(EVENTS)
def test_rating_matrix_equals_per_row_oracle(events):
    got = data.RatingMatrix.from_interactions(rows_corpus(*events))
    assert not {"user_index", "item_index"} & set(vars(got))  # built when first read
    assert (got.users, got.items, list(got)) == oracles.rating_matrix(events)


@given(EVENTS,
       # a ratings vocabulary in any order, with users the corpus may lack
       st.lists(st.sampled_from(["u1", "u2", "u3", "u4"]), unique=True),
       st.one_of(st.floats(-1.5, 1.5), st.sampled_from([np.nan, np.inf, -np.inf])),
       st.one_of(st.none(), st.floats(0, 1)))
@example([oracles.Interaction("u1", "a", 0, "rate", 4.0, "love nice", 3),
          oracles.Interaction("u2", "a", 1, "rate", 2.0, " ", 5),
          oracles.Interaction("u3", "b", 2, "view", None, "sad crying", 1),
          oracles.Interaction("u1", "b", 3, "rate", 1.0, None, None)],
         ["u4", "u3", "u2", "u1"], 0.25, None)
def test_profiles_and_knowledge_levels_equal_per_row_oracles(events, users, beta, override):
    corpus = rows_corpus(*events)
    lexicon, weights = personality.DEMO_LEXICON, data.planted_cluster_weights()
    profiles = personality.profile_all(corpus, lexicon, weights)
    want = oracles.profile_all(events, lexicon, weights)
    assert list(oracles.profiles_of(corpus.users, profiles).items()) == list(want.items())
    groups = personality.trait_groups(corpus, profiles, users)
    assert groups.dtype == np.int64
    assert groups.tolist() == oracles.trait_groups(want, users)
    kl_map = oracles.knowledge_levels(events)
    kl = personality.knowledge_levels(corpus, users)
    assert kl.tolist() == [kl_map.get(u, 0.0) for u in users]
    gamma = apar.gamma_vector(kl, beta, override)
    assert gamma.tolist() == oracles.gamma_vector(users, kl_map, beta, override)


@given(EVENTS, st.fixed_dictionaries({u: st.integers(0, 2) for u in ["u1", "u2", "u3"]}))
def test_overlap_measures_equal_per_row_oracles(events, labels):
    corpus = rows_corpus(*events)
    assert data.dsw_degree(corpus) == oracles.dsw_degree(events)
    want = oracles.cross_cluster_disjointness(events, labels)
    cluster = np.array([labels[u] for u in corpus.users], dtype=np.int64)
    assert data.cross_cluster_disjointness(corpus, cluster) == want


@given(EVENTS)
def test_corpus_rows_and_csv_round_trip(tmp_path_factory, events):
    corpus = rows_corpus(*events)
    assert len(corpus) == len(events)
    assert oracles.rows(corpus) == [e._replace(review=e.review or None) for e in events]
    p = tmp_path_factory.mktemp("corpus") / "c.csv"
    data.write_csv(p, corpus)
    again, errors = data.ingest_csv(p)
    # a rating off its rate row is written as it is, and read back as a fault
    paired = [(e.action == "rate") == (e.rating is not None) for e in events]
    assert [(e.line, e.message) for e in errors] == [
        (k + 2, "rating must be present exactly when action is rate")
        for k, ok in enumerate(paired) if not ok
    ]
    assert oracles.rows(again) == [
        e._replace(review=(e.review or "").strip() or None)
        for e, ok in zip(events, paired) if ok
    ]


@given(EVENTS)
def test_dataset_equals_per_row_oracle(events):
    ds = data.Dataset.from_interactions(rows_corpus(*events))
    assert not {"user_index", "item_index"} & set(vars(ds))  # built when first read
    assert list(ds.sessions) == oracles.sessionize(events)
    users = [e.user for e in events]
    items = [e.item for e in events]
    assert ds.users == sorted(set(users), key=users.index)
    assert ds.items == sorted(set(items), key=items.index)
    assert ds.user_index == {u: ds.users.index(u) for u in users}
    assert ds.item_index == {i: ds.items.index(i) for i in items}


CATALOG = ["a", "b", "c", "d", "e", "f"]

TRAIN_SESSIONS = st.lists(
    st.builds(
        data.Session,
        user=st.sampled_from(["u1", "u2", "u3"]),
        t=st.integers(0, 3),
        day=st.integers(0, 4),
        items=st.lists(st.sampled_from(CATALOG[:5]), min_size=1, max_size=4),
    ),
    max_size=12,
)


# hundreds of sessions per user, several a day, given newest first; new items
# keep arriving, so the long-term lists are prefixes of many lengths
MANY_SESSIONS = [
    data.Session(user=f"u{1 + d % 2}", t=d // 2, day=d // 6,
                 items=[CATALOG[min(4, d // 60)], CATALOG[d * 3 % (1 + min(4, d // 60))]])
    for d in reversed(range(400))
]


def padded_rows(lists) -> list:
    return [row[m].tolist() for row, m in zip(lists.idx, lists.mask)]


@given(TRAIN_SESSIONS, st.integers(0, 12))
@example(MANY_SESSIONS, 200)
def test_instances_equal_set_based_oracle(train, at):
    # "all" touches the whole catalog, so its negative pool is empty
    train = train[:at] + [data.Session(user="all", t=0, day=2, items=list(CATALOG))] + train[at:]
    ds, hist = histories(train)
    want = oracles.prepared_instances(data.Split(train=train, test=[], policy="random-80-20"),
                                      ds)
    # every instance at once, gathered as a training batch gathers them
    q = np.arange(hist.sessions.item.size)
    batch = minibatch.batch_of(hist, q, np.zeros_like(q))
    assert list(zip(batch.users.tolist(), padded_rows(batch.longs), padded_rows(batch.shorts),
                    batch.positives.tolist())) == [w[:4] for w in want]
    for user, _, _, _, pool in want:
        assert ds.n_items - (hist.start[user + 1] - hist.start[user]) == pool.size
        d = np.arange(pool.size)
        assert np.array_equal(hist.unseen_items(np.full(d.size, user), d), pool)
    u = ds.user_index["all"]
    assert hist.seen[hist.start[u]:hist.start[u + 1]].tolist() == list(range(ds.n_items))


@st.composite
def touched_items(draw):
    """A catalog size and, per user, the items they touched in order."""
    n = draw(st.integers(1, 40))
    return n, draw(st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n), min_size=1,
                            max_size=6))


# users with no item, with every item but one, and with every item
@given(touched_items())
@example((5, [[], [3, 0, 4, 1], [4, 3, 2, 1, 0, 0]]))
@example((1, [[0], [], [0]]))
def test_unseen_items_are_the_complement(case):
    n, touched = case
    users, items = [f"u{k}" for k in range(len(touched))], [f"i{j}" for j in range(n)]
    sessions = oracles.sessions_of(
        [data.Session(user=users[k], t=0, day=0, items=[items[j] for j in seq])
         for k, seq in enumerate(touched) if seq], users, items)
    ds = data.Dataset(users, items, sessions)
    hist = data.Histories(sessions, ds)
    for k, seq in enumerate(touched):
        complement = sorted(set(range(n)) - set(seq))
        assert hist.seen[hist.start[k]:hist.start[k + 1]].tolist() == sorted(set(seq))
        d = np.arange(len(complement))
        assert hist.unseen_items(np.full(d.size, k), d).tolist() == complement


class TestHistories:
    def sessions(self):
        return [
            # day, not t, orders the sessions
            data.Session(user="u", t=0, day=3, items=["c", "a"]),
            data.Session(user="u", t=1, day=1, items=["b", "a", "b"]),
            data.Session(user="v", t=0, day=1, items=["d"]),
        ]

    def test_groups_each_user_in_day_order(self):
        ds, hist = histories(self.sessions())
        u = ds.user_index["u"]
        first_seen = hist.first_seen[hist.start[u]:hist.start[u + 1]]
        assert [ds.items[i] for i in first_seen] == ["b", "a", "c"]
        assert hist.long_len.tolist() == [2, 0, 0]

    def test_long_term_is_in_index_space(self):
        ds, hist = histories(self.sessions())
        users = np.array([ds.user_index[u] for u in ("u", "u", "u", "v", "v")])
        days = np.array([3, 1, 9, 0, 2])
        assert hist.long_lengths(users, days).tolist() == [2, 0, 3, 0, 1]
        u = ds.user_index["u"]
        assert [ds.items[i] for i in hist.first_seen[hist.start[u]:][:2]] == ["b", "a"]

    def test_seen_and_unseen_split_the_catalog(self):
        ds, hist = histories(self.sessions())
        u = ds.user_index["u"]
        seen = hist.seen[hist.start[u]:hist.start[u + 1]]
        assert sorted(ds.items[i] for i in seen) == ["a", "b", "c"]
        assert hist.unseen_items(np.array([u]), np.array([0])).tolist() == [ds.item_index["d"]]
