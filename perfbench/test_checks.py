"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import recsuite  # noqa: E402
import recsuite.cli  # noqa: E402
from recsuite import das, data, metrics, numeric  # noqa: E402
from recsuite.numeric import make_rng  # noqa: E402


@pytest.fixture(scope="module")
def planted():
    rng = make_rng(3)
    sessions = data.synth_sequential(12, 6, 4, data.make_successor_map(12, rng), 0.3, rng)
    ds = data.Dataset.from_interactions(data.sessions_to_interactions(sessions))
    return ds, data.split(ds.sessions, "random-80-20", make_rng(3))


class RandomScores:
    """Scores with ties, so the tie rule is exercised."""

    def __init__(self, n):
        self.table = np.round(make_rng(5).random((64, n)), 1)

    def score_items(self, user, long_items, short_items):
        return self.table[(user + len(long_items) + 7 * len(short_items)) % 64]


def test_ranking_rows_agree_with_the_evaluator(planted):
    ds, sp = planted
    scorer = RandomScores(ds.n_items)
    report = metrics.evaluate(scorer, ds, sp, [2, 5], "x")
    expected = checks.ranking_rows(scorer.score_items, checks.ranking_instances(ds, sp),
                                   ds.n_items, (2, 5))
    got = {(m, c): v for m, c, v in report.rows}
    assert checks.report_problems("x", got, expected) == []


def test_a_wrong_report_row_is_caught(planted):
    ds, sp = planted
    scorer = RandomScores(ds.n_items)
    expected = checks.ranking_rows(scorer.score_items, checks.ranking_instances(ds, sp),
                                   ds.n_items, (2,))
    got = dict(expected)
    got[("recall", 2)] += 1e-9
    assert checks.report_problems("x", got, expected)
    del got[("auc", None)]
    assert len(checks.report_problems("x", got, expected)) == 2


def test_rating_rows():
    rows = checks.rating_rows(lambda u, i: 3.0, [(0, 0, 4.0), (1, 0, 1.0)])
    assert rows == {("mae", None): 1.5, ("rmse", None): pytest.approx(np.sqrt(2.5))}


def test_listing_follows_the_tie_rule():
    scores, items = [0.5, 0.9, 0.5, 0.1], ["a", "b", "c", "d"]
    good = "1,b,0.90000000000000002\n2,a,0.5\n3,c,0.5\n"
    assert checks.listing_problems("u", good, scores, items, 3) == []
    assert checks.listing_problems("u", "1,b,0.9\n2,c,0.5\n3,a,0.5\n", scores, items, 3)
    assert checks.listing_problems("u", "1,b,0.9\n", scores, items, 3)


def test_a_rising_apar_trace_is_caught():
    assert checks.trace_problems("apar", [5.0, 4.0, 4.0]) == []
    assert checks.trace_problems("apar", [5.0, 4.0, 4.5])
    assert checks.trace_problems("das", [5.0, 4.0, 4.5]) == []
    assert checks.trace_problems("das", [5.0, float("nan")])


def test_negative_factors_are_caught():
    assert checks.factor_problems("apar", {"P": np.ones(3)}) == []
    assert checks.factor_problems("apar", {"P": np.array([1.0, -1e-300])})


def test_planted_factor_direction():
    reports = {"a": {("mae", None): 0.2}, "b": {("mae", None): 0.9}}
    assert checks.planted_problems(reports, "mae", None, "a", "b", 0.5) == []
    assert checks.planted_problems(reports, "mae", None, "b", "a", 0.5)
    assert checks.planted_problems(reports, "mae", None, "b", "a", 2.0) == []


def test_tracer_names_imported_functions_after_their_module():
    original = das.sigmoid
    tr = tracer.Tracer()
    tr.install(recsuite)
    try:
        das.sigmoid(0.0)
        numeric.sigmoid(0.0)
        data.ordered_dedup([1, 1])
    finally:
        tr.uninstall()
    assert das.sigmoid is original and numeric.sigmoid is original
    assert not hasattr(data.ordered_dedup, "__wrapped__")
    st = tr.summary()
    assert st.calls["numeric.sigmoid"] == 2
    assert st.calls["data.ordered_dedup"] == 1
    assert "das.sigmoid" not in st.calls


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0]]
    st = tr.summary()
    assert st.s("outer") == 10.0 and st.self_s["outer"] == 6.0
    assert st.s("inner") == 4.0 and st.calls["inner"] == 2


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: u for n, (u, _) in tracer.PER_LAYER.items()}


def test_run_refuses_a_checkout_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(HERE, "no-such-directory"))
    assert run.main(["--workload", "seq-narrow", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
