"""`scripts/ab.py`: the verdict rule on fixed numbers, and a smoke run of one
revision against itself."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab.py")
spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_consistent_gain_beyond_the_base_iqr_resolves():
    head = [b * 0.8 for b in BASE]
    s = ab.verdict(BASE, head, "lower", 0.25)
    assert s["verdict"] == "resolved gain"
    assert (s["wins"], s["losses"], s["pairs"]) == (10, 0, 10)
    assert s["change_pct"] == pytest.approx(-20)


def test_consistent_loss_beyond_the_base_iqr_resolves():
    assert ab.verdict(BASE, [b * 1.1 for b in BASE], "lower", 0.25)["verdict"] == \
        "resolved loss"


def test_higher_is_better_flips_the_sides():
    assert ab.verdict(BASE, [b * 1.2 for b in BASE], "higher", 0.25)["verdict"] == \
        "resolved gain"
    assert ab.verdict(BASE, [b * 0.8 for b in BASE], "higher", 0.25)["verdict"] == \
        "resolved loss"


def test_eight_wins_of_ten_do_not_resolve():
    head = [b * 0.8 for b in BASE[:8]] + [b * 1.01 for b in BASE[8:]]
    s = ab.verdict(BASE, head, "lower", 0.25)
    assert s["wins"] == 8 and s["verdict"] == "within bound"


def test_a_gap_inside_the_base_iqr_does_not_resolve():
    # head lower in every pair, but by less than the spread of the base runs
    head = [b - 0.005 for b in BASE]
    s = ab.verdict(BASE, head, "lower", 0.25)
    assert s["wins"] == 10 and s["base_iqr"] > 0.005
    assert s["verdict"] == "within bound"


def test_fewer_than_five_pairs_never_resolve():
    s = ab.verdict(BASE[:4], [b * 0.5 for b in BASE[:4]], "lower", 0.25)
    assert s["wins"] == 4 and s["verdict"] == "within bound"
    s = ab.verdict(BASE[:4], [b * 2 for b in BASE[:4]], "lower", 0.25)
    assert s["losses"] == 4 and s["verdict"] == "unresolved"


def test_base_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 1.5, 0.6, 1.2, 0.8, 1.4, 0.7, 1.1, 0.9, 1.3]
    s = ab.verdict(wide, wide, "lower", 0.25)
    assert s["change_pct"] == 0 and s["verdict"] == "unresolved"


def test_equal_sides_are_within_bound():
    s = ab.verdict([8.3] * 3, [8.3] * 3, "lower", 0.1)
    assert (s["wins"], s["losses"], s["base_iqr"], s["verdict"]) == (0, 0, 0, "within bound")
    one = ab.verdict([2.0], [2.1], "lower", 0.1)
    assert one["verdict"] == "within bound" and one["base_q1"] == one["base_q3"] == 2.0


def test_zero_base_median():
    assert ab.verdict([0.0] * 6, [0.0] * 6, "lower", 0.1)["verdict"] == "within bound"
    assert ab.verdict([0.0] * 6, [1.0] * 6, "lower", 0.1)["verdict"] == "resolved loss"


def _git_head():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


@pytest.mark.skipif(_git_head() is None, reason="needs a git checkout with a commit")
def test_one_revision_against_itself_resolves_nothing(tmp_path):
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--base", "HEAD", "--head", "HEAD", "--workload",
         "trait-ratings", "--pairs", "1", "--seeds", "1", "--seconds", "2", "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(out.read_text())
    assert got["base"] == got["head"] == _git_head()
    (pair,) = got["pairs"]
    for side in ("base", "head"):
        assert pair[side]["correct"] and pair[side]["failed"] == 0
    assert set(got["summary"]) >= {"eval_s", "recommend_ms", "ckpt_mb"}
    for name, s in got["summary"].items():
        assert not s["verdict"].startswith("resolved"), (name, s)
        assert name in proc.stdout
