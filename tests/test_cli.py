import csv
import hashlib
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from recsuite import checkpoint
from recsuite.cli import main

runner = CliRunner()


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _lines(text):
    return [ln for ln in text.splitlines() if ln.strip()]


def synth_sequential(out_dir, users=6, spu=4, items=12, slen=4, noise=0.2, seed=3):
    res = runner.invoke(
        main,
        [
            "synth", "--kind", "sequential", "--items", str(items),
            "--users", str(users), "--sessions-per-user", str(spu),
            "--session-len", str(slen), "--noise", str(noise),
            "--seed", str(seed), "--out", str(out_dir),
        ],
    )
    assert res.exit_code == 0, res.output
    return out_dir / "corpus.csv"


def synth_personality(out_dir, clusters=2, upc=5, ipc=4, seed=3):
    res = runner.invoke(
        main,
        [
            "synth", "--kind", "personality", "--clusters", str(clusters),
            "--users-per-cluster", str(upc), "--items-per-cluster", str(ipc),
            "--seed", str(seed), "--out", str(out_dir),
        ],
    )
    assert res.exit_code == 0, res.output
    return out_dir / "corpus.csv", res


def train(corpus, out_dir, model, *extra):
    res = runner.invoke(
        main,
        ["train", str(corpus), "--model", model, "--out", str(out_dir), *extra],
    )
    assert res.exit_code == 0, res.output
    return out_dir / f"{model}.npz"


class TestSynth:
    def test_sequential_row_count(self, tmp_path):
        corpus = synth_sequential(tmp_path, users=5, spu=3, slen=4)
        with open(corpus) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5 * 3 * 4  # header + one row per event

    def test_same_seed_identical_file(self, tmp_path):
        a = synth_sequential(tmp_path / "a", seed=9)
        b = synth_sequential(tmp_path / "b", seed=9)
        c = synth_sequential(tmp_path / "c", seed=10)
        assert _sha(a) == _sha(b)
        assert _sha(a) != _sha(c)

    def test_personality_prints_separation(self, tmp_path):
        corpus, res = synth_personality(tmp_path)
        assert "100.0%" in res.output  # planted clusters share no items
        labels = tmp_path / "clusters.csv"
        assert labels.exists()
        with open(labels) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert {r["cluster"] for r in rows} == {"0", "1"}

    def test_unknown_kind_usage_error(self, tmp_path):
        res = runner.invoke(main, ["synth", "--kind", "nope", "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_manifest_written(self, tmp_path):
        synth_sequential(tmp_path, seed=4)
        man = json.loads((tmp_path / "synth_manifest.json").read_text())
        assert man["command"] == "synth"
        assert man["seed"] == 4
        assert man["version"]


class TestIngest:
    def test_artifacts_and_summary(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s", users=4, spu=2, slen=3, items=9)
        out = tmp_path / "ing"
        res = runner.invoke(main, ["ingest", str(corpus), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert re.search(r"users=4\b", res.output)
        assert re.search(r"sessions=8\b", res.output)
        assert re.search(r"avg-session-len=3(\.0+)?\b", res.output)
        users = _lines((out / "users.txt").read_text())
        assert len(users) == 4
        assert (out / "interactions.csv").exists()
        assert (out / "items.txt").exists()

        # rerun: identical artifact bytes
        out2 = tmp_path / "ing2"
        runner.invoke(main, ["ingest", str(corpus), "--out", str(out2)])
        assert _sha(out / "interactions.csv") == _sha(out2 / "interactions.csv")

    def test_column_mapping(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("uid,iid,when\nu1,i1,2020-01-01\nu1,i2,2020-01-01\n")
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            [
                "ingest", str(raw), "--out", str(out),
                "--column", "user=uid", "--column", "item=iid",
                "--column", "timestamp=when",
            ],
        )
        assert res.exit_code == 0, res.output
        assert re.search(r"items=2\b", res.output)

    def test_empty_file_fails(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("")
        res = runner.invoke(main, ["ingest", str(raw), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "empty" in (res.output + res.stderr).lower()

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "user,item,timestamp\nu1,i1,2020-01-01\nu2,,2020-01-01\nu3,i2,2020-01-02\n"
        )
        out = tmp_path / "out"
        res = runner.invoke(main, ["ingest", str(raw), "--out", str(out)])
        assert res.exit_code == 0  # good rows still ingest
        assert "row 3" in res.stderr

    def test_all_rows_bad_fails(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("user,item,timestamp\nu1,,2020-01-01\n")
        res = runner.invoke(main, ["ingest", str(raw), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1


class TestProfile:
    def test_profiles_csv(self, tmp_path):
        corpus, _ = synth_personality(tmp_path / "s", upc=4, ipc=3)
        out = tmp_path / "p"
        res = runner.invoke(main, ["profile", str(corpus), "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "profiles.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert "dominant" in rows[0]
        assert "profiled 8" in res.output


class TestTrain:
    def test_das_checkpoint_trace_manifest(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        out = tmp_path / "t"
        ck = train(corpus, out, "das", "--k", "8", "--epochs", "2", "--seed", "7")
        assert ck.exists()
        with open(out / "das_trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [r["epoch"] for r in rows] == ["0", "1"]
        man = json.loads((out / "train_manifest.json").read_text())
        assert man["seed"] == 7
        assert man["config"]["k"] == 8
        assert "config_hash" in man and "wall_time_s" in man
        assert list(man["inputs"].values())[0] == _sha(corpus)

    def test_same_config_bit_identical_checkpoints(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        a = train(corpus, tmp_path / "a", "das", "--k", "4", "--epochs", "1", "--seed", "7")
        b = train(corpus, tmp_path / "b", "das", "--k", "4", "--epochs", "1", "--seed", "7")
        assert _sha(a) == _sha(b)

    def test_unknown_model_usage_error(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        res = runner.invoke(
            main, ["train", str(corpus), "--model", "svd++", "--out", str(tmp_path)]
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize("model", ["top", "random", "bpr", "can"])
    def test_session_models_smoke(self, tmp_path, model):
        corpus = synth_sequential(tmp_path / "s")
        out = tmp_path / model
        ck_path = train(
            corpus, out, model, "--k", "4", "--epochs", "1", "--seed", "1"
        )
        ck = checkpoint.load_checkpoint(ck_path)
        assert ck.kind == model
        assert len(ck.users) == 6

    @pytest.mark.parametrize("model", ["usermean", "itemmean", "apar"])
    def test_rating_models_smoke(self, tmp_path, model):
        corpus, _ = synth_personality(tmp_path / "s", upc=4, ipc=3)
        out = tmp_path / model
        ck_path = train(
            corpus, out, model, "--k", "2", "--epochs", "40", "--seed", "1"
        )
        ck = checkpoint.load_checkpoint(ck_path)
        assert ck.kind == model

    def test_config_file_and_flag_precedence(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults for this experiment\nepochs = 3\n[train]\nk = 4\n")
        out1 = tmp_path / "file-only"
        train(corpus, out1, "das", "--config", str(cfg), "--seed", "2")
        with open(out1 / "das_trace.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 3  # epochs from file

        out2 = tmp_path / "flag-wins"
        train(corpus, out2, "das", "--config", str(cfg), "--seed", "2", "--epochs", "1")
        with open(out2 / "das_trace.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 1  # flag overrides file
        man = json.loads((out2 / "train_manifest.json").read_text())
        assert man["config"]["k"] == 4  # file still supplies what flags omit


class TestEval:
    def _report_rows(self, out):
        with open(out / "report.csv") as fh:
            return list(csv.reader(fh))

    def test_cutoff_rows_and_header(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        out = tmp_path / "e"
        res = runner.invoke(
            main,
            ["eval", str(ck), str(corpus), "--cutoffs", "2,5", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        rows = self._report_rows(out)
        assert rows[0] == ["model", "split", "metric", "cutoff", "value"]
        got = [(r[2], r[3]) for r in rows[1:]]
        assert ("precision", "2") in got and ("precision", "5") in got
        assert ("recall", "2") in got and ("recall", "5") in got
        assert ("auc", "") in got
        assert (out / "report.txt").exists()
        assert "precision@2" in res.output

    def test_rerun_writes_identical_report_txt(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        texts = []
        for out in (tmp_path / "e1", tmp_path / "e2"):
            res = runner.invoke(main, ["eval", str(ck), str(corpus), "--out", str(out)])
            assert res.exit_code == 0, res.output
            texts.append((out / "report.txt").read_bytes())
        assert texts[0] == texts[1]
        assert b"time=" not in texts[0]

    def test_metrics_filter_and_k_shorthand(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        out = tmp_path / "e"
        res = runner.invoke(
            main,
            [
                "eval", str(ck), str(corpus), "--metrics", "mcan", "--k", "5",
                "--include-context", "--out", str(out),
            ],
        )
        assert res.exit_code == 0, res.output
        rows = self._report_rows(out)[1:]
        assert [(r[2], r[3]) for r in rows] == [("mcan", "5")]

    def test_random_auc_near_half(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s", users=20, spu=6, items=25, slen=5,
                                  noise=1.0, seed=5)
        ck = train(corpus, tmp_path / "t", "random", "--seed", "5")
        out = tmp_path / "e"
        res = runner.invoke(
            main,
            ["eval", str(ck), str(corpus), "--cutoffs", "5", "--seed", "5",
             "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        rows = self._report_rows(out)
        auc = [float(r[4]) for r in rows[1:] if r[2] == "auc"][0]
        assert 0.4 < auc < 0.6

    def test_rating_model_reports_mae_rmse(self, tmp_path):
        corpus, _ = synth_personality(tmp_path / "s", upc=4, ipc=3)
        ck = train(corpus, tmp_path / "t", "usermean")
        out = tmp_path / "e"
        res = runner.invoke(main, ["eval", str(ck), str(corpus), "--out", str(out)])
        assert res.exit_code == 0, res.output
        metrics_present = {r[2] for r in self._report_rows(out)[1:]}
        assert metrics_present == {"mae", "rmse"}

    def test_index_map_mismatch_names_both_hashes(self, tmp_path):
        corpus_a = synth_sequential(tmp_path / "a", seed=1)
        corpus_b = synth_sequential(tmp_path / "b", seed=2, users=7)
        ck = train(corpus_a, tmp_path / "t", "top")
        res = runner.invoke(
            main, ["eval", str(ck), str(corpus_b), "--out", str(tmp_path / "e")]
        )
        assert res.exit_code == 1
        err = res.output + res.stderr
        hashes = set(re.findall(r"[0-9a-f]{64}", err))
        assert len(hashes) == 2  # checkpoint's and the dataset's


class TestRecommend:
    def test_exact_n_lines_sorted(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        res = runner.invoke(
            main, ["recommend", str(ck), str(corpus), "--user", "u000", "-n", "3"]
        )
        assert res.exit_code == 0, res.output
        lines = _lines(res.stdout)
        assert len(lines) == 3
        scores = []
        for rank, line in enumerate(lines, start=1):
            r, item, score = line.split(",")
            assert int(r) == rank
            assert item.startswith("i")
            scores.append(float(score))
        assert scores == sorted(scores, reverse=True)

    def test_overlong_n_clamped_with_warning(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s", items=9)
        ck = train(corpus, tmp_path / "t", "top")
        res = runner.invoke(
            main, ["recommend", str(ck), str(corpus), "--user", "u000", "-n", "999"]
        )
        assert res.exit_code == 0, res.output
        assert len(_lines(res.stdout)) == 9
        assert "9" in res.stderr  # warning mentions actual catalog size

    def test_unknown_user_fails(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        res = runner.invoke(
            main, ["recommend", str(ck), str(corpus), "--user", "nobody", "-n", "3"]
        )
        assert res.exit_code == 1
        assert "nobody" in (res.output + res.stderr)

    def test_rating_checkpoint_recommends_by_predicted_rating(self, tmp_path):
        corpus, _ = synth_personality(tmp_path / "s", upc=4, ipc=3)
        ck = train(corpus, tmp_path / "t", "itemmean")
        ckpt = checkpoint.load_checkpoint(ck)
        user = ckpt.users[0]
        res = runner.invoke(
            main, ["recommend", str(ck), str(corpus), "--user", user, "-n", "2"]
        )
        assert res.exit_code == 0, res.output
        assert len(_lines(res.stdout)) == 2
