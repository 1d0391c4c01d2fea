import csv
import errno
import hashlib
import io
import json
import os
import re
import threading
import time

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import oracles
from recsuite import (apar, baselines, can, checkpoint, cli, container, das, data, metrics,
                      personality)
from recsuite.cli import _load_config_file, main
from recsuite.numeric import make_rng

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


class TestUnreadableInput:
    """Inputs the readers reject end the command with a message, not a traceback."""

    def _fails_cleanly(self, res, *fragments):
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        for fragment in fragments:
            assert fragment in res.stderr

    def test_cell_past_the_csv_field_limit(self, tmp_path):
        corpus, _ = synth_personality(tmp_path / "s", upc=4, ipc=3)
        ck = train(corpus, tmp_path / "t", "usermean")
        big = tmp_path / "big.csv"
        big.write_text(corpus.read_text() + f"c0_u000,c0_i000,9,rate,4,{'x' * 140_000},1\n")
        line = len(corpus.read_text().splitlines()) + 1
        for args in (["recommend", str(ck), str(big), "--user", "c0_u000"],
                     ["profile", str(big), "--out", str(tmp_path / "p")]):
            self._fails_cleanly(runner.invoke(main, args),
                                f"big.csv:{line}: field larger than field limit")

    def test_config_file_not_utf8(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs = 1\n# caf\xe9\n")
        res = runner.invoke(main, ["train", str(corpus), "--model", "top",
                                   "--config", str(cfg), "--out", str(tmp_path / "t")])
        self._fails_cleanly(res, "run.cfg: not UTF-8 text")

    @pytest.mark.parametrize("damage", ["truncated", "without Wout", "a corpus CSV"])
    def test_damaged_checkpoint(self, tmp_path, damage):
        corpus = synth_sequential(tmp_path / "s", items=20)
        ck = train(corpus, tmp_path / "t", "das", "--k", "4", "--epochs", "1")
        bad = tmp_path / "bad.npz"
        if damage == "truncated":
            bad.write_bytes(ck.read_bytes()[:3000])
        elif damage == "a corpus CSV":
            bad.write_bytes(corpus.read_bytes())
        else:
            with open(ck, "rb") as fh:
                members, _ = container.read(fh)
            container.write(bad, {k: a for k, a in members.items() if k != "Wout"})
        out = tmp_path / "e"
        for args in (["eval", str(bad), str(corpus), "--out", str(out)],
                     ["recommend", str(bad), str(corpus), "--user", "u000"]):
            res = runner.invoke(main, args)
            self._fails_cleanly(res, f"{bad}: ")
            assert "Traceback" not in res.output
            # numpy reads a file without a zip signature as a pickle, and its
            # advice to load it unsafely must not reach the user
            assert "allow_pickle" not in res.stderr and "unsafely" not in res.stderr
        assert not (out / "report.csv").exists()

    def test_npz_checkpoint_of_an_older_format_is_refused_by_name(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s", items=20)
        ck = train(corpus, tmp_path / "t", "top")
        with open(ck, "rb") as fh:
            members, _ = container.read(fh)
        meta = {**json.loads(members["__meta__"].tobytes()), "format_version": 5}
        old = tmp_path / "old.npz"
        np.savez(old, **{**members, "__meta__": np.array(json.dumps(meta))})
        out = tmp_path / "e"
        for args in (["eval", str(old), str(corpus), "--out", str(out)],
                     ["recommend", str(old), str(corpus), "--user", "u000"]):
            res = runner.invoke(main, args)
            self._fails_cleanly(res, f"{old}: an .npz checkpoint of format 5 or earlier; "
                                     "this build reads format 7; retrain")
            assert "Traceback" not in res.output
            assert "allow_pickle" not in res.stderr and "unsafely" not in res.stderr
        assert not out.exists()

    def test_format_6_checkpoint_is_refused_naming_both_versions(self, tmp_path):
        # as the format-6 writer stored it: the metadata without the token
        # lists, and it and the lists as numpy strings
        corpus = synth_sequential(tmp_path / "s", items=20)
        ck = train(corpus, tmp_path / "t", "das", "--k", "4", "--epochs", "1")
        with open(ck, "rb") as fh:
            members, _ = container.read(fh)
        meta = {**json.loads(members.pop("__meta__").tobytes()), "format_version": 6}
        users, items = meta.pop("users"), meta.pop("items")
        old = tmp_path / "v6.npz"
        container.write(old, {"__meta__": np.array(json.dumps(meta, sort_keys=True)),
                              "__users__": np.array(users), "__items__": np.array(items),
                              **members})
        out = tmp_path / "e"
        for args in (["eval", str(old), str(corpus), "--out", str(out)],
                     ["recommend", str(old), str(corpus), "--user", "u000"]):
            res = runner.invoke(main, args)
            self._fails_cleanly(res, f"{old}: checkpoint format version 6 is not supported "
                                     "(this build reads version 7)")
            assert "Traceback" not in res.output
        assert not out.exists()


class TestUnwritableOutput:
    """An output the command cannot write ends it with one `Error:` line
    naming the path, exit 1, not a traceback."""

    def _fails_naming(self, args, path):
        res = runner.invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        assert res.stderr == f"Error: {path}: Is a directory\n"
        return res

    def _blocked(self, path):
        """Put a directory, with a file in it, where the output `path` goes."""
        (path / "kept").mkdir(parents=True)
        return path

    def test_synth(self, tmp_path):
        path = self._blocked(tmp_path / "s" / "corpus.csv")
        self._fails_naming(["synth", "--out", str(tmp_path / "s")], path)

    def test_ingest(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        path = self._blocked(tmp_path / "i" / "interactions.csv")
        self._fails_naming(["ingest", str(corpus), "--out", str(tmp_path / "i")], path)

    def test_profile(self, tmp_path):
        corpus, _ = synth_personality(tmp_path / "s")
        path = self._blocked(tmp_path / "p" / "profiles.csv")
        self._fails_naming(["profile", str(corpus), "--out", str(tmp_path / "p")], path)

    def test_train(self, tmp_path, monkeypatch):
        corpus = synth_sequential(tmp_path / "s")
        out = tmp_path / "t"
        path = self._blocked(out / "top.npz")
        self._fails_naming(["train", str(corpus), "--model", "top", "--out", str(out)], path)
        assert os.listdir(out) == ["top.npz"] and os.listdir(path) == ["kept"]
        # a write that fails midway names the output directory, and the old
        # checkpoint stays whole
        path.joinpath("kept").rmdir()
        path.rmdir()
        old = train(corpus, out, "top").read_bytes()

        class Full(io.FileIO):
            def write(self, b):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(container, "open", raising=False, value=lambda p, mode: (
            Full if p.startswith(str(path)) else io.FileIO)(p, mode.replace("b", "")))
        res = runner.invoke(main, ["train", str(corpus), "--model", "top", "--out", str(out)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.output
        assert res.stderr == f"Error: {out}: No space left on device\n"
        assert path.read_bytes() == old
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]

    def test_eval(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        path = self._blocked(tmp_path / "e" / "report.csv")
        self._fails_naming(["eval", str(ck), str(corpus), "--out", str(tmp_path / "e")], path)
        assert sorted(os.listdir(tmp_path / "e")) == ["report.csv"]

    def test_recommend(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        path = self._blocked(tmp_path / "r" / "recommend_manifest.json")
        res = self._fails_naming(["recommend", str(ck), str(corpus), "--user", "u000",
                                  "--out", str(tmp_path / "r")], path)
        assert len(_lines(res.stdout)) == 10  # the listing is printed before the manifest


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

    def test_personality_clusters_csv_is_the_planted_array(self, tmp_path):
        # six clusters, so the sixth's trait wraps around to the first
        synth_personality(tmp_path, clusters=6, upc=3, ipc=2, seed=4)
        corpus, cluster = data.synth_personality_clusters(6, 3, 2, rng=make_rng(4))
        with open(tmp_path / "clusters.csv", newline="", encoding="utf-8") as fh:
            rows = [(r["user"], int(r["cluster"]), r["trait"]) for r in csv.DictReader(fh)]
        assert rows == [(user, c, data.TRAITS[c % len(data.TRAITS)])
                        for user, c in zip(corpus.users, cluster.tolist())]
        assert rows[-1][1:] == (5, "O")

    def test_unknown_kind_usage_error(self, tmp_path):
        res = runner.invoke(main, ["synth", "--kind", "nope", "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flags, named", [
        (["--users", "0"], "--users"),
        (["--items", "-3"], "--items"),
        (["--kind", "personality", "--clusters", "1"], "--clusters"),
        (["--noise", "nan"], "--noise"),
        (["--noise", "inf"], "--noise"),
        (["--kind", "personality", "--rating-density", "nan"], "--rating-density"),
        (["--kind", "personality", "--rating-density", "-inf"], "--rating-density"),
    ])
    def test_out_of_range_size_is_usage_error(self, tmp_path, flags, named):
        res = runner.invoke(main, ["synth", *flags, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert f"Invalid value for '{named}'" in res.output
        assert not (tmp_path / "o").exists()

    def test_manifest_written(self, tmp_path):
        synth_sequential(tmp_path, seed=4)
        man = json.loads((tmp_path / "synth_manifest.json").read_text())
        assert man["command"] == "synth"
        assert man["seed"] == 4
        assert man["version"]

    def test_manifest_records_numpy_threads_and_cores(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        synth_sequential(tmp_path, seed=4)
        man = json.loads((tmp_path / "synth_manifest.json").read_text())
        assert man["numpy"] == np.__version__
        assert man["threads"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
                                  "MKL_NUM_THREADS": None}
        assert man["cpu_count"] == os.cpu_count()


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

    def test_unknown_logical_column_fails(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("uid,item,timestamp\nu1,i1,2020-01-01\n")
        res = runner.invoke(main, ["ingest", str(raw), "--out", str(tmp_path / "o"),
                                   "--column", "usr=uid"])
        assert res.exit_code == 1
        assert "unknown logical column 'usr'" in res.output
        assert "user, item, timestamp, action, rating, review, helpful" in res.output

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
        raw.write_text("user,item,timestamp,action\nu1,,2020-01-01,view\n\n"
                       "u1,a,x,view\nu1,a,-1,view\nu1,a,1,teleport\n")
        res = runner.invoke(main, ["ingest", str(raw), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "no valid interaction rows" in res.output
        assert [line for line in res.stderr.splitlines() if line.startswith("row ")] == [
            "row 2: empty item id", "row 4: unparseable timestamp 'x'",
            "row 5: negative timestamp", "row 6: unknown action 'teleport'",
        ]


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

    @pytest.mark.parametrize("kind", ["sequential", "personality"])
    def test_weights_naming_an_unknown_category_fail_with_or_without_text(
            self, tmp_path, kind):
        # the sequential corpus has no review text, so no user is ever scored
        corpus = (synth_sequential(tmp_path / "s") if kind == "sequential"
                  else synth_personality(tmp_path / "s")[0])
        weights = tmp_path / "w.txt"
        weights.write_text("O nosuchcat 1\n")
        out = tmp_path / "p"
        res = runner.invoke(main, ["profile", str(corpus), "--weights", str(weights),
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert "weights reference unknown category 'nosuchcat'" in res.output
        assert not (out / "profiles.csv").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf", "1e400", "abc"])
    def test_a_weight_that_is_no_finite_number_is_named_by_line(self, tmp_path, weight):
        corpus, _ = synth_personality(tmp_path / "s")
        weights = tmp_path / "w.txt"
        weights.write_text(f"# weights\nC achievement 1\nO anger {weight}\n")
        out = tmp_path / "p"
        res = runner.invoke(main, ["profile", str(corpus), "--weights", str(weights),
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert f"weights line 3: weight {weight!r} is not a finite number" in res.output
        assert "Traceback" not in res.output and not isinstance(res.exception, AssertionError)
        assert not (out / "profiles.csv").exists()


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

    def test_piped_corpus_records_no_digest(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        fifo = tmp_path / "corpus.pipe"
        os.mkfifo(fifo)
        done = threading.Event()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(corpus.read_bytes())
            # a second reader of the pipe would block for ever; give it an
            # empty read instead, so a re-read fails the test and does not hang
            while not done.is_set():
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    time.sleep(0.01)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            train(fifo, tmp_path / "t", "top")
        finally:
            done.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        man = json.loads((tmp_path / "t" / "train_manifest.json").read_text())
        assert man["inputs"] == {str(fifo): None}
        assert not os.path.exists(str(fifo) + data.SIDECAR_SUFFIX)

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


class TestConfigFile:
    """A --config file supplies click's defaults: flag > [command] > bare key > default."""

    LAYERS = ("", "users = 3\n", "users = 3\n[synth]\nusers = 4\n")

    def _config(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return str(cfg)

    def _manifest(self, out, command):
        return json.loads((out / f"{command}_manifest.json").read_text())["config"]

    @pytest.mark.parametrize("text, flags, users", [
        (LAYERS[0], [], 20),
        (LAYERS[1], [], 3),
        (LAYERS[2], [], 4),
        (LAYERS[2], ["--users", "5"], 5),
    ])
    def test_synth_users_precedence(self, tmp_path, text, flags, users):
        out = tmp_path / "s"
        res = runner.invoke(main, ["synth", "--config", self._config(tmp_path, text),
                                   "--items", "6", "--sessions-per-user", "1",
                                   *flags, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert self._manifest(out, "synth")["users"] == users

    @pytest.mark.parametrize("text, flags, cutoffs", [
        ("", [], [5, 10, 20]),
        ("cutoffs = 2\n", [], [2]),
        ("cutoffs = 2\n[eval_cmd]\ncutoffs = 7\n[eval]\ncutoffs = 3\n", [], [3]),
        ("cutoffs = 2\n[eval]\ncutoffs = 3\n", ["--cutoffs", "4"], [4]),
        ("auc-negatives = sampled-100\n", [], [5, 10, 20]),  # a deleted flag is ignored
    ])
    def test_eval_cutoffs_precedence(self, tmp_path, text, flags, cutoffs):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        out = tmp_path / "e"
        res = runner.invoke(main, ["eval", str(ck), str(corpus), *flags, "--out", str(out),
                                   "--config", self._config(tmp_path, text)])
        assert res.exit_code == 0, res.output
        assert self._manifest(out, "eval")["cutoffs"] == cutoffs
        assert "auc_negatives" not in self._manifest(out, "eval")

    def test_bare_k_reaches_train_only(self, tmp_path):
        # `k` is train's latent width; eval names its cutoffs --cutoffs
        corpus = synth_sequential(tmp_path / "s")
        cfg = self._config(tmp_path, "k = 4\n")
        train(corpus, tmp_path / "t", "das", "--epochs", "1", "--config", cfg)
        assert self._manifest(tmp_path / "t", "train")["k"] == 4
        out = tmp_path / "e"
        res = runner.invoke(main, ["eval", str(tmp_path / "t" / "das.npz"), str(corpus),
                                   "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert self._manifest(out, "eval")["cutoffs"] == [5, 10, 20]
        assert "recall@4" not in res.output

    def test_config_after_the_flags_it_fills(self, tmp_path):
        text = "out = {}\nsessions-per-user = 2\nsession_len = 3\n".format(tmp_path / "s")
        res = runner.invoke(main, ["synth", "--users", "2", "--config",
                                   self._config(tmp_path, text)])
        assert res.exit_code == 0, res.output
        cfg = self._manifest(tmp_path / "s", "synth")
        assert (cfg["users"], cfg["sessions_per_user"], cfg["session_len"]) == (2, 2, 3)

    @pytest.mark.parametrize("word, included", [("yes", True), ("off", False)])
    def test_boolean_words(self, tmp_path, word, included):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        cfg = self._config(tmp_path, f"[eval]\ninclude_context = {word}\n")
        res = runner.invoke(main, ["eval", str(ck), str(corpus), "--config", cfg,
                                   "--out", str(tmp_path / "e")])
        assert res.exit_code == 0, res.output
        assert self._manifest(tmp_path / "e", "eval")["exclude_context"] is not included

    def test_bad_value_names_the_flag(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        res = runner.invoke(main, ["train", str(corpus), "--model", "top",
                                   "--config", self._config(tmp_path, "k = abc\n"),
                                   "--out", str(tmp_path / "t")])
        assert res.exit_code == 2
        assert "Invalid value for '--k'" in res.output

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unknown_split_policy_names_the_flag(self, tmp_path, command):
        corpus = synth_sequential(tmp_path / "s", users=3, spu=2, items=6)
        paths = [str(corpus)] * (2 if command == "eval" else 1)
        model = ["--model", "usermean"] if command == "train" else []
        res = runner.invoke(main, [command, *paths, *model, "--config",
                                   self._config(tmp_path, "split-policy = bogus\n"),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--split-policy'" in res.output
        assert not (tmp_path / "o").exists()

    def test_repeatable_option_in_file_is_rejected(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        res = runner.invoke(main, ["ingest", str(corpus), "--out", str(tmp_path / "o"),
                                   "--config", self._config(tmp_path, "column = user=user\n")])
        assert res.exit_code == 2
        assert "Value must be an iterable" in res.output

    def test_unknown_key_is_ignored(self, tmp_path):
        out = tmp_path / "s"
        text = "no_such_option = 1\n[synth]\nsection-nobody-reads = x\nusers = 2\n"
        res = runner.invoke(main, ["synth", "--config", self._config(tmp_path, text),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert self._manifest(out, "synth")["users"] == 2


@given(st.text(st.characters(codec="utf-8")))
def test_load_config_file_parses_or_names_the_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "any.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        values = _load_config_file(path)
    except click.ClickException as exc:
        assert re.match(re.escape(str(path)) + r":\d+: ", exc.message)
    else:
        assert "" in values
        for section in values.values():
            assert all(isinstance(v, str) and "-" not in k for k, v in section.items())


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

    def test_metrics_filter_and_single_cutoff(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        out = tmp_path / "e"
        res = runner.invoke(
            main,
            [
                "eval", str(ck), str(corpus), "--metrics", "mcan", "--cutoffs", "5",
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

    def test_index_map_mismatch_names_the_differing_list(self, tmp_path):
        corpus_a = synth_sequential(tmp_path / "a", seed=1)
        corpus_b = synth_sequential(tmp_path / "b", seed=2, users=7)
        ck = train(corpus_a, tmp_path / "t", "top")
        res = runner.invoke(
            main, ["eval", str(ck), str(corpus_b), "--out", str(tmp_path / "e")]
        )
        assert res.exit_code == 1
        assert ("user list (6 tokens) differs from the corpus's (7 tokens) "
                "first at position 6") in res.stderr
        assert "Traceback" not in res.output

    def test_split_warnings_reach_stderr(self, tmp_path):
        # u2's only session holds one item, so it cannot be a test session
        corpus = tmp_path / "c.csv"
        corpus.write_text("user,item,timestamp,action\n" + "".join(
            f"{u},{i},{t},view\n" for u, i, t in [
                ("u0", "a", 0), ("u0", "b", 1), ("u0", "c", 86400), ("u0", "a", 86401),
                ("u1", "b", 0), ("u1", "c", 1), ("u1", "a", 86400), ("u1", "b", 86401),
                ("u2", "c", 0)]))
        warning = "split: user u2: single one-item session, excluded from test"
        res = runner.invoke(main, ["train", str(corpus), "--model", "top",
                                   "--out", str(tmp_path / "t")])
        assert res.exit_code == 0, res.output
        assert res.stderr.splitlines() == [warning]
        res = runner.invoke(main, ["eval", str(tmp_path / "t" / "top.npz"), str(corpus),
                                   "--out", str(tmp_path / "e")])
        assert res.exit_code == 0, res.output
        assert warning in res.stderr.splitlines()

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_context_covering_the_catalog_fails_its_instance(self, tmp_path, seed):
        # u1 views a, b on day 0 and a, b, c, a on day 1; at these seeds the
        # held-out item leaves a context with all three items
        corpus = tmp_path / "c.csv"
        corpus.write_text("user,item,timestamp,action\n" + "".join(
            f"u1,{i},{t},view\n" for i, t in [
                ("a", 0), ("b", 1), ("a", 86400), ("b", 86401), ("c", 86402), ("a", 86403)]))
        ck = train(corpus, tmp_path / "t", "top", "--seed", str(seed))
        res = runner.invoke(main, ["eval", str(ck), str(corpus), "--seed", str(seed),
                                   "--out", str(tmp_path / "e")])
        assert res.exit_code == 1
        assert "no test instance was scored" in res.stderr
        assert "no item left to rank once its context is dropped" in res.stderr
        assert "Traceback" not in res.output
        assert not (tmp_path / "e" / "report.csv").exists()


    def test_failures_are_counted_by_cause_on_stderr(self, tmp_path, monkeypatch):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        score_batch = baselines.TopScorer.score_batch

        def one_too_many_for_even_users(self, users, longs, shorts):
            rows = score_batch(self, users, longs, shorts)
            even = any(u % 2 == 0 for u in users)
            return np.zeros((len(users), rows.shape[1] + 1)) if even else rows

        monkeypatch.setattr(baselines.TopScorer, "score_batch", one_too_many_for_even_users)
        res = runner.invoke(main, ["eval", str(ck), str(corpus), "--out", str(tmp_path / "e")])
        assert res.exit_code == 0, res.output
        failed = [ln for ln in res.stderr.splitlines() if ln.startswith("instance failed: ")]
        assert failed and all("expected (12,)" in ln for ln in failed)
        total = len(failed) + int(re.search(r"instances=(\d+)", res.stdout).group(1))
        assert f"{len(failed)} of {total} instances failed: wrong score length" in res.stderr

    def test_every_instance_failing_exits_nonzero(self, tmp_path, monkeypatch):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")

        def one_score_too_many(self, users, longs, shorts):
            return np.zeros((len(users), self.counts.size + 1))

        # a data error for every instance, recorded per instance
        monkeypatch.setattr(baselines.TopScorer, "score_batch", one_score_too_many)
        out = tmp_path / "e"
        res = runner.invoke(main, ["eval", str(ck), str(corpus), "--out", str(out)])
        assert res.exit_code == 1
        assert "no test instance was scored" in res.output
        assert "expected (12,)" in res.output
        assert not (out / "report.csv").exists()

        # a checkpoint with one count too many does not get that far
        loaded = checkpoint.load_checkpoint(ck)
        loaded.state.counts = np.append(loaded.state.counts, 0.0)
        checkpoint.save_checkpoint(ck, loaded.state, loaded.users, loaded.items)
        with pytest.raises(ValueError, match=r"counts has shape \(13,\), expected \(12,\)"):
            checkpoint.load_checkpoint(ck)


@pytest.mark.parametrize("command, flags, named", [
    ("train", ["--model", "bpr", "--k", "0"], "--k"),
    ("train", ["--model", "das", "--epochs", "-1"], "--epochs"),
    ("train", ["--model", "das", "--lr", "-1"], "--lr"),
    ("train", ["--model", "bpr", "--lr", "0"], "--lr"),
    ("train", ["--model", "das", "--batch", "0"], "--batch"),
    ("train", ["--model", "can", "--dropout", "1"], "--dropout"),
    ("train", ["--model", "bpr", "--l2", "-0.5"], "--l2"),
    ("train", ["--model", "das", "--lam-uv", "-1"], "--lam-uv"),
    ("train", ["--model", "can", "--lam-at", "-1"], "--lam-at"),
    ("train", ["--model", "apar", "--lam", "-5"], "--lam"),
    ("train", ["--model", "apar", "--alpha1", "-3"], "--alpha1"),
    ("train", ["--model", "apar", "--alpha2", "-3"], "--alpha2"),
    ("train", ["--model", "apar", "--gamma", "3"], "--gamma"),
    ("train", ["--model", "apar", "--test-fraction", "1.5"], "--test-fraction"),
    ("eval", ["--cutoffs", "0"], "--cutoffs"),
    ("eval", ["--cutoffs", "5,-3"], "--cutoffs"),
    ("eval", ["--cutoffs", ","], "--cutoffs"),
    ("eval", ["--test-fraction", "1.5"], "--test-fraction"),
    ("eval", ["--test-fraction", "-1"], "--test-fraction"),
    ("train", ["--model", "usermean", "--split-policy", "bogus"], "--split-policy"),
    ("eval", ["--split-policy", "bogus"], "--split-policy"),
    # no float option takes NaN or an infinity
    ("train", ["--model", "usermean", "--test-fraction", "nan"], "--test-fraction"),
    ("train", ["--model", "apar", "--beta", "nan"], "--beta"),
    ("train", ["--model", "apar", "--beta", "inf"], "--beta"),
    ("train", ["--model", "apar", "--beta", "-inf"], "--beta"),
    ("train", ["--model", "apar", "--alpha1", "inf"], "--alpha1"),
    ("train", ["--model", "apar", "--alpha2", "nan"], "--alpha2"),
    ("train", ["--model", "apar", "--lam", "inf"], "--lam"),
    ("train", ["--model", "apar", "--gamma", "nan"], "--gamma"),
    ("train", ["--model", "das", "--lr", "nan"], "--lr"),
    ("train", ["--model", "das", "--lr", "inf"], "--lr"),
    ("train", ["--model", "bpr", "--l2", "nan"], "--l2"),
    ("train", ["--model", "das", "--lam-uv", "inf"], "--lam-uv"),
    ("train", ["--model", "can", "--lam-at", "nan"], "--lam-at"),
    ("train", ["--model", "can", "--dropout", "nan"], "--dropout"),
    ("eval", ["--test-fraction", "nan"], "--test-fraction"),
])
def test_out_of_range_model_flag_is_usage_error(tmp_path, command, flags, named):
    corpus = synth_sequential(tmp_path / "s", users=3, spu=2, items=6)
    # eval rejects the flag before it reads the checkpoint argument
    paths = [str(corpus)] * (2 if command == "eval" else 1)
    res = runner.invoke(main, [command, *paths, *flags, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{named}'" in res.output
    assert not (tmp_path / "o").exists()


def _split_corpus(tmp_path, model):
    """A corpus `model` can train and evaluate on: rated rows or sessions."""
    if model == "usermean":
        return synth_personality(tmp_path / "s", upc=4, ipc=3)[0]
    return synth_sequential(tmp_path / "s")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("model, flag, value", [
    ("usermean", "--split-policy", "last-week"),
    ("top", "--test-fraction", "0.3"),
])
def test_split_flag_the_model_never_reads_is_usage_error(tmp_path, command, model, flag,
                                                          value):
    corpus = _split_corpus(tmp_path, model)
    if command == "train":
        args = ["train", str(corpus), "--model", model]
    else:
        args = ["eval", str(train(corpus, tmp_path / "t", model)), str(corpus)]
    res = runner.invoke(main, [*args, flag, value, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"{flag} does not apply to {model}" in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model, line, read", [
    ("usermean", "split-policy = last-week", {"test_fraction": 0.2}),
    ("top", "test-fraction = 0.3", {"split_policy": "random-80-20"}),
])
def test_split_key_the_model_never_reads_is_ignored_from_a_config_file(tmp_path, model,
                                                                      line, read):
    corpus = _split_corpus(tmp_path, model)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    train(corpus, tmp_path / "t", model, "--config", str(cfg))
    res = runner.invoke(main, ["eval", str(tmp_path / "t" / f"{model}.npz"), str(corpus),
                               "--config", str(cfg), "--out", str(tmp_path / "e")])
    assert res.exit_code == 0, res.output
    for out, command in ((tmp_path / "t", "train"), (tmp_path / "e", "eval")):
        config = json.loads((out / f"{command}_manifest.json").read_text())["config"]
        split = {k: v for k, v in config.items() if k in ("split_policy", "test_fraction")}
        assert split == read


@pytest.mark.parametrize("model, names, foreign", [
    ("top", "mae", "mae"),
    ("usermean", "recall,auc", "auc,recall"),
    ("top", "precision,rmse", "rmse"),
])
def test_metric_the_model_is_not_reported_on_is_usage_error(tmp_path, model, names, foreign):
    corpus = _split_corpus(tmp_path, model)
    ck = train(corpus, tmp_path / "t", model)
    res = runner.invoke(main, ["eval", str(ck), str(corpus), "--metrics", names,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert f"--metrics {foreign} does not apply to {model}" in res.stderr
    assert not (tmp_path / "o").exists()


def test_metric_the_model_is_not_reported_on_is_dropped_from_a_config_file(tmp_path):
    corpus = _split_corpus(tmp_path, "top")
    ck = train(corpus, tmp_path / "t", "top")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("metrics = mae,recall\n")
    res = runner.invoke(main, ["eval", str(ck), str(corpus), "--config", str(cfg),
                               "--out", str(tmp_path / "e")])
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(open(tmp_path / "e" / "report.csv")))[1:]
    assert {r[2] for r in rows} == {"recall"}
    config = json.loads((tmp_path / "e" / "eval_manifest.json").read_text())["config"]
    assert config["metrics"] == ["recall"]


@pytest.mark.parametrize("model, line", [
    ("top", "metrics = mae"),
    ("usermean", "metrics = recall,auc"),
])
def test_metrics_that_leave_no_row_write_no_report(tmp_path, model, line):
    corpus = _split_corpus(tmp_path, model)
    ck = train(corpus, tmp_path / "t", model)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    res = runner.invoke(main, ["eval", str(ck), str(corpus), "--config", str(cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1, res.output
    assert "leaves no row to report" in res.stderr
    assert not (tmp_path / "o").exists()


def test_short_catalog_counts_short_rankings_without_a_python_warning(tmp_path):
    # 3 users, 3 items: a test session of two items leaves two to rank
    corpus = tmp_path / "c.csv"
    corpus.write_text("user,item,timestamp,action\n" + "".join(
        f"{u},{i},{t},view\n" for u, items in (("u1", "abbc"), ("u2", "acab"),
                                               ("u3", "bcca"))
        for i, t in zip(items, (0, 1, 86400, 86401))))
    ck = train(corpus, tmp_path / "t", "top")
    res = runner.invoke(main, ["eval", str(ck), str(corpus), "--out", str(tmp_path / "e")])
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == [
        f"1 of 1 instances ranked fewer than {k} items; their precision@{k} is over "
        "the items ranked" for k in (5, 10, 20)
    ]
    precision = {line[3]: line[4] for line in csv.reader(open(tmp_path / "e" / "report.csv"))
                 if line[2] == "precision"}
    assert precision == {"5": "0.5", "10": "0.5", "20": "0.5"}


@pytest.mark.parametrize("command", ["train", "eval"])
def test_help_lists_the_split_policies(command):
    res = runner.invoke(main, [command, "--help"])
    assert res.exit_code == 0, res.output
    assert "[random-80-20|last-week]" in res.output


@pytest.mark.parametrize("command", ["eval", "recommend"])
def test_manifest_records_the_checkpoint_as_it_was_loaded(tmp_path, monkeypatch, command):
    # the file is replaced right after it is loaded: the manifest names the
    # bytes that were scored, and the checkpoint is not read a second time
    corpus = synth_sequential(tmp_path / "s")
    ck = train(corpus, tmp_path / "t", "top")
    loaded = ck.read_bytes()
    other = train(corpus, tmp_path / "u", "top", "--seed", "5")
    assert other.read_bytes() != loaded
    load = checkpoint.load_checkpoint

    def load_then_replace(path):
        got = load(path)
        os.replace(other, path)
        return got

    monkeypatch.setattr(checkpoint, "load_checkpoint", load_then_replace)
    hashed = []
    sha256_file = cli._sha256_file
    monkeypatch.setattr(cli, "_sha256_file", lambda p: hashed.append(p) or sha256_file(p))
    args = {"eval": [], "recommend": ["--user", "u000"]}[command]
    res = runner.invoke(main, [command, str(ck), str(corpus), *args, "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    man = json.loads((tmp_path / "o" / f"{command}_manifest.json").read_text())
    assert man["inputs"][str(ck)] == hashlib.sha256(loaded).hexdigest()
    assert str(ck) not in map(str, hashed)


def test_recommend_without_out_hashes_no_checkpoint(tmp_path, monkeypatch):
    corpus = synth_sequential(tmp_path / "s")
    ck = train(corpus, tmp_path / "t", "top")

    def refuse(self):
        raise AssertionError("the checkpoint was hashed")

    monkeypatch.setattr(checkpoint.Checkpoint, "sha256", refuse)
    res = runner.invoke(main, ["recommend", str(ck), str(corpus), "--user", "u000"])
    assert res.exit_code == 0, res.output


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

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_n_is_usage_error(self, tmp_path, n):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        res = runner.invoke(
            main, ["recommend", str(ck), str(corpus), "--user", "u000", "-n", n]
        )
        assert res.exit_code == 2
        assert not res.stdout

    def test_unknown_user_fails(self, tmp_path):
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", "top")
        res = runner.invoke(
            main, ["recommend", str(ck), str(corpus), "--user", "nobody", "-n", "3"]
        )
        assert res.exit_code == 1
        assert "nobody" in (res.output + res.stderr)

    @pytest.mark.parametrize("model", ["das", "can"])
    def test_sequential_listing_scores_what_evaluate_would(self, tmp_path, model):
        # the last session is the context and the user's earlier days the
        # long-term list, built as evaluate builds it for a test instance
        corpus = synth_sequential(tmp_path / "s")
        ck = train(corpus, tmp_path / "t", model, "--k", "8", "--epochs", "1")
        res = runner.invoke(
            main, ["recommend", str(ck), str(corpus), "--user", "u000", "-n", "12"]
        )
        assert res.exit_code == 0, res.output
        ds = data.Dataset.from_interactions(data.ingest_csv(corpus)[0])
        mine = [s for s in ds.sessions if s.user == "u000"]
        last = max(mine, key=lambda s: (s.day, s.t))
        long_items = oracles.long_term_before(mine, last.day)
        assert len(mine) > 1 and long_items
        scores = checkpoint.load_checkpoint(ck).state.score_items(
            ds.user_index["u000"],
            [ds.item_index[i] for i in long_items],
            [ds.item_index[i] for i in last.items],
        )
        assert _lines(res.stdout) == [
            f"{rank},{ds.items[j]},{scores[j]:.17g}"
            for rank, j in enumerate(oracles.rank_items(scores), start=1)
        ]

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


    @pytest.mark.parametrize("model", ["usermean", "itemmean", "apar"])
    def test_rating_listing_equals_the_rating_matrix_path(self, tmp_path, model):
        # viewed-only users and items come first, two rate rows are rejected
        # (a NaN and a missing rating), and u2 rates b twice
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            "user,item,timestamp,action,rating,review\n"
            "v0,x,0,view,,\n" "u1,y,1,view,,\n"
            "u1,a,2,rate,4,great hero\n" "u2,b,3,rate,nan,\n" "u2,b,4,rate,2,\n"
            "u2,a,5,rate,3,sad\n" "u2,b,6,rate,5,friend\n" "u3,c,7,rate,,\n"
            "u3,c,8,rate,1,\n" "u3,a,9,rate,2,\n" "u1,c,10,rate,5,\n")
        ck = train(corpus, tmp_path / "t", model, "--epochs", "2")
        matrix = data.RatingMatrix.from_interactions(data.ingest_csv(corpus)[0])
        assert matrix.users == ["u1", "u2", "u3"] and matrix.items == ["a", "b", "c"]
        state = checkpoint.load_checkpoint(ck).state
        for user in matrix.users:
            u = matrix.user_index[user]
            scores = (state.score_items(u, [], []) if model == "apar" else
                      np.array([state.predict_rating(u, j) for j in range(matrix.n_items)]))
            res = runner.invoke(main, ["recommend", str(ck), str(corpus), "--user", user,
                                       "-n", "3"])
            assert res.exit_code == 0, res.output
            assert _lines(res.stdout) == [
                f"{rank},{matrix.items[j]},{scores[j]:.17g}"
                for rank, j in enumerate(oracles.rank_items(scores), start=1)
            ]
        res = runner.invoke(main, ["recommend", str(ck), str(corpus), "--user", "v0"])
        assert res.exit_code == 1 and "unknown user 'v0'" in res.stderr


# What the library alone does for each model kind that `train` names: the
# corpus it is fitted on, its train flags, and its state from the corpus, the
# training data (the training ratings of a rating model, the (dataset, split)
# of a ranking one) and the seed, built with the config those flags set.
LIBRARY = {
    "apar": ("personality", ["--k", "2", "--epochs", "20"], lambda corpus, train, seed:
             apar.fit_ratings(
                 train,
                 # the demo lexicon and weights, as `train` uses today, not the
                 # profiles the `profile` command writes (ROADMAP item 3)
                 personality.trait_groups(corpus, personality.profile_all(
                     corpus, personality.DEMO_LEXICON, personality.DEMO_WEIGHTS), train.users),
                 personality.knowledge_levels(corpus, train.users),
                 apar.AparConfig(d=2, max_iters=20, seed=seed))),
    "das": ("sequential", ["--k", "4", "--epochs", "2"], lambda corpus, fit, seed:
            das.train_das(fit[1], fit[0], das.DasConfig(k=4, epochs=2, seed=seed))),
    "can": ("sequential", ["--k", "4", "--epochs", "1"], lambda corpus, fit, seed:
            can.train_can(fit[1], fit[0], can.CanConfig(D=4, D_u=4, N_f=4, D_p=4, D_q=4,
                                                        epochs=1, seed=seed))),
    "top": ("sequential", [], lambda corpus, fit, seed:
            baselines.top_scorer(fit[1].train, fit[0].n_items)),
    "random": ("sequential", [], lambda corpus, fit, seed:
               baselines.RandomScorer(fit[0].n_items, seed)),
    "usermean": ("personality", [], lambda corpus, train, seed: baselines.user_mean(train)),
    "itemmean": ("personality", [], lambda corpus, train, seed: baselines.item_mean(train)),
    "bpr": ("sequential", ["--k", "4", "--epochs", "2"], lambda corpus, fit, seed:
            baselines.train_bpr(fit[1], fit[0], baselines.BprConfig(d=4, epochs=2, seed=seed))),
}


@pytest.mark.parametrize("model", list(checkpoint.KINDS))
def test_cli_report_equals_the_library_report(tmp_path, model):
    # a kind `train` names with no entry above fails here
    corpus_kind, flags, fit_state = LIBRARY[model]
    seed = 2
    path = (synth_personality(tmp_path / "s", upc=4, ipc=3)[0] if corpus_kind == "personality"
            else synth_sequential(tmp_path / "s"))
    ck = train(path, tmp_path / "t", model, *flags, "--seed", str(seed))
    res = runner.invoke(main, ["eval", str(ck), str(path), "--seed", str(seed),
                               "--out", str(tmp_path / "e")])
    assert res.exit_code == 0, res.output

    corpus = data.ingest_csv(path)[0]
    if corpus_kind == "personality":
        ratings = data.RatingMatrix.from_interactions(corpus)
        fit, test = data.split_ratings(ratings, 0.2, make_rng(seed))
        report = metrics.evaluate_ratings(fit_state(corpus, fit, seed), test, model)
    else:
        ds = data.Dataset.from_interactions(corpus)
        sp = data.split(ds.sessions, "random-80-20", make_rng(seed))
        report = metrics.evaluate(fit_state(corpus, (ds, sp), seed), ds, sp, [5, 10, 20],
                                  model)
    assert report.n_instances
    report.to_csv(tmp_path / "library.csv")
    assert (tmp_path / "e" / "report.csv").read_text() == (tmp_path / "library.csv").read_text()


@pytest.mark.parametrize("model, flags, config", [
    ("das", ["--k", "3", "--lr", "0.03", "--epochs", "2", "--batch", "7", "--lam-uv", "0.001",
             "--lam-at", "0.002"],
     {"k": 3, "lr": 0.03, "epochs": 2, "batch": 7, "lam_uv": 0.001, "lam_at": 0.002,
      "split_policy": "random-80-20"}),
    ("can", ["--k", "3", "--window", "5", "--dropout", "0.3", "--lr", "0.04", "--epochs", "2",
             "--batch", "6", "--lam-uv", "0.003", "--lam-at", "0.004"],
     {"D": 3, "D_u": 3, "N_f": 3, "D_p": 3, "D_q": 3, "window": 5, "dropout": 0.3, "lr": 0.04,
      "epochs": 2, "batch": 6, "lam_uv": 0.003, "lam_a": 0.004, "split_policy": "random-80-20"}),
    ("bpr", ["--k", "3", "--lr", "0.07", "--l2", "0.02", "--epochs", "2"],
     {"d": 3, "lr": 0.07, "l2": 0.02, "epochs": 2, "split_policy": "random-80-20"}),
    ("apar", ["--k", "2", "--alpha1", "0.2", "--alpha2", "0.3", "--lam", "0.4", "--beta", "-0.1",
              "--gamma", "0.7", "--epochs", "5", "--test-fraction", "0.3"],
     {"d": 2, "alpha1": 0.2, "alpha2": 0.3, "lam": 0.4, "beta": -0.1, "gamma_override": 0.7,
      "max_iters": 5, "tol": 1e-05, "test_fraction": 0.3}),
])
def test_train_flags_set_the_config_fields(tmp_path, model, flags, config):
    # each flag a model reads, at a value other than its default, lands in the
    # field it names; --k sets every CAN width, --gamma APAR's override
    path = (synth_personality(tmp_path / "s", upc=4, ipc=3)[0] if model == "apar"
            else synth_sequential(tmp_path / "s"))
    train(path, tmp_path / "t", model, *flags, "--seed", "5")
    man = json.loads((tmp_path / "t" / "train_manifest.json").read_text())
    assert man["config"] == {"model": model, "seed": 5, **config}


class TestReadmeWalkthrough:
    """The README's walkthrough corpus and flags train a DAS model that learns."""

    # At seed 0, DAS reaches recall@10 0.742 and `top` 0.208 (Python 3.11,
    # numpy 2.4). DasConfig's earlier defaults, lr 0.001 and init_std 0.01,
    # left DAS at 0.218, level with `top`. A margin of 0.3 sits between the
    # two gaps: it fails a DAS at chance and leaves room for rounding.
    MARGIN = 0.3

    def test_das_beats_top_recall_at_10(self, tmp_path):
        corpus = synth_sequential(tmp_path / "corpus", users=400, spu=5, items=50, slen=5,
                                  noise=0.1, seed=0)
        recall = {}
        for model, flags in (("das", ["--k", "32", "--epochs", "10"]), ("top", [])):
            ck = train(corpus, tmp_path / model, model, *flags, "--seed", "0")
            out = tmp_path / f"{model}-eval"
            res = runner.invoke(main, ["eval", str(ck), str(corpus), "--cutoffs", "5,10",
                                       "--seed", "0", "--out", str(out)])
            assert res.exit_code == 0, res.output
            with open(out / "report.csv", newline="") as fh:
                recall[model] = next(float(r["value"]) for r in csv.DictReader(fh)
                                     if (r["metric"], r["cutoff"]) == ("recall", "10"))
        assert recall["das"] >= recall["top"] + self.MARGIN, recall
