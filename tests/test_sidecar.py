"""The parsed-corpus sidecar: a cached parse reads back as the parse itself.

Every corpus-reading command goes through `cli._read_corpus`, which keeps
the parse of a CSV beside it in `<csv>.parsed`. A warm read must give
what a parse gives, and any sidecar that does not belong to the file's
content, schema and parser must be a miss, never an error.
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from recsuite import cli, container, data
from recsuite.cli import main

runner = CliRunner()

# multi-line, non-ASCII, empty and padded reviews, a token ending in NUL,
# a blank line, and two faulty rows
RICH = (
    "user,item,timestamp,action,rating,review,helpful\n"
    'u1,a,100,rate,4,"two\nlines, café",3\n'
    "u1\x00,b,200,view,,,\n"
    "ü2,a,300,rate,5,Ünïcödé ✓,\n"
    "u3,c,abc,view,,,\n"
    "\n"
    "u3,c,400,rate,9,,\n"
    "u4, b ,500,view,,  padded  ,1\n"
    "u4,c\x00,86400,view,,,\n"
)
OTHER = "user,item,timestamp\nx1,y1,7\nx2,y1,8\n"


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def sidecar(path):
    return path.parent / (path.name + data.SIDECAR_SUFFIX)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_members(path):
    """The members of the sidecar at `path` by name, as arrays of their own."""
    with open(path, "rb") as fh:
        members, _ = container.read(fh)
    return {name: a.copy() for name, a in members.items()}


def write_members(path, members):
    """Write `members` in the sidecar's layout, in their order."""
    container.write(path, members)


def assert_same_parse(got, want):
    """Equal corpora, column by column bit for bit, and equal row errors."""
    (got_corpus, got_errors), (corpus, errors) = got, want
    assert (got_corpus.users, got_corpus.items) == (corpus.users, corpus.items)
    assert got_corpus.review == corpus.review
    for name in ("user", "item", "timestamp", "action", "rating", "helpful"):
        a, b = getattr(got_corpus, name), getattr(corpus, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got_errors == errors


def no_parse(*args, **kwargs):
    raise AssertionError("the corpus was parsed, not read from its sidecar")


def test_warm_read_equals_cold_parse(tmp_path, monkeypatch):
    path = write(tmp_path / "c.csv", RICH)
    parse = data.ingest_csv(path)
    assert [e.line for e in parse[1]] == [6, 8]
    assert "two\nlines, café" in parse[0].review and "" in parse[0].review
    assert "u1\x00" in parse[0].users and "c\x00" in parse[0].items

    cold = cli._read_corpus(str(path))
    assert sidecar(path).exists()
    monkeypatch.setattr(data, "ingest_csv", no_parse)
    warm = cli._read_corpus(str(path))
    assert_same_parse(cold[:2], parse)
    assert_same_parse(warm[:2], parse)
    assert cold[2] == warm[2] == sha256(path)


def test_reviews_are_sliced_only_when_read(tmp_path, monkeypatch):
    path = write(tmp_path / "c.csv", RICH)
    corpus, _ = data.ingest_csv(path)
    cli._read_corpus(str(path))
    slices = []
    texts_of = data.Corpus.review.fget
    monkeypatch.setattr(data.Corpus, "review",
                        property(lambda c: slices.append(len(c)) or texts_of(c)))
    warm, _ = data.read_sidecar(sidecar(path), data.sidecar_key(sha256(path), None))
    mine = warm.take(warm.user == 0)  # a take leaves the reviews unread too
    assert slices == []
    assert mine.review == [r for r, u in zip(corpus.review, corpus.user) if u == 0]
    assert warm.review == corpus.review
    assert mine.review is mine.review  # made once


def test_edit_of_same_size_and_mtime_is_a_miss(tmp_path):
    path = write(tmp_path / "c.csv", RICH)
    before = os.stat(path)
    cli._read_corpus(str(path))
    write(path, RICH.replace("rate,4,", "rate,2,"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    got = cli._read_corpus(str(path))
    assert_same_parse(got[:2], data.ingest_csv(path))
    assert got[0].rating[0] == 2.0


def test_other_schema_is_a_miss(tmp_path, monkeypatch):
    path = write(tmp_path / "c.csv", "user,uid,item,timestamp\na,b,i,1\nc,d,j,2\n")
    for schema in ({}, {"user": "uid"}, {}):
        got = cli._read_corpus(str(path), schema)
        assert_same_parse(got[:2], data.ingest_csv(path, schema))
    assert got[0].users == ["a", "c"]
    monkeypatch.setattr(data, "ingest_csv", no_parse)
    assert cli._read_corpus(str(path), {})[0].users == ["a", "c"]


def test_sidecar_of_another_parser_source_is_a_miss(tmp_path, monkeypatch):
    path = write(tmp_path / "c.csv", RICH)
    cli._read_corpus(str(path))
    monkeypatch.setattr(data, "_source_digest", lambda: "0" * 64)
    parses = []
    ingest_csv = data.ingest_csv
    monkeypatch.setattr(data, "ingest_csv", lambda *args: parses.append(args) or ingest_csv(*args))
    assert_same_parse(cli._read_corpus(str(path))[:2], ingest_csv(path))
    assert len(parses) == 1


@pytest.mark.parametrize("fault", [
    "user code past the vocabulary", "negative item code", "unknown action code",
    "short column", "descending offsets", "offsets past the text", "int32 timestamps",
    "2-d column", "extra member", "missing member", "text not UTF-8",
])
def test_sidecar_failing_a_check_is_a_miss(tmp_path, fault):
    path = write(tmp_path / "c.csv", RICH)
    cli._read_corpus(str(path))
    key = data.sidecar_key(sha256(path), None)
    clean = sidecar(path).read_bytes()
    m = read_members(sidecar(path))
    write_members(sidecar(path), m)  # the helpers follow the layout byte for byte
    assert sidecar(path).read_bytes() == clean
    if fault == "user code past the vocabulary":
        m["user"][0] = m["vocab_sizes"][0]
    elif fault == "negative item code":
        m["item"][0] = -1
    elif fault == "unknown action code":
        m["action"][0] = len(data.ACTIONS)
    elif fault == "short column":
        m["rating"] = m["rating"][:-1]
    elif fault == "descending offsets":
        m["text_at"][1] = m["text_at"][2] + 1
    elif fault == "offsets past the text":
        m["text_at"][-1] += 1
    elif fault == "int32 timestamps":
        m["timestamp"] = m["timestamp"].astype(np.int32)
    elif fault == "2-d column":  # two values a row
        m["helpful"] = np.repeat(m["helpful"][:, None], 2, axis=1)
    elif fault == "extra member":
        m["extra"] = np.zeros(1)
    elif fault == "missing member":
        del m["error_line"]
    else:
        m["text"][0] = 0xFF
    write_members(sidecar(path), m)
    assert data.read_sidecar(sidecar(path), key) is None


def test_cold_writes_are_byte_identical(tmp_path):
    first = write(tmp_path / "c.csv", RICH)
    (tmp_path / "copy").mkdir()
    second = write(tmp_path / "copy" / "c.csv", RICH)
    cli._read_corpus(str(first))
    blob = sidecar(first).read_bytes()
    sidecar(first).unlink()
    for path in (first, second):
        cli._read_corpus(str(path))
        assert sidecar(path).read_bytes() == blob


def test_failed_replace_leaves_the_command_working(tmp_path, monkeypatch):
    path = write(tmp_path / "c.csv", RICH)

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    res = runner.invoke(main, ["ingest", str(path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "o"]


def test_sidecar_sits_beside_the_file_a_link_names(tmp_path):
    path = write(tmp_path / "c.csv", RICH)
    (tmp_path / "link.csv").symlink_to(path)
    cli._read_corpus(str(tmp_path / "link.csv"))
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "c.csv" + data.SIDECAR_SUFFIX, "link.csv"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe by /dev/fd")
def test_a_pipe_is_parsed_and_nothing_is_kept(tmp_path):
    path = write(tmp_path / "c.csv", RICH)
    r, w = os.pipe()
    os.write(w, path.read_bytes())
    os.close(w)
    try:
        res = runner.invoke(main, ["ingest", f"/dev/fd/{r}", "--out", str(tmp_path / "p")])
    finally:
        os.close(r)
    assert res.exit_code == 0, res.output
    assert (res.stdout, res.stderr) == run_ingest(path, tmp_path / "f")[:2]
    assert ((tmp_path / "p" / "interactions.csv").read_bytes()
            == (tmp_path / "f" / "interactions.csv").read_bytes())
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "c.csv" + data.SIDECAR_SUFFIX, "f", "p"]


def test_warm_command_hashes_the_corpus_once(tmp_path, monkeypatch):
    path = write(tmp_path / "c.csv", RICH)
    cli._read_corpus(str(path))
    hashed = []
    sha256_file = cli._sha256_file
    monkeypatch.setattr(cli, "_sha256_file", lambda p: hashed.append(p) or sha256_file(p))
    out = tmp_path / "t"
    res = runner.invoke(main, ["train", str(path), "--model", "usermean", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert hashed == [os.path.realpath(path)]
    manifest = json.loads((out / "train_manifest.json").read_text())
    assert manifest["inputs"] == {str(path): sha256(path)}


@pytest.mark.parametrize("size", [0, 1, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5])
def test_file_digest_equals_the_digest_of_the_bytes(tmp_path, size):
    # sizes around the one 1 MiB buffer the file is read through
    payload = np.random.default_rng(size).bytes(size)
    (tmp_path / "f").write_bytes(payload)
    assert cli._sha256_file(tmp_path / "f") == hashlib.sha256(payload).hexdigest()


def test_warm_eval_and_recommend_repeat_the_cold_outputs(tmp_path):
    path = write(tmp_path / "c.csv", "user,item,timestamp\n" + "".join(
        f"u{u},i{(u + d + p) % 7},{d * 86400 + p}\n"
        for u in range(6) for d in range(3) for p in range(3)))
    res = runner.invoke(main, ["train", str(path), "--model", "top", "--out",
                               str(tmp_path / "t")])
    assert res.exit_code == 0, res.output
    runs = []
    for run in ("cold", "warm"):
        if run == "cold":
            sidecar(path).unlink()
        out = tmp_path / run
        ev = runner.invoke(main, ["eval", str(tmp_path / "t" / "top.npz"), str(path),
                                  "--out", str(out)])
        rec = runner.invoke(main, ["recommend", str(tmp_path / "t" / "top.npz"), str(path),
                                   "--user", "u3", "-n", "4"])
        assert ev.exit_code == rec.exit_code == 0, ev.output + rec.output
        runs.append((ev.stdout, ev.stderr, rec.stdout, (out / "report.csv").read_bytes()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Damaged and foreign sidecars


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A corpus with its sidecar, a sidecar of another CSV, and `ingest`'s outputs."""
    root = tmp_path_factory.mktemp("reference")
    path = write(root / "c.csv", RICH)
    other = write(root / "other.csv", OTHER)
    cli._read_corpus(str(other))
    outputs = run_ingest(path, root / "out")
    return {
        "root": root, "path": path, "outputs": outputs,
        "clean": sidecar(path).read_bytes(), "other": sidecar(other).read_bytes(),
        "key": data.sidecar_key(sha256(path), {}), "other_parse": data.ingest_csv(other),
    }


def run_ingest(path, out):
    res = runner.invoke(main, ["ingest", str(path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "ingest_manifest.json").read_text())
    files = {name: (out / name).read_bytes()
             for name in ("interactions.csv", "users.txt", "items.txt")}
    return res.stdout, res.stderr, files, manifest["inputs"], manifest["config"]


def wrong_keys(key):
    fields = json.loads(key)
    variants = [key[:-1], key + b" ", key.replace(b'"csv"', b'"CSV"')]
    for name, value in (("csv", "0" * 64), ("schema", {"user": "user"}),
                        ("source", "f" * 64)):
        variants.append(json.dumps({**fields, name: value}, sort_keys=True).encode())
    return variants


DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
    st.tuples(st.just("foreign"), st.just(None)),
    st.tuples(st.just("wrong key"), st.integers(0, 5)),
)


@given(DAMAGE)
def test_damaged_sidecar_acts_as_none(reference, tmp_path_factory, damage):
    ref = reference
    work = tmp_path_factory.mktemp("damaged")
    path = work / "c.csv"
    shutil.copyfile(ref["path"], path)
    kind, where = damage[0], damage[1]
    clean = ref["clean"]
    if kind == "truncate":
        sidecar(path).write_bytes(clean[:int(where * len(clean))])
    elif kind == "flip":
        at = int(where * len(clean))
        sidecar(path).write_bytes(clean[:at] + bytes([clean[at] ^ damage[2]]) + clean[at + 1:])
    elif kind == "foreign":
        sidecar(path).write_bytes(ref["other"])
    else:  # another CSV's parse under a key that is almost this one's
        data.write_sidecar(sidecar(path), wrong_keys(ref["key"])[where], *ref["other_parse"])
    damaged = sidecar(path).read_bytes()

    got = run_ingest(path, work / "out")
    stdout, stderr, files, inputs, config = ref["outputs"]
    assert got == (stdout, stderr, files, {str(path): inputs[str(ref["path"])]}, config)
    assert damaged != clean
    assert sidecar(path).read_bytes() == clean  # the damage was a miss, and rewritten


def test_a_flipped_byte_anywhere_is_a_miss(reference, tmp_path):
    clean = reference["clean"]
    path = tmp_path / "c.csv.parsed"
    for at in range(len(clean)):
        for mask in (0x01, 0x80):
            path.write_bytes(clean[:at] + bytes([clean[at] ^ mask]) + clean[at + 1:])
            assert data.read_sidecar(path, reference["key"]) is None, (at, mask)
    path.write_bytes(clean)
    assert data.read_sidecar(path, reference["key"]) is not None
