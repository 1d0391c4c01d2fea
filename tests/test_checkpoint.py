import dataclasses
import hashlib
import io
import json
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recsuite import apar, baselines, can, checkpoint, das, data
from recsuite.numeric import make_rng


def _users_items():
    return ["alice", "bob", "carol"], [f"i{n}" for n in range(8)]


USERS, ITEMS = _users_items()


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestRoundTripModels:
    def test_bpr(self, tmp_path):
        cfg = baselines.BprConfig(d=4, seed=3)
        st = baselines.init_bpr(3, 8, cfg)
        st.trace.extend([1.5, 0.25])
        p = tmp_path / "m.npz"
        users, items = _users_items()
        checkpoint.save_checkpoint(p, st, users, items)
        ck = checkpoint.load_checkpoint(p)
        assert ck.kind == "bpr"
        assert np.array_equal(ck.state.P, st.P)
        assert np.array_equal(ck.state.Q, st.Q)
        assert ck.state.trace == [1.5, 0.25]
        assert ck.state.config == cfg
        assert ck.users == users and ck.items == items

    def test_apar(self, tmp_path):
        rng = make_rng(0)
        cfg = apar.AparConfig(d=2, seed=1)
        st = apar.AparState(
            P=rng.random((3, 2)),
            Q=rng.random((8, 2)),
            gamma=np.array([0.5, 0.25, 1.0]),
            groups=np.array([0, 0, 2]),
            config=cfg,
            converged=False,
            trace=[3.0, 2.0, 1.0],
            fallback_steps=2,
        )
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        ck = checkpoint.load_checkpoint(p)
        assert ck.kind == "apar"
        for name in ("P", "Q", "gamma", "groups", "blended"):
            assert np.array_equal(getattr(ck.state, name), getattr(st, name))
        assert ck.state.config == cfg
        assert ck.state.converged is False
        assert ck.state.fallback_steps == 2
        assert ck.state.trace == [3.0, 2.0, 1.0]
        # prediction path intact after reload
        assert ck.state.predict_rating(0, 1) == pytest.approx(st.predict_rating(0, 1))

    def test_das(self, tmp_path):
        cfg = das.DasConfig(k=3, seed=7, epochs=1)
        st = das.init_das(3, 8, cfg)
        st.trace.append(0.75)
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        ck = checkpoint.load_checkpoint(p)
        assert ck.kind == "das"
        for a, b in zip(ck.state.params(), st.params()):
            assert np.array_equal(a, b)
        assert ck.state.config == cfg
        assert np.allclose(
            ck.state.score_items(1, [0, 2], [3]), st.score_items(1, [0, 2], [3])
        )

    def test_can_untied(self, tmp_path):
        cfg = can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2, seed=5)
        st = can.init_can(3, 8, cfg)
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        ck = checkpoint.load_checkpoint(p)
        assert ck.kind == "can"
        for a, b in zip(ck.state.params(), st.params()):
            assert np.array_equal(a, b)
        assert np.array_equal(ck.state.V_out, st.V_out)
        assert ck.state.V_out is not ck.state.E


class TestRoundTripBaselines:
    def test_top(self, tmp_path):
        st = baselines.TopScorer(counts=np.array([3.0, 0.0, 5.0, 1.0, 0.0, 2.0, 7.0, 1.0]))
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        ck = checkpoint.load_checkpoint(p)
        assert ck.kind == "top"
        assert np.array_equal(ck.state.counts, st.counts)

    def test_mean_predictors(self, tmp_path):
        # trained on ratings, so user 1 and most items hold the global mean
        users, items = _users_items()
        ratings = data.Ratings(users, items, np.array([0, 0, 2]), np.array([1, 3, 1]),
                               np.array([4.5, 1.0, 2.0]))
        for mean, by, kind, size in ((baselines.user_mean, "user", "usermean", 3),
                                     (baselines.item_mean, "item", "itemmean", 8)):
            st = mean(ratings)
            p = tmp_path / f"{by}.npz"
            checkpoint.save_checkpoint(p, st, users, items)
            ck = checkpoint.load_checkpoint(p)
            assert ck.kind == kind and ck.state.by == by
            assert ck.state.means.dtype == np.float64 and ck.state.means.shape == (size,)
            assert ck.state.means.tobytes() == st.means.tobytes()
            assert ck.state.predict_rating(1, 0) == st.predict_rating(1, 0) == 2.5
            assert ck.state.predict_rating(0, 1) == st.predict_rating(0, 1) == {
                "user": 2.75, "item": 3.25}[by]

    def test_format_4_mean_table_rejected_naming_version_and_path(self, tmp_path):
        # format 4 stored a mean predictor as a JSON table of [key, mean] pairs
        p = tmp_path / "v4.npz"
        meta = {"format_version": 4, "kind": "usermean", "global_mean": 2.25,
                "table": [[0, 3.5], [2, 1.0]]}
        users, items = _users_items()
        np.savez(p, __meta__=np.array(json.dumps(meta, sort_keys=True)),
                 __users__=np.array(users), __items__=np.array(items))
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert str(err.value).startswith(f"{p}: ")
        assert "version 4" in str(err.value) and "version 5" in str(err.value)

    def test_random_round_trip_reproduces_stream(self, tmp_path):
        st = baselines.RandomScorer(n_items=8, seed=3)
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        ck = checkpoint.load_checkpoint(p)
        fresh = baselines.RandomScorer(n_items=8, seed=3)
        for _ in range(4):
            assert np.array_equal(
                ck.state.score_items(0, [], []), fresh.score_items(0, [], [])
            )


class TestFormatGuards:
    def test_same_state_same_bytes(self, tmp_path):
        cfg = das.DasConfig(k=3, seed=7)
        st = das.init_das(3, 8, cfg)
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        checkpoint.save_checkpoint(a, st, *_users_items())
        checkpoint.save_checkpoint(b, st, *_users_items())
        assert _sha(a) == _sha(b)

    def test_trained_apar_same_bytes(self, tmp_path):
        rng = make_rng(3)
        W = rng.uniform(1.0, 5.0, size=(6, 5))
        cfg = apar.AparConfig(d=2, seed=1, max_iters=5, lam=0.2)
        st = apar.train_apar(W, rng.random((6, 5)) < 0.6, np.array([0, 0, 0, 3, 3, 5]),
                             np.full(6, 0.5), cfg)
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        checkpoint.save_checkpoint(a, st, [f"u{i}" for i in range(6)], list("abcde"))
        checkpoint.save_checkpoint(b, st, [f"u{i}" for i in range(6)], list("abcde"))
        assert _sha(a) == _sha(b)
        assert "blended" not in np.load(a).files

    def test_v1_apar_with_similarity_matrix_rejected(self, tmp_path):
        # format 1 stored the n x n similarity "L"; format 2 stores "groups"
        users, items = _users_items()
        p = tmp_path / "v1.npz"
        meta = {"format_version": 1, "kind": "apar",
                "config": {"d": 2}, "trace": [], "converged": True, "fallback_steps": 0}
        np.savez(p, __meta__=np.array(json.dumps(meta)),
                 __users__=np.array(users), __items__=np.array(items),
                 P=np.ones((3, 2)), Q=np.ones((8, 2)), gamma=np.ones(3),
                 L=np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert "version 1" in str(err.value) and "version 5" in str(err.value)

    def test_v2_das_with_deleted_config_fields_rejected(self, tmp_path):
        # format 2 configs carried fields DasConfig no longer has; the version
        # check names both versions before the config is read
        users, items = _users_items()
        p = tmp_path / "v2.npz"
        st = das.init_das(len(users), len(items), das.DasConfig(k=2))
        checkpoint.save_checkpoint(p, st, users, items)
        blobs = dict(np.load(p, allow_pickle=False))
        meta = json.loads(str(blobs["__meta__"]))
        meta["format_version"] = 2
        meta["config"].update(reg_dense=False, dense_init_std=0.1)
        blobs["__meta__"] = np.array(json.dumps(meta))
        np.savez(p, **blobs)
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert "version 2" in str(err.value) and "version 5" in str(err.value)

    def test_v3_can_with_index_hash_and_tie_flag_rejected(self, tmp_path):
        # format 3 stored a hash of the token lists and CAN's tied-table flag;
        # the version check names both versions before the fields are read
        users, items = _users_items()
        p = tmp_path / "v3.npz"
        st = can.init_can(len(users), len(items),
                          can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2))
        checkpoint.save_checkpoint(p, st, users, items)
        blobs = dict(np.load(p, allow_pickle=False))
        meta = json.loads(str(blobs["__meta__"]))
        meta.update(format_version=3, index_hash="0" * 64)
        meta["config"]["tie_embeddings"] = False
        blobs["__meta__"] = np.array(json.dumps(meta))
        np.savez(p, **blobs)
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert "version 3" in str(err.value) and "version 5" in str(err.value)

    @pytest.mark.parametrize("name", ["random", "usermean", "itemmean"])
    def test_implied_fields_are_not_stored(self, name):
        raw, _, meta = SAVED[name]
        assert not {"index_hash", "n_items", "by"} & set(meta)
        ck = checkpoint.load_checkpoint(io.BytesIO(raw))
        _assert_same_state(STATES[name], ck.state)

    def test_unknown_version_rejected(self, tmp_path):
        st = baselines.TopScorer(counts=np.zeros(4))
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        blobs = dict(np.load(p, allow_pickle=False))
        meta = json.loads(str(blobs["__meta__"]))
        meta["format_version"] = 99
        blobs["__meta__"] = np.array(json.dumps(meta))
        np.savez(p, **blobs)
        with pytest.raises(ValueError, match="99"):
            checkpoint.load_checkpoint(p)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "m.npz"
        np.savez(p, x=np.zeros(3))
        with pytest.raises(ValueError):
            checkpoint.load_checkpoint(p)

    def test_unknown_state_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            checkpoint.save_checkpoint(tmp_path / "m.npz", object(), *_users_items())


class TestCompatibility:
    def test_matching_maps_pass(self, tmp_path):
        st = baselines.TopScorer(counts=np.zeros(8))
        p = tmp_path / "m.npz"
        users, items = _users_items()
        checkpoint.save_checkpoint(p, st, users, items)
        ck = checkpoint.load_checkpoint(p)
        checkpoint.verify_compatible(ck, users, items)  # no raise

    def test_mismatch_names_the_differing_list(self):
        ck = checkpoint.load_checkpoint(io.BytesIO(SAVED["top"][0]))
        for users, items, named in (
            (USERS + ["dave"], ITEMS, "user list (3 tokens) differs from the corpus's (4 tokens) "
                                      "first at position 3"),
            (USERS[:2], ITEMS, "user list (3 tokens) differs from the corpus's (2 tokens) "
                               "first at position 2"),
            (USERS, ITEMS[:3] + ["x"] + ITEMS[4:], "item list (8 tokens) differs from the "
                                                   "corpus's (8 tokens) first at position 3"),
            (USERS, ["i0"] + ITEMS, "item list (8 tokens) differs from the corpus's (9 tokens) "
                                    "first at position 1"),
        ):
            with pytest.raises(ValueError) as ei:
                checkpoint.verify_compatible(ck, users, items)
            assert named in str(ei.value)

    def test_order_and_side_matter(self):
        ck = checkpoint.load_checkpoint(io.BytesIO(SAVED["top"][0]))
        for users, items in ((list(reversed(USERS)), ITEMS), (ITEMS, USERS)):
            with pytest.raises(ValueError, match="user list"):
                checkpoint.verify_compatible(ck, users, items)


# ---------------------------------------------------------------------------
# Damaged files: each loads to the saved state or is rejected naming its path


def _one_of_each_kind():
    rng = make_rng(0)
    states = {
        "apar": apar.AparState(
            P=rng.random((3, 2)), Q=rng.random((8, 2)), gamma=np.array([0.5, 0.25, 1.0]),
            groups=np.array([0, 0, 2]), config=apar.AparConfig(d=2), trace=[3.0, 2.0],
        ),
        "das": das.init_das(3, 8, das.DasConfig(k=2)),
        "can": can.init_can(3, 8, can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2)),
        "bpr": baselines.init_bpr(3, 8, baselines.BprConfig(d=2)),
        "top": baselines.TopScorer(counts=np.arange(8.0)),
        "random": baselines.RandomScorer(n_items=8, seed=3),
        "usermean": baselines.MeanPredictor(by="user", means=np.array([3.5, 2.0, 2.25])),
        "itemmean": baselines.MeanPredictor(by="item", means=np.linspace(1.0, 4.5, 8)),
    }
    for name in ("das", "can", "bpr"):
        states[name].trace.append(0.5)
    return states


STATES = _one_of_each_kind()
# the kinds none of whose arrays is sized by the user list or the item list
NO_USER_ARRAYS = {"top", "random", "itemmean"}
NO_ITEM_ARRAYS = {"random", "usermean"}


def _assert_same_state(saved, loaded):
    assert type(loaded) is type(saved)
    for f in dataclasses.fields(saved):
        if f.compare:
            a, b = getattr(saved, f.name), getattr(loaded, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            else:
                assert a == b


def _saved(state):
    buf = io.BytesIO()
    checkpoint.save_checkpoint(buf, state, USERS, ITEMS)
    with np.load(io.BytesIO(buf.getvalue())) as npz:
        blobs = dict(npz)
    return buf.getvalue(), blobs, json.loads(str(blobs["__meta__"]))


SAVED = {name: _saved(state) for name, state in STATES.items()}
FAULTS = ("version", "kind", "meta-not-object", "meta-not-json", "field", "config", "missing",
          "extra", "dtype", "shape", "non-finite")


@st.composite
def damaged(draw, name, fault):
    """The members of the saved `name` file with `fault`; None if it has no such part."""
    _, blobs, meta = SAVED[name]
    blobs, meta = dict(blobs), json.loads(json.dumps(meta))
    floats = [a for a in blobs if not a.startswith("__") and a != "groups"]
    if fault == "version":
        meta["format_version"] = draw(st.sampled_from([1, 2, 3, 4, 99, "5", None]))
    elif fault == "kind":
        others = sorted(set(checkpoint.KINDS) - {meta["kind"]})
        meta["kind"] = draw(st.sampled_from(others + ["svd", "", 3, None, ["das"]]))
    elif fault == "meta-not-object":
        meta = draw(st.sampled_from([[meta], "das", 3, None]))
    elif fault == "meta-not-json":
        return {**blobs, "__meta__": np.array(json.dumps(meta)[:-1])}
    elif fault == "field":
        del meta[draw(st.sampled_from(sorted(meta)))]
    elif fault == "config" and "config" in meta:
        meta["config"][draw(st.sampled_from(["reg_dense", "K", "extra"]))] = 1
    elif fault == "missing":
        del blobs[draw(st.sampled_from(sorted(blobs)))]
        return blobs
    elif fault == "extra":
        blobs[draw(st.sampled_from(["extra", "L", "V_out"]))] = np.zeros(8)
    elif fault == "dtype" and len(blobs) > 3:
        a = draw(st.sampled_from(sorted(set(blobs) - {"__meta__", "__users__", "__items__"})))
        wrong = [np.float32, np.int32, np.float64 if a == "groups" else np.int64]
        blobs[a] = blobs[a].astype(draw(st.sampled_from(wrong)))
    elif fault == "shape" and len(blobs) > 3:
        a = draw(st.sampled_from(sorted(set(blobs) - {"__meta__", "__users__", "__items__"})))
        arr = blobs[a]
        blobs[a] = [arr[:-1], np.concatenate([arr, arr[:1]]), arr.reshape(-1)[:, None],
                    arr[None]][draw(st.integers(0, 3))]
    elif fault == "non-finite" and floats:
        a = draw(st.sampled_from(sorted(floats)))
        arr = blobs[a] = blobs[a].copy()
        arr.reshape(-1)[draw(st.integers(0, arr.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        return None  # the kind has no part this fault can damage
    return {**blobs, "__meta__": np.array(json.dumps(meta))}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(sorted(STATES)),
       how=st.sampled_from(("truncate", "flip", "users", "items") + FAULTS))
def test_damaged_file_loads_intact_or_is_rejected_naming_it(tmp_path, data, name, how):
    raw, blobs, _ = SAVED[name]
    path = tmp_path / "damaged.npz"
    must_reject = True
    if how == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    elif how == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255), label="mask")
        path.write_bytes(bytes(flipped))
        must_reject = False  # the archive format ignores some bytes
    elif how in ("users", "items"):
        key = f"__{how}__"
        tokens = blobs[key].tolist()
        longer = data.draw(st.booleans(), label="longer")
        blobs = {**blobs, key: np.array(tokens + ["new"] if longer else tokens[:-1])}
        np.savez(path, **blobs)
        must_reject = name not in (NO_USER_ARRAYS if how == "users" else NO_ITEM_ARRAYS)
    else:
        blobs = data.draw(damaged(name, how), label="members")
        if blobs is None:
            return
        np.savez(path, **blobs)
    try:
        ck = checkpoint.load_checkpoint(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: "), err
        return
    assert not must_reject, f"{how} damage to a {name} file was accepted"
    saved = STATES[name]
    if name == "random":  # its item count is the length of the item list
        saved = dataclasses.replace(saved, n_items=len(ck.items))
    _assert_same_state(saved, ck.state)


# ---------------------------------------------------------------------------
# The archive reader against np.load


def _assert_same_members(got, path_or_bytes):
    raw = path_or_bytes if isinstance(path_or_bytes, bytes) else open(path_or_bytes, "rb").read()
    with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
        want = {name: npz[name] for name in npz.files}
    assert list(got) == list(want)
    for name, a in want.items():
        b = got[name]
        assert (b.dtype, b.shape) == (a.dtype, a.shape), name
        assert (b.flags.c_contiguous, b.flags.f_contiguous) == (
            a.flags.c_contiguous, a.flags.f_contiguous), name
        assert b.tobytes(order="A") == a.tobytes(order="A"), name


ODD_MEMBERS = {
    "zero_d": np.array(2.5), "text": np.array('{"a": 1}'), "empty": np.zeros((0, 3)),
    "empty_strings": np.array([], dtype=str), "fortran": np.asfortranarray(
        np.arange(12, dtype=np.int64).reshape(3, 4)),
    "big_endian": np.arange(5, dtype=">i4"), "bools": np.array([True, False, True]),
    "records": np.zeros(2, dtype=[("x", "<i4"), ("y", "<f8")]), "strings": np.array(["ab", "ü"]),
}


@pytest.mark.parametrize("name", sorted(STATES))
def test_read_npz_equals_np_load_on_every_kind(name):
    raw = SAVED[name][0]
    _assert_same_members(data.read_npz(io.BytesIO(raw)), raw)


@pytest.mark.parametrize("savez", [np.savez, np.savez_compressed])
def test_read_npz_equals_np_load_on_odd_members(tmp_path, savez):
    path = tmp_path / "odd.npz"
    savez(path, **ODD_MEMBERS)
    _assert_same_members(data.read_npz(path), path)
    with open(path, "rb") as fh:  # an open file object
        _assert_same_members(data.read_npz(fh), path)


def test_read_npz_of_an_empty_archive_is_empty():
    buf = io.BytesIO()
    np.savez(buf)
    assert data.read_npz(io.BytesIO(buf.getvalue())) == {}


def _stored_spans(raw):
    """Per member of the archive `raw`: (name, start of its .npy bytes, their end,
    where the data starts after the .npy header)."""
    spans = []
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        for info in archive.infolist():
            assert info.compress_type == zipfile.ZIP_STORED
            at = info.header_offset
            name_length, extra_length = np.frombuffer(raw, "<u2", 2, at + 26).tolist()
            start = at + 30 + name_length + extra_length
            with archive.open(info) as member:
                np.lib.format.read_magic(member)
                np.lib.format.read_array_header_1_0(member)
                header = member.tell()
            spans.append((info.filename, start, start + info.file_size, start + header))
    return spans


@pytest.mark.parametrize("name", sorted(STATES))
def test_a_flipped_byte_in_any_member_is_refused(name):
    raw = SAVED[name][0]
    for member, start, end, data_start in _stored_spans(raw):
        offsets = {start, start + 6, start + 8, (start + data_start) // 2, data_start - 1,
                   data_start, (data_start + end) // 2, end - 1}
        for at in sorted(o for o in offsets if o < end):
            for mask in (0x01, 0x80):
                flipped = bytearray(raw)
                flipped[at] ^= mask
                with pytest.raises(data.NPZ_ERRORS):
                    data.read_npz(io.BytesIO(bytes(flipped)))


def np_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def test_object_and_non_array_members_are_refused(tmp_path):
    path = tmp_path / "object.npz"
    np.savez(path, ok=np.zeros(2), obj=np.array([{"a": 1}], dtype=object))
    with pytest.raises(data.NPZ_ERRORS, match="Object arrays"):
        data.read_npz(path)
    with zipfile.ZipFile(tmp_path / "text.npz", "w") as archive:
        archive.writestr("ok.npy", np_bytes(np.zeros(2)))
        archive.writestr("notes.txt", b"not an array")
    with pytest.raises(data.NPZ_ERRORS, match="'notes.txt' is not a numpy array"):
        data.read_npz(tmp_path / "text.npz")


def test_read_npz_refuses_what_is_not_a_zip_archive(tmp_path):
    (tmp_path / "pickle.npz").write_bytes(b"\x80\x04K\x01.")
    with pytest.raises(ValueError, match="not a zip archive"):
        data.read_npz(tmp_path / "pickle.npz")


def test_an_unparsable_npy_header_is_refused_naming_the_file(tmp_path):
    # an unclosed brace: numpy's header parse fails with a tokenize.TokenError
    header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (1,), \n"
    member = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + bytes(8)
    path = tmp_path / "header.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("__meta__.npy", member)
    with pytest.raises(ValueError, match="not a readable .npz archive") as err:
        checkpoint.load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
