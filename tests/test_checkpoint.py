import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import tempfile
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from recsuite import apar, baselines, can, checkpoint, container, das, data
from recsuite.numeric import make_rng


def _users_items():
    return ["alice", "bob", "carol"], [f"i{n}" for n in range(8)]


USERS, ITEMS = _users_items()


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _members(path) -> dict:
    """The members of the file at `path`, as arrays of their own."""
    with open(path, "rb") as fh:
        members, _ = container.read(fh)
    return {name: a.copy() for name, a in members.items()}


def _meta_member(meta) -> np.ndarray:
    """`meta` as a format-7 ``__meta__`` member: the UTF-8 bytes of its JSON."""
    return np.frombuffer(json.dumps(meta).encode("utf-8"), np.uint8)


def _meta_of(blobs) -> dict:
    return json.loads(blobs["__meta__"].tobytes().decode("utf-8"))


def _format_6_members(meta, arrays) -> dict:
    """The members as the format-6 writer stored them: the metadata record
    without the token lists, and it and the lists as numpy strings."""
    meta = dict(meta)
    users, items = meta.pop("users", USERS), meta.pop("items", ITEMS)
    return {"__meta__": np.array(json.dumps(meta, sort_keys=True)),
            "__users__": np.array(users, dtype=str), "__items__": np.array(items, dtype=str),
            **arrays}


def _load_bytes(tmp_path, raw):
    path = tmp_path / "m.npz"
    path.write_bytes(raw)
    return checkpoint.load_checkpoint(path)


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
        container.write(p, {"__meta__": np.array(json.dumps(meta, sort_keys=True)),
                            "__users__": np.array(users), "__items__": np.array(items)})
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert str(err.value).startswith(f"{p}: ")
        assert "version 4" in str(err.value) and "version 7" in str(err.value)

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
        assert "blended" not in _members(a)

    def test_v1_apar_with_similarity_matrix_rejected(self, tmp_path):
        # format 1 stored the n x n similarity "L"; format 2 stores "groups"
        users, items = _users_items()
        p = tmp_path / "v1.npz"
        meta = {"format_version": 1, "kind": "apar",
                "config": {"d": 2}, "trace": [], "converged": True, "fallback_steps": 0}
        container.write(p, {"__meta__": np.array(json.dumps(meta)),
                            "__users__": np.array(users), "__items__": np.array(items),
                            "P": np.ones((3, 2)), "Q": np.ones((8, 2)), "gamma": np.ones(3),
                            "L": np.ones((3, 3)) - np.eye(3)})
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert "version 1" in str(err.value) and "version 7" in str(err.value)

    def test_v2_das_with_deleted_config_fields_rejected(self, tmp_path):
        # format 2 configs carried fields DasConfig no longer has; the version
        # check names both versions before the config is read
        users, items = _users_items()
        p = tmp_path / "v2.npz"
        st = das.init_das(len(users), len(items), das.DasConfig(k=2))
        checkpoint.save_checkpoint(p, st, users, items)
        blobs = _members(p)
        meta = _meta_of(blobs)
        meta["format_version"] = 2
        meta["config"].update(reg_dense=False, dense_init_std=0.1)
        del blobs["__meta__"]
        container.write(p, _format_6_members(meta, blobs))
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert "version 2" in str(err.value) and "version 7" in str(err.value)

    def test_v3_can_with_index_hash_and_tie_flag_rejected(self, tmp_path):
        # format 3 stored a hash of the token lists and CAN's tied-table flag;
        # the version check names both versions before the fields are read
        users, items = _users_items()
        p = tmp_path / "v3.npz"
        st = can.init_can(len(users), len(items),
                          can.CanConfig(D=3, D_u=2, N_f=4, D_p=3, D_q=2))
        checkpoint.save_checkpoint(p, st, users, items)
        blobs = _members(p)
        meta = _meta_of(blobs)
        meta.update(format_version=3, index_hash="0" * 64)
        meta["config"]["tie_embeddings"] = False
        del blobs["__meta__"]
        container.write(p, _format_6_members(meta, blobs))
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert "version 3" in str(err.value) and "version 7" in str(err.value)

    @pytest.mark.parametrize("name", ["random", "usermean", "itemmean"])
    def test_implied_fields_are_not_stored(self, tmp_path, name):
        raw, _, meta = SAVED[name]
        assert not {"index_hash", "n_items", "by"} & set(meta)
        ck = _load_bytes(tmp_path, raw)
        _assert_same_state(STATES[name], ck.state)

    def test_unknown_version_rejected(self, tmp_path):
        st = baselines.TopScorer(counts=np.zeros(4))
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        blobs = _members(p)
        meta = _meta_of(blobs)
        meta["format_version"] = 99
        blobs["__meta__"] = _meta_member(meta)
        container.write(p, blobs)
        with pytest.raises(ValueError, match="99"):
            checkpoint.load_checkpoint(p)

    @pytest.mark.parametrize("name", sorted(checkpoint.KINDS))
    def test_a_format_6_file_is_rejected_naming_both_versions(self, tmp_path, name):
        blobs = dict(SAVED[name][1])
        meta = {**_meta_of(blobs), "format_version": 6}
        del blobs["__meta__"]
        p = tmp_path / "v6.npz"
        container.write(p, _format_6_members(meta, blobs))
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert str(err.value) == (f"{p}: checkpoint format version 6 is not supported "
                                  "(this build reads version 7)")

    def test_numpy_string_metadata_of_this_format_is_rejected(self, tmp_path):
        # the string form is read only for its version; format 7 is UTF-8 bytes
        blobs = dict(SAVED["top"][1])
        p = tmp_path / "m.npz"
        container.write(p, {**blobs, "__meta__": np.array(json.dumps(_meta_of(blobs)))})
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(p)
        assert str(err.value) == f"{p}: metadata of format 7 is a numpy string, not UTF-8 bytes"

    def test_not_a_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "m.npz"
        container.write(p, {"x": np.zeros(3)})
        with pytest.raises(ValueError, match="no metadata record"):
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

    def test_mismatch_names_the_differing_list(self, tmp_path):
        ck = _load_bytes(tmp_path, SAVED["top"][0])
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

    def test_order_and_side_matter(self, tmp_path):
        ck = _load_bytes(tmp_path, SAVED["top"][0])
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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.npz")
        checkpoint.save_checkpoint(path, state, USERS, ITEMS)
        with open(path, "rb") as fh:
            raw = fh.read()
        blobs = _members(path)
    return raw, blobs, _meta_of(blobs)


SAVED = {name: _saved(state) for name, state in STATES.items()}
FAULTS = ("version", "kind", "meta-not-object", "meta-not-json", "field", "field-type", "config",
          "missing", "extra", "dtype", "shape", "non-finite")


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
        text = json.dumps(meta).encode("utf-8")
        member = draw(st.sampled_from([
            np.frombuffer(text[:-1], np.uint8),  # truncated JSON
            np.frombuffer(b"\xff" + text, np.uint8),  # not UTF-8
            np.frombuffer(text, np.uint8)[None],  # 2-d
            np.frombuffer(text, np.uint8).astype(np.int64),  # not bytes
        ]))
        return {**blobs, "__meta__": member}
    elif fault == "field":
        del meta[draw(st.sampled_from(sorted(meta)))]
    elif fault == "field-type":
        # a value of the wrong JSON type for every field, the token lists too
        meta[draw(st.sampled_from(sorted(meta)))] = draw(
            st.sampled_from([None, {"a": 1}, [None], 1.5, "x", ["x", 3]]))
    elif fault == "config" and "config" in meta:
        meta["config"][draw(st.sampled_from(["reg_dense", "K", "extra"]))] = 1
    elif fault == "missing":
        del blobs[draw(st.sampled_from(sorted(blobs)))]
        return blobs
    elif fault == "extra":
        blobs[draw(st.sampled_from(["extra", "L", "V_out"]))] = np.zeros(8)
    elif fault == "dtype" and len(blobs) > 1:
        a = draw(st.sampled_from(sorted(set(blobs) - {"__meta__"})))
        wrong = [np.float32, np.int32, np.float64 if a == "groups" else np.int64]
        blobs[a] = blobs[a].astype(draw(st.sampled_from(wrong)))
    elif fault == "shape" and len(blobs) > 1:
        a = draw(st.sampled_from(sorted(set(blobs) - {"__meta__"})))
        arr = blobs[a]
        blobs[a] = [arr[:-1], np.concatenate([arr, arr[:1]]), arr.reshape(-1)[:, None],
                    arr[None], arr.reshape(-1)[0], arr[:0]][draw(st.integers(0, 5))]
    elif fault == "non-finite" and floats:
        a = draw(st.sampled_from(sorted(floats)))
        arr = blobs[a] = blobs[a].copy()
        arr.reshape(-1)[draw(st.integers(0, arr.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        return None  # the kind has no part this fault can damage
    return {**blobs, "__meta__": _meta_member(meta)}


def _forged(head, payload: bytes) -> bytes:
    """A file of the container layout with `head` (JSON text or a value to
    dump) over `payload`, its lengths and CRC-32 made to hold."""
    if not isinstance(head, (str, bytes)):
        head = json.dumps(head)
    head = head.encode("utf-8") if isinstance(head, str) else head
    lengths = np.array([len(head), len(payload), zlib.crc32(payload, zlib.crc32(head))], "<i8")
    return container.MAGIC + lengths.tobytes() + head + payload


def _split(raw: bytes) -> tuple[list, bytes]:
    """The head entries and the payload of the container file `raw`."""
    n_head = int(np.frombuffer(raw, "<i8", 1, len(container.MAGIC))[0])
    start = len(container.MAGIC) + 24
    return json.loads(raw[start:start + n_head]), raw[start + n_head:]


JSON = st.recursive(st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats()
                    | st.text(max_size=8),
                    lambda inner: st.lists(inner, max_size=5)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                    max_leaves=20)


@st.composite
def forged_head(draw, raw):
    """The file `raw` with a head that is random, or whose entries are damaged
    (0-d, empty, out of range, overlapping, of another dtype, ...), its
    lengths and CRC-32 made to hold, so only the head's checks can refuse it."""
    entries, payload = _split(raw)
    how = draw(st.sampled_from(["random", "text", "entry", "dtype", "shape", "offset",
                                "name", "drop", "swap"]))
    if how == "random":
        return _forged(draw(JSON), payload)
    if how == "text":
        return _forged(draw(st.binary(max_size=64)), payload)
    k = draw(st.integers(0, len(entries) - 1))
    entry = entries[k]
    if how == "entry":
        entries[k] = draw(JSON | st.just(entry[:3]) | st.just([*entry, 0]))
    elif how == "dtype":
        entry[1] = draw(st.sampled_from(["|O", "<f8", "<i8", "<f4", ">f8", "|u1", "<U1", "<U2",
                                         "|V8", "i4,i4", "<c16", "|S0", "<U0", "bogus", 8]))
    elif how == "shape":
        entry[2] = draw(st.sampled_from([[], [0], [-1], [1.5], [True], [2**40], [0, 2**62],
                                         [0] * 65, 3, "x", [*entry[2], 1], entry[2][::-1]]))
    elif how == "offset":
        others = [e[3] for e in entries]
        entry[3] = draw(st.sampled_from(others + [entry[3] + 8, entry[3] - 8, -8, len(payload),
                                                  len(payload) + 8, 2**63, 1.0, None]))
    elif how == "name":
        entry[0] = draw(st.sampled_from([e[0] for e in entries] + [7, None, "", "extra"]))
    elif how == "drop":
        del entries[k]
    else:
        j = draw(st.integers(0, len(entries) - 1))
        entries[k], entries[j] = entries[j], entries[k]
    return _forged(entries, payload)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(sorted(STATES)),
       how=st.sampled_from(("truncate", "flip", "append", "head", "users", "items") + FAULTS))
def test_damaged_file_loads_intact_or_is_rejected_naming_it(tmp_path, data, name, how):
    raw, blobs, meta = SAVED[name]
    path = tmp_path / "damaged.npz"
    must_reject = True
    if how == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    elif how == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flipped = bytearray(raw)
        flipped[at] ^= data.draw(st.integers(1, 255), label="mask")
        path.write_bytes(bytes(flipped))
    elif how == "append":
        path.write_bytes(raw + data.draw(st.binary(min_size=1, max_size=16), label="tail"))
    elif how == "head":
        path.write_bytes(data.draw(forged_head(raw), label="file"))
        must_reject = False  # a head that still describes the same members loads them
    elif how in ("users", "items"):
        tokens = meta[how]
        longer = data.draw(st.booleans(), label="longer")
        meta = {**meta, how: tokens + ["new"] if longer else tokens[:-1]}
        container.write(path, {**blobs, "__meta__": _meta_member(meta)})
        must_reject = name not in (NO_USER_ARRAYS if how == "users" else NO_ITEM_ARRAYS)
    else:
        blobs = data.draw(damaged(name, how), label="members")
        if blobs is None:
            return
        container.write(path, blobs)
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


@pytest.mark.parametrize("side", ["users", "items"])
@pytest.mark.parametrize("name", sorted(STATES))
def test_token_lists_of_anything_but_strings_are_refused(tmp_path, name, side):
    # each as long as the saved list, so no array shape can refuse it instead
    _, blobs, meta = SAVED[name]
    tokens = meta[side]
    path = tmp_path / "m.npz"
    for bad in ("".join(tokens), dict.fromkeys(tokens), [*tokens[:-1], 3],
                [*tokens[:-1], None], [*tokens[:-1], [tokens[-1]]]):
        container.write(path, {**blobs, "__meta__": _meta_member({**meta, side: bad})})
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(path)
        assert str(err.value) == f"{path}: metadata has no {side} list of strings"


@pytest.mark.parametrize("name", sorted(STATES))
def test_a_flipped_byte_in_any_member_is_refused(tmp_path, name):
    # every byte of the file: magic line, lengths, CRC-32, head, members, padding
    raw = SAVED[name][0]
    path = tmp_path / "flipped.npz"
    for at in range(len(raw)):
        for mask in (0x01, 0x80):
            flipped = bytearray(raw)
            flipped[at] ^= mask
            path.write_bytes(bytes(flipped))
            with pytest.raises(ValueError) as err:
                checkpoint.load_checkpoint(path)
            assert str(err.value).startswith(f"{path}: ")


def test_object_and_non_array_members_are_refused(tmp_path):
    with pytest.raises(ValueError, match="cannot be stored"):
        container.write(tmp_path / "object.npz", {"obj": np.array([{"a": 1}], dtype=object)})
    assert os.listdir(tmp_path) == []
    entries, payload = _split(SAVED["top"][0])
    for entry in ([entries[0][0], "|O", [1], 0], "notes.txt", [entries[0][0], "<U", [1], 0]):
        path = tmp_path / "forged.npz"
        path.write_bytes(_forged([entry, *entries[1:]], payload))
        with pytest.raises(ValueError) as err:
            checkpoint.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: not a readable checkpoint file")


def test_an_unparsable_npy_header_is_refused_naming_the_file(tmp_path):
    # an .npz of an older format whose member's .npy header numpy could not
    # parse (an unclosed brace) is refused as an older format, before any parse
    header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (1,), \n"
    member = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + bytes(8)
    path = tmp_path / "header.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("__meta__.npy", member)
    with pytest.raises(ValueError, match="an .npz checkpoint of format 5 or earlier") as err:
        checkpoint.load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# The token lists: UTF-8 JSON, so any text round-trips at its UTF-8 size

TOKENS = st.lists(st.text(max_size=12) | st.sampled_from(["", "\x00", "a\nb", '"', ",", "é"]),
                  max_size=6)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(users=TOKENS, items=TOKENS)
@example(users=["", "\x00", "line\nbreak", 'say "hi"', "a,b", "ü€𝄞"], items=["x" * 1000])
@example(users=[], items=[])
def test_any_token_lists_round_trip(tmp_path, users, items):
    state = baselines.init_bpr(len(users), len(items), baselines.BprConfig(d=2))
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(path, state, users, items)
    ck = checkpoint.load_checkpoint(path)
    assert (ck.users, ck.items) == (users, items)
    assert all(type(t) is str for t in ck.users + ck.items)
    _assert_same_state(state, ck.state)


def test_a_long_token_costs_its_utf8_length_only(tmp_path):
    # fixed-width UTF-32 strings cost 4 bytes per character of the longest
    # token for every token: here about 4 MB more
    sizes = []
    for long in ("é", "é" * 1000):
        items = [long] + [chr(0x41 + n % 26) for n in range(1000)]
        path = tmp_path / f"{len(long)}.npz"
        checkpoint.save_checkpoint(path, baselines.RandomScorer(len(items), seed=3), USERS, items)
        sizes.append(path.stat().st_size)
    assert 0 <= sizes[1] - sizes[0] - len("é".encode("utf-8")) * 999 < 8


@pytest.mark.parametrize("side", ["users", "items"])
def test_a_token_utf8_cannot_encode_is_refused_at_save(tmp_path, side):
    tokens = {"users": USERS, "items": ITEMS}
    tokens[side] = [*tokens[side][:-1], "lone \ud800 surrogate"]
    with pytest.raises(ValueError):
        checkpoint.save_checkpoint(tmp_path / "m.npz", STATES["bpr"],
                                   tokens["users"], tokens["items"])
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# The container


def readme_reader(path) -> dict:
    """The members of a container file by the README's few lines of numpy."""
    raw = open(path, "rb").read()
    n_head, n_payload, crc = np.frombuffer(raw, "<i8", 3, 16)
    assert raw[:16] == b"recsuite flat 1\n" and zlib.crc32(raw[40:]) == crc
    start = 40 + n_head
    return {name: np.frombuffer(raw, dtype, math.prod(shape), start + offset).reshape(shape)
            for name, dtype, shape, offset in json.loads(raw[40:start])}


def _assert_same_members(got, want):
    assert list(got) == list(want)
    for name, a in want.items():
        b = got[name]
        assert (b.dtype, b.shape) == (a.dtype, a.shape), name
        assert b.tobytes() == a.tobytes(), name


@pytest.mark.parametrize("name", sorted(STATES))
def test_the_readme_reader_reads_every_kind(tmp_path, name):
    raw = SAVED[name][0]
    path = tmp_path / "m.npz"
    path.write_bytes(raw)
    got = readme_reader(path)
    meta = json.loads(got["__meta__"].tobytes())  # as the README reads the token lists
    assert (meta["users"], meta["items"]) == (USERS, ITEMS)
    _assert_same_members(got, _members(path))
    with open(path, "rb") as fh:
        members, read = container.read(fh)
    assert b"".join(bytes(chunk) for chunk in read) == raw
    assert checkpoint.load_checkpoint(path).sha256() == hashlib.sha256(raw).hexdigest()


ODD_MEMBERS = {
    "zero_d": np.array(2.5), "text": np.array('{"a": 1}'), "empty": np.zeros((0, 3)),
    "empty_strings": np.array([], dtype=str), "fortran": np.asfortranarray(
        np.arange(12, dtype=np.int64).reshape(3, 4)),
    "big_endian": np.arange(5, dtype=">i4"), "bools": np.array([True, False, True]),
    "strings": np.array(["ab", "ü"]), "bytes": np.array([b"x", b"yz"]),
    "complex": np.array([1 + 2j]), "half": np.arange(3, dtype=np.float16),
    "times": np.array(["2020-01-01"], dtype="M8[D]"),
}


@pytest.mark.parametrize("last_apart", [False, True], ids=["one-buffer", "last-apart"])
def test_odd_members_round_trip(tmp_path, last_apart):
    path = tmp_path / "odd"
    container.write(path, ODD_MEMBERS)
    with open(path, "rb") as fh:
        got, _ = container.read(fh, last_apart=last_apart)
    _assert_same_members(got, ODD_MEMBERS)
    _assert_same_members(readme_reader(path), ODD_MEMBERS)
    assert all(a.flags.c_contiguous for a in got.values())
    assert all(a.flags.writeable for a in list(got.values())[:-1])
    assert len(path.read_bytes()) % 8 == 0


def test_an_empty_container_reads_back_empty(tmp_path):
    path = tmp_path / "empty"
    container.write(path, {})
    assert len(path.read_bytes()) % 8 == 0
    for last_apart in (False, True):
        with open(path, "rb") as fh:
            assert container.read(fh, last_apart=last_apart)[0] == {}
    assert readme_reader(path) == {}


@pytest.mark.parametrize("raw", [b"", b"\x80\x04K\x01.", b"PK\x03\x04" + bytes(60),
                                 container.MAGIC[:-1]], ids=["empty", "pickle", "zip", "short"])
def test_what_has_no_magic_line_is_refused(tmp_path, raw):
    (tmp_path / "f").write_bytes(raw)
    with open(tmp_path / "f", "rb") as fh, pytest.raises(ValueError, match="no recsuite magic"):
        container.read(fh)


# ---------------------------------------------------------------------------
# Atomic saves


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   KeyboardInterrupt(), _Interrupted()])
def test_a_save_that_fails_midway_leaves_the_old_file(tmp_path, monkeypatch, error):
    path = tmp_path / "das.npz"
    checkpoint.save_checkpoint(path, STATES["das"], USERS, ITEMS)
    old = path.read_bytes()
    written = []

    class Failing(io.FileIO):  # unbuffered; fails on its third write, within the members
        def write(self, b):
            written.append(len(memoryview(b)))
            if len(written) == 3:
                raise error
            return super().write(b)

    monkeypatch.setattr(container, "open", lambda p, mode: Failing(p, mode.replace("b", "")),
                        raising=False)
    with pytest.raises(type(error)):
        checkpoint.save_checkpoint(path, STATES["bpr"], USERS, ITEMS)
    assert len(written) == 3
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["das.npz"]
    monkeypatch.undo()
    checkpoint.save_checkpoint(path, STATES["bpr"], USERS, ITEMS)
    assert os.listdir(tmp_path) == ["das.npz"]
    _assert_same_state(STATES["bpr"], checkpoint.load_checkpoint(path).state)
