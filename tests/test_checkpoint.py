import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recsuite import apar, baselines, can, checkpoint, das
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
        for by, kind in (("user", "usermean"), ("item", "itemmean")):
            st = baselines.MeanPredictor(
                by=by, table={"a": 3.5, "b": 1.0}, global_mean=2.25
            )
            p = tmp_path / f"{by}.npz"
            checkpoint.save_checkpoint(p, st, *_users_items())
            ck = checkpoint.load_checkpoint(p)
            assert ck.kind == kind
            assert ck.state.table == st.table
            assert ck.state.global_mean == 2.25
            assert ck.state.predict_rating("a", "a") == 3.5
            assert ck.state.predict_rating("zz", "zz") == 2.25

    def test_mean_predictor_int_keys_survive(self, tmp_path):
        # index-keyed tables (dense user/item ids) must not come back as strings
        st = baselines.MeanPredictor(by="item", table={0: 4.5, 3: 1.25}, global_mean=3.0)
        p = tmp_path / "m.npz"
        checkpoint.save_checkpoint(p, st, *_users_items())
        ck = checkpoint.load_checkpoint(p)
        assert ck.state.table == {0: 4.5, 3: 1.25}
        assert ck.state.predict_rating(9, 3) == 1.25

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
        assert "version 1" in str(err.value) and "version 4" in str(err.value)

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
        assert "version 2" in str(err.value) and "version 4" in str(err.value)

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
        assert "version 3" in str(err.value) and "version 4" in str(err.value)

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
        "usermean": baselines.MeanPredictor(by="user", table={"alice": 3.5, 1: 2.0},
                                            global_mean=2.25),
        "itemmean": baselines.MeanPredictor(by="item", table={"i0": 4.0}, global_mean=3.0),
    }
    for name in ("das", "can", "bpr"):
        states[name].trace.append(0.5)
    return states


STATES = _one_of_each_kind()
# the kinds none of whose arrays is sized by the user list or the item list
NO_USER_ARRAYS = {"top", "random", "usermean", "itemmean"}
NO_ITEM_ARRAYS = {"random", "usermean", "itemmean"}
MEAN_KINDS = ("usermean", "itemmean")


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
        meta["format_version"] = draw(st.sampled_from([1, 2, 3, 99, "4", None]))
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
        # only the kind tells user means from item means, so relabelling one
        # mean predictor as the other leaves a sound file of the other kind
        must_reject = not (how == "kind" and name in MEAN_KINDS
                           and json.loads(str(blobs["__meta__"]))["kind"] in MEAN_KINDS)
    try:
        ck = checkpoint.load_checkpoint(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: "), err
        return
    assert not must_reject, f"{how} damage to a {name} file was accepted"
    saved = STATES[name]
    if name == "random":  # its item count is the length of the item list
        saved = dataclasses.replace(saved, n_items=len(ck.items))
    elif name in MEAN_KINDS:  # its `by` is named by the kind
        saved = dataclasses.replace(saved, by=ck.kind.removesuffix("mean"))
    _assert_same_state(saved, ck.state)
