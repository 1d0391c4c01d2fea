"""Single-file model checkpoints.

One ``.npz`` per trained model: the parameter arrays, the user/item
token lists they were trained against, and a JSON metadata record
(format version, model kind, hyperparameters, training trace). Saving
the same state twice produces byte-identical files, and loading
reconstructs the original state class ready to score or predict.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION, apar, baselines, can, das
from .numeric import make_rng


def index_maps_hash(users, items) -> str:
    """Order-sensitive digest of the interned token lists."""
    payload = json.dumps([list(users), list(items)], ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    kind: str
    state: object
    users: list
    items: list
    meta: dict


def _pack(state):
    """(kind, arrays, extra-meta) for every supported state type."""
    if isinstance(state, apar.AparState):
        arrays = {"P": state.P, "Q": state.Q, "gamma": state.gamma, "groups": state.groups}
        extra = {
            "config": asdict(state.config),
            "trace": [float(v) for v in state.trace],
            "converged": bool(state.converged),
            "fallback_steps": int(state.fallback_steps),
        }
        return "apar", arrays, extra
    if isinstance(state, das.DasState):
        arrays = {n: getattr(state, n) for n in das.PARAM_NAMES}
        extra = {"config": asdict(state.config), "trace": [float(v) for v in state.trace]}
        return "das", arrays, extra
    if isinstance(state, can.CanState):
        arrays = {n: getattr(state, n) for n in can.param_names(state.config)}
        extra = {"config": asdict(state.config), "trace": [float(v) for v in state.trace]}
        return "can", arrays, extra
    if isinstance(state, baselines.BprState):
        extra = {
            "config": None if state.config is None else asdict(state.config),
            "trace": [float(v) for v in state.trace],
        }
        return "bpr", {"P": state.P, "Q": state.Q}, extra
    if isinstance(state, baselines.TopScorer):
        return "top", {"counts": state.counts}, {}
    if isinstance(state, baselines.RandomScorer):
        if state.seed is None:
            raise ValueError(
                "random scorer was built without a recorded seed and cannot "
                "be checkpointed reproducibly"
            )
        return "random", {}, {"seed": int(state.seed), "n_items": int(state.n_items)}
    if isinstance(state, baselines.MeanPredictor):
        # key/value pairs through JSON so int and str keys both survive
        extra = {
            "by": state.by,
            "global_mean": float(state.global_mean),
            "table": [[k, float(v)] for k, v in state.table.items()],
        }
        kind = "usermean" if state.by == "user" else "itemmean"
        return kind, {}, extra
    raise TypeError(f"cannot checkpoint state of type {type(state).__name__}")


def save_checkpoint(path, state, users, items) -> None:
    kind, arrays, extra = _pack(state)
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "index_hash": index_maps_hash(users, items),
        **extra,
    }
    np.savez(
        path,
        __meta__=np.array(json.dumps(meta, sort_keys=True)),
        __users__=np.array(list(users), dtype=str),
        __items__=np.array(list(items), dtype=str),
        **arrays,
    )


def _unpack(kind, blobs, meta):
    if kind == "apar":
        return apar.AparState(
            P=blobs["P"],
            Q=blobs["Q"],
            gamma=blobs["gamma"],
            groups=blobs["groups"],
            config=apar.AparConfig(**meta["config"]),
            converged=meta["converged"],
            trace=list(meta["trace"]),
            fallback_steps=meta["fallback_steps"],
        )
    if kind == "das":
        cfg = das.DasConfig(**meta["config"])
        st = das.DasState(*(blobs[n] for n in das.PARAM_NAMES), config=cfg)
        st.trace = list(meta["trace"])
        return st
    if kind == "can":
        cfg = can.CanConfig(**meta["config"])
        st = can.CanState.from_params([blobs[n] for n in can.param_names(cfg)], cfg)
        st.trace = list(meta["trace"])
        return st
    if kind == "bpr":
        cfg = None if meta["config"] is None else baselines.BprConfig(**meta["config"])
        return baselines.BprState(
            P=blobs["P"], Q=blobs["Q"], trace=list(meta["trace"]), config=cfg
        )
    if kind == "top":
        return baselines.TopScorer(counts=blobs["counts"])
    if kind == "random":
        seed = meta["seed"]
        return baselines.RandomScorer(
            rng=make_rng(seed), n_items=meta["n_items"], seed=seed
        )
    if kind in ("usermean", "itemmean"):
        table = {k: v for k, v in meta["table"]}
        return baselines.MeanPredictor(
            by=meta["by"], table=table, global_mean=meta["global_mean"]
        )
    raise ValueError(f"checkpoint has unknown model kind {kind!r}")


def load_checkpoint(path) -> Checkpoint:
    with np.load(path, allow_pickle=False) as blobs:
        if "__meta__" not in blobs:
            raise ValueError(f"{path} is not a model checkpoint (no metadata record)")
        meta = json.loads(str(blobs["__meta__"]))
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format version {version} is not supported "
                f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
            )
        arrays = {k: blobs[k] for k in blobs.files if not k.startswith("__")}
        users = blobs["__users__"].tolist()
        items = blobs["__items__"].tolist()
    state = _unpack(meta["kind"], arrays, meta)
    return Checkpoint(
        kind=meta["kind"], state=state, users=users, items=items, meta=meta
    )


def verify_compatible(ckpt: Checkpoint, users, items) -> None:
    """Raise unless the checkpoint was built against these exact index maps."""
    current = index_maps_hash(users, items)
    stored = ckpt.meta["index_hash"]
    if current != stored:
        raise ValueError(
            f"checkpoint index maps (sha256 {stored}) do not match the "
            f"dataset's (sha256 {current}); re-ingest with the original data "
            "or retrain"
        )
