"""Single-file model checkpoints.

One file per trained model, in the flat layout of `container` (the CLI
names it ``<model>.npz``, but it is not a zip archive): the parameter
arrays and the uint8 member ``__meta__``, the UTF-8 of one JSON metadata
record (format version, model kind, hyperparameters, training trace, and
the user and item token lists the arrays were trained against), and
nothing the kind and the list lengths imply. Saving the same state twice
produces byte-identical files, a save replaces the file whole, and loading
reconstructs the original state class ready to score or predict. A token
UTF-8 cannot encode is refused at save with a ValueError.

`KINDS` describes each model kind once: its state and config classes, its
arrays (name, dtype and shape in terms of the user count, the item count
and the config, in save order), its JSON metadata fields, its trainer,
whether it rates or ranks, and its train flags named unlike their config
fields. Saving, loading, the load-time check and the CLI all read it.
`load_checkpoint` raises a ValueError whose message starts with the file's
path for:

* a file that is not a whole flat file of arrays (truncated, damaged in
  any byte, or holding object arrays), and by name a zip archive, the
  ``.npz`` of format 5 or earlier;
* a format version other than this build's, or an unknown model kind;
* metadata that is not UTF-8 JSON of an object, lacks a field, or holds a
  field of the wrong JSON type (user and item lists of anything but
  strings among them); the numpy string metadata of format 6 and earlier
  is read only for its version;
* a config with keys its class does not have;
* arrays that are missing, extra, not float64 (int64 for ``groups``),
  mis-shaped or non-finite;
* user or item lists whose lengths disagree with the array shapes.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION, apar, baselines, can, container, das, personality


@dataclass
class Checkpoint:
    kind: str
    state: object
    users: list
    items: list
    meta: dict
    read: list = field(repr=False)  # the file's bytes as they were read, in order

    def sha256(self) -> str:
        """The sha256 of the file as it was loaded."""
        h = hashlib.sha256()
        for chunk in self.read:
            h.update(chunk)
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Metadata fields


class Field(NamedTuple):
    """One JSON metadata field: how its state attribute is written and read back."""

    dump: Callable  # state attribute -> JSON value
    load: Callable  # JSON value -> state attribute; ValueError when malformed


def _scalar(cls) -> Field:
    """A field holding one JSON bool, int, float or str; an int is a float too."""
    accepted = (int, float) if cls is float else cls
    what = "a finite number" if cls is float else f"a {cls.__name__}"

    def load(value):
        if (
            (isinstance(value, bool) and cls is not bool)
            or not isinstance(value, accepted)
            or (cls is float and not math.isfinite(value))
        ):
            raise ValueError(f"expected {what}, got {value!r}")
        return cls(value)

    return Field(cls, load)


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return value


_NUMBER = _scalar(float)
_TRACE = Field(
    lambda trace: [float(v) for v in trace],
    lambda value: [_NUMBER.load(v) for v in _list(value)],
)


def _load_config(cls, value):
    """The config object; each stored value has the JSON type of its default."""
    if not isinstance(value, dict):
        raise ValueError(f"config is not a JSON object: {value!r}")
    known = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ValueError(f"config has keys {cls.__name__} does not have: {', '.join(unknown)}")
    for key, val in value.items():
        default = known[key]
        if not (val is None and default is None):
            try:
                _scalar(float if default is None else type(default)).load(val)
            except ValueError as exc:
                raise ValueError(f"config {key}: {exc}") from None
    return cls(**value)


# ---------------------------------------------------------------------------
# The kinds


@dataclass(frozen=True)
class Kind:
    """How one model kind is trained and stored; the state is built by keyword."""

    state: type
    config: type | None  # stored as the "config" field and passed to `arrays`
    arrays: Callable  # (config, n_users, n_items) -> {name: shape}, in save order
    fields: dict  # JSON field name -> Field, each a state attribute
    # (corpus, fit, config, seed) -> state, fit the training ratings of a kind
    # that rates, the (split, dataset) of one that ranks; it looks the trainer
    # up per call, so a module attribute swapped in later (a wrapper) runs
    train: Callable
    rates: bool = False  # predicts ratings, and is split and scored as ratings
    # config field -> the train flag that sets it, where the names differ; the
    # other fields are set by the flag of their own name, if there is one
    flags: dict = field(default_factory=dict)
    int64: tuple = ()  # arrays stored as int64; the others are float64
    # (n_users, n_items) -> the attributes they and the kind imply; not stored
    implied: Callable = lambda n_users, n_items: {}


def _factors(config, n_users, n_items) -> dict:
    return {"P": (n_users, config.d), "Q": (n_items, config.d)}


def _no_arrays(config, n_users, n_items) -> dict:
    return {}


def _train_apar(corpus, ratings, config, seed):
    """APAR on the trait groups of the demo lexicon and weights."""
    profiles = personality.profile_all(corpus, personality.DEMO_LEXICON,
                                       personality.DEMO_WEIGHTS)
    return apar.fit_ratings(ratings, personality.trait_groups(corpus, profiles, ratings.users),
                            personality.knowledge_levels(corpus, ratings.users), config)


# in the order `train --model` lists them
KINDS = {
    "apar": Kind(
        apar.AparState, apar.AparConfig,
        lambda c, n_users, n_items: {**_factors(c, n_users, n_items),
                                     "gamma": (n_users,), "groups": (n_users,)},
        {"trace": _TRACE, "converged": _scalar(bool), "fallback_steps": _scalar(int)},
        train=_train_apar, rates=True,
        flags={"d": "k", "gamma_override": "gamma", "max_iters": "epochs"},
        int64=("groups",),
    ),
    "das": Kind(das.DasState, das.DasConfig, das.param_shapes, {"trace": _TRACE},
                train=lambda corpus, fit, c, seed: das.train_das(*fit, c)),
    "can": Kind(can.CanState, can.CanConfig, can.param_shapes, {"trace": _TRACE},
                train=lambda corpus, fit, c, seed: can.train_can(*fit, c),
                # one --k scales every width
                flags={"D": "k", "D_u": "k", "N_f": "k", "D_p": "k", "D_q": "k",
                       "lam_a": "lam_at"}),
    "top": Kind(baselines.TopScorer, None, lambda c, n_users, n_items: {"counts": (n_items,)},
                {}, train=lambda corpus, fit, c, seed: baselines.top_scorer(
                    fit[0].train, fit[1].n_items)),
    "random": Kind(baselines.RandomScorer, None, _no_arrays, {"seed": _scalar(int)},
                   train=lambda corpus, fit, c, seed: baselines.RandomScorer(
                       fit[1].n_items, seed),
                   implied=lambda n_users, n_items: {"n_items": n_items}),
    "usermean": Kind(baselines.MeanPredictor, None,
                     lambda c, n_users, n_items: {"means": (n_users,)}, {},
                     train=lambda corpus, fit, c, seed: baselines.user_mean(fit), rates=True,
                     implied=lambda n_users, n_items: {"by": "user"}),
    "itemmean": Kind(baselines.MeanPredictor, None,
                     lambda c, n_users, n_items: {"means": (n_items,)}, {},
                     train=lambda corpus, fit, c, seed: baselines.item_mean(fit), rates=True,
                     implied=lambda n_users, n_items: {"by": "item"}),
    "bpr": Kind(baselines.BprState, baselines.BprConfig, _factors, {"trace": _TRACE},
                train=lambda corpus, fit, c, seed: baselines.train_bpr(*fit, c),
                flags={"d": "k"}),
}


# ---------------------------------------------------------------------------
# Save


def _kind_of(state, n_users, n_items) -> str:
    for name, kind in KINDS.items():
        if type(state) is kind.state and all(
            getattr(state, f) == v for f, v in kind.implied(n_users, n_items).items()
        ):
            return name
    raise TypeError(
        f"no checkpoint kind fits a {type(state).__name__} over {n_users} users "
        f"and {n_items} items"
    )


def save_checkpoint(path, state, users, items) -> None:
    name = _kind_of(state, len(users), len(items))
    kind = KINDS[name]
    config = state.config if kind.config else None
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": name,
        **{f: field.dump(getattr(state, f)) for f, field in kind.fields.items()},
    }
    if config is not None:
        meta["config"] = asdict(config)
    meta.update(users=list(users), items=list(items))
    text = json.dumps(meta, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    # a token UTF-8 cannot encode (a lone surrogate) raises here, before a file is opened
    encoded = np.frombuffer(text.encode("utf-8"), np.uint8)
    arrays = {a: getattr(state, a) for a in kind.arrays(config, len(users), len(items))}
    container.write(path, {"__meta__": encoded, **arrays})


# ---------------------------------------------------------------------------
# Load


def _get(meta, name):
    if name not in meta:
        raise ValueError(f"metadata lacks the field {name!r}")
    return meta[name]


def _token_list(meta, name) -> list:
    """meta[name], removed from meta, checked to be a list of strings."""
    tokens = meta.pop(name, None)
    if isinstance(tokens, list):
        try:
            "".join(tokens)  # one pass in C; a TypeError at the first token not a str
            return tokens
        except TypeError:
            pass
    raise ValueError(f"metadata has no {name} list of strings")


def _read_meta(blob) -> tuple[dict, bool]:
    """The metadata record and whether it is in the numpy string form of
    formats 6 and earlier, which is read only far enough to name its version."""
    legacy = blob.dtype.kind == "U" and blob.ndim == 0
    if not (legacy or (blob.dtype == np.uint8 and blob.ndim == 1)):
        raise ValueError(f"metadata is a {blob.dtype} array of shape {blob.shape}, "
                         "not UTF-8 bytes")
    try:
        meta = json.loads(str(blob) if legacy else blob.tobytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"metadata is not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"metadata is not JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"metadata is not a JSON object but {type(meta).__name__}")
    return meta, legacy


def _check_arrays(kind, blobs, config, n_users, n_items) -> None:
    expected = kind.arrays(config, n_users, n_items)
    missing = [a for a in expected if a not in blobs]
    extra = sorted(set(blobs) - set(expected))
    if missing or extra:
        raise ValueError(" and ".join(
            f"{what} {', '.join(names)}"
            for what, names in (("lacks the arrays", missing), ("holds unexpected arrays", extra))
            if names
        ))
    for a, shape in expected.items():
        arr = blobs[a]
        dtype = np.dtype(np.int64 if a in kind.int64 else np.float64)
        if arr.dtype != dtype:
            raise ValueError(f"array {a} is {arr.dtype}, expected {dtype}")
        if arr.shape != shape:
            raise ValueError(
                f"array {a} has shape {arr.shape}, expected {shape} for "
                f"{n_users} users and {n_items} items"
            )
        if dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError(f"array {a} holds non-finite values")


def _decode(blobs, read) -> Checkpoint:
    if "__meta__" not in blobs:
        raise ValueError("is not a model checkpoint (no metadata record)")
    meta, legacy = _read_meta(blobs.pop("__meta__"))
    version = _get(meta, "format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    if legacy:
        raise ValueError(f"metadata of format {version} is a numpy string, not UTF-8 bytes")
    name = _get(meta, "kind")
    if not isinstance(name, str) or name not in KINDS:
        raise ValueError(f"checkpoint has unknown model kind {name!r}")
    kind = KINDS[name]
    users = _token_list(meta, "users")
    items = _token_list(meta, "items")

    values = kind.implied(len(users), len(items))
    for f, field in kind.fields.items():
        value = _get(meta, f)
        try:
            values[f] = field.load(value)
        except ValueError as exc:
            raise ValueError(f"field {f}: {exc}") from None
    config = None
    if kind.config:
        config = values["config"] = _load_config(kind.config, _get(meta, "config"))
    _check_arrays(kind, blobs, config, len(users), len(items))
    return Checkpoint(kind=name, state=kind.state(**blobs, **values), users=users,
                      items=items, meta=meta, read=read)


def load_checkpoint(path) -> Checkpoint:
    """Read and check the checkpoint at path; see the module docstring."""
    try:
        with open(path, "rb") as fh:
            try:
                blobs, read = container.read(fh)
            except ValueError as exc:
                fh.seek(0)
                if fh.read(4) != b"PK\x03\x04":
                    raise ValueError(f"not a readable checkpoint file ({exc})") from None
                raise ValueError("an .npz checkpoint of format 5 or earlier; this build reads "
                                 f"format {CHECKPOINT_FORMAT_VERSION}; retrain") from None
        return _decode(blobs, read)
    except OSError as exc:
        raise ValueError(f"{path}: cannot be read ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def verify_compatible(ckpt: Checkpoint, users, items) -> None:
    """Raise unless the checkpoint was built against these exact token lists."""
    for what, stored, current in (("user", ckpt.users, list(users)),
                                  ("item", ckpt.items, list(items))):
        if stored != current:
            at = next((i for i, (a, b) in enumerate(zip(stored, current)) if a != b),
                      min(len(stored), len(current)))
            raise ValueError(
                f"the checkpoint's {what} list ({len(stored)} tokens) differs from "
                f"the corpus's ({len(current)} tokens) first at position {at}; "
                "re-ingest with the original data or retrain"
            )
