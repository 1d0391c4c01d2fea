"""Single-file model checkpoints.

One ``.npz`` per trained model: the parameter arrays, the user/item
token lists they were trained against, and a JSON metadata record
(format version, model kind, hyperparameters, training trace), and
nothing the kind and the list lengths imply. Saving the same state twice
produces byte-identical files, and loading reconstructs the original
state class ready to score or predict.

`KINDS` describes each model kind once: its state and config classes, its
arrays (name, dtype and shape in terms of the user count, the item count
and the config, in save order) and its JSON metadata fields. Saving,
loading and the load-time check all read it. `load_checkpoint` raises a
ValueError whose message starts with the file's path for:

* a file numpy cannot read as an ``.npz`` archive;
* a format version other than this build's, or an unknown model kind;
* metadata that is not a JSON object, lacks a field, or holds a field of
  the wrong JSON type;
* a config with keys its class does not have;
* arrays that are missing, extra, not float64 (int64 for ``groups``),
  mis-shaped or non-finite;
* user or item lists whose lengths disagree with the array shapes.
"""

import json
import lzma
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION, apar, baselines, can, das


@dataclass
class Checkpoint:
    kind: str
    state: object
    users: list
    items: list
    meta: dict


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


def _load_table(value) -> dict:
    table = {}
    for pair in _list(value):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], (str, int)) and not isinstance(pair[0], bool)):
            raise ValueError(f"table entry {pair!r} is not a [key, mean] pair")
        table[pair[0]] = _NUMBER.load(pair[1])
    return table


# key/value pairs through JSON so int and str keys both survive
_TABLE = Field(lambda table: [[k, float(v)] for k, v in table.items()], _load_table)


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
    """How one model kind is stored; the state is built by keyword from the rest."""

    state: type
    config: type | None  # stored as the "config" field and passed to `arrays`
    arrays: Callable  # (config, n_users, n_items) -> {name: shape}, in save order
    fields: dict  # JSON field name -> Field, each a state attribute
    int64: tuple = ()  # arrays stored as int64; the others are float64
    # (n_users, n_items) -> the attributes they and the kind imply; not stored
    implied: Callable = lambda n_users, n_items: {}


def _factors(config, n_users, n_items) -> dict:
    return {"P": (n_users, config.d), "Q": (n_items, config.d)}


def _no_arrays(config, n_users, n_items) -> dict:
    return {}


_MEAN_FIELDS = {"global_mean": _scalar(float), "table": _TABLE}

KINDS = {
    "apar": Kind(
        apar.AparState, apar.AparConfig,
        lambda c, n_users, n_items: {**_factors(c, n_users, n_items),
                                     "gamma": (n_users,), "groups": (n_users,)},
        {"trace": _TRACE, "converged": _scalar(bool), "fallback_steps": _scalar(int)},
        int64=("groups",),
    ),
    "das": Kind(das.DasState, das.DasConfig, das.param_shapes, {"trace": _TRACE}),
    "can": Kind(can.CanState, can.CanConfig, can.param_shapes, {"trace": _TRACE}),
    "bpr": Kind(baselines.BprState, baselines.BprConfig, _factors, {"trace": _TRACE}),
    "top": Kind(baselines.TopScorer, None, lambda c, n_users, n_items: {"counts": (n_items,)},
                {}),
    "random": Kind(baselines.RandomScorer, None, _no_arrays,
                   {"seed": _scalar(int)},
                   implied=lambda n_users, n_items: {"n_items": n_items}),
    "usermean": Kind(baselines.MeanPredictor, None, _no_arrays, _MEAN_FIELDS,
                     implied=lambda n_users, n_items: {"by": "user"}),
    "itemmean": Kind(baselines.MeanPredictor, None, _no_arrays, _MEAN_FIELDS,
                     implied=lambda n_users, n_items: {"by": "item"}),
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
    arrays = {a: getattr(state, a) for a in kind.arrays(config, len(users), len(items))}
    np.savez(
        path,
        __meta__=np.array(json.dumps(meta, sort_keys=True)),
        __users__=np.array(list(users), dtype=str),
        __items__=np.array(list(items), dtype=str),
        **arrays,
    )


# ---------------------------------------------------------------------------
# Load


def _read(path) -> dict:
    """Every member of the archive at path, as arrays by name."""
    npz = np.load(path, allow_pickle=False)
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValueError("it holds one .npy array")
    with npz:
        blobs = {name: npz[name] for name in npz.files}
    for name, blob in blobs.items():
        if not isinstance(blob, np.ndarray):
            raise ValueError(f"member {name!r} is not a numpy array")
    return blobs


def _get(meta, name):
    if name not in meta:
        raise ValueError(f"metadata lacks the field {name!r}")
    return meta[name]


def _tokens(blobs, key, what) -> list:
    tokens = blobs.pop(key, None)
    if tokens is None or tokens.ndim != 1 or tokens.dtype.kind != "U":
        raise ValueError(f"has no {what} list of strings ({key})")
    return tokens.tolist()


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


def _decode(blobs) -> Checkpoint:
    if "__meta__" not in blobs:
        raise ValueError("is not a model checkpoint (no metadata record)")
    try:
        meta = json.loads(str(blobs.pop("__meta__")))
    except json.JSONDecodeError as exc:
        raise ValueError(f"metadata is not JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"metadata is not a JSON object but {type(meta).__name__}")
    version = _get(meta, "format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    name = _get(meta, "kind")
    if not isinstance(name, str) or name not in KINDS:
        raise ValueError(f"checkpoint has unknown model kind {name!r}")
    kind = KINDS[name]
    users = _tokens(blobs, "__users__", "user")
    items = _tokens(blobs, "__items__", "item")

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
                      items=items, meta=meta)


def load_checkpoint(path) -> Checkpoint:
    """Read and check the checkpoint at path; see the module docstring."""
    try:
        blobs = _read(path)
    except (OSError, EOFError, ValueError, RuntimeError, NotImplementedError,
            zipfile.BadZipFile, zlib.error, lzma.LZMAError) as exc:
        raise ValueError(f"{path}: not a readable .npz archive ({exc})") from None
    try:
        return _decode(blobs)
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
