"""One flat file of named arrays under one CRC-32: checkpoints and the sidecar.

The file is the magic line `MAGIC`, which names the layout's version; three
little-endian int64: the head's length, the payload's length and the CRC-32
of head and payload; the head, a JSON list of `[name, dtype.str, shape,
offset]` per member, padded with spaces to a multiple of 8 bytes; then the
payload, each member's bytes in C order at its offset, in head order, each
padded with zeros to a multiple of 8 bytes.
"""

import contextlib
import json
import math
import os
import zlib

import numpy as np

MAGIC = b"recsuite flat 1\n"
_PREFIX = len(MAGIC) + 24  # the magic line and the three int64


def _padded(nbytes: int) -> int:
    return nbytes + -nbytes % 8


def _checked(dtype: np.dtype) -> np.dtype:
    if dtype.kind in "OV" or not dtype.itemsize:
        raise ValueError(f"a {dtype} member cannot be stored")
    return dtype


def write(path, members: dict) -> None:
    """Write `members` (name -> array, in file order) to `path`, atomically:
    each member is streamed to a temporary file beside it, which then
    replaces `path`. An error removes the temporary file and propagates."""
    arrays = [(name, np.asarray(a, order="C")) for name, a in members.items()]
    entries, size = [], 0
    for name, a in arrays:
        entries.append([name, _checked(a.dtype).str, list(a.shape), size])
        size += _padded(a.nbytes)
    head = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    head += b" " * (-len(head) % 8)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC + np.array([len(head), size, 0], "<i8").tobytes() + head)
            crc = zlib.crc32(head)
            for _, a in arrays:
                data, padding = a.reshape(-1).view(np.uint8), bytes(-a.nbytes % 8)
                fh.write(data)
                fh.write(padding)
                crc = zlib.crc32(padding, zlib.crc32(data, crc))
            fh.seek(_PREFIX - 8)
            fh.write(np.array(crc, "<i8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _entries(head: bytes, size: int) -> list:
    """(name, dtype, shape, offset, nbytes) per member of `head`, checked to
    tile a payload of `size` bytes in order."""
    try:
        entries = json.loads(head)
    except RecursionError:
        raise ValueError("its head nests too deep") from None
    if not isinstance(entries, list):
        raise ValueError("its head is not a list")
    members, names, end = [], set(), 0
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4 and isinstance(entry[0], str)
                and isinstance(entry[1], str) and isinstance(entry[2], list)):
            raise ValueError(f"a head entry is not [name, dtype, shape, offset]: {entry!r:.80}")
        name, descr, shape, offset = entry
        try:
            dtype = np.dtype(descr)
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.str != descr:
            raise ValueError(f"member {name!r} has the unknown dtype {descr!r:.40}")
        if len(shape) > 64 or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"member {name!r} has the shape {shape!r:.80}")
        nbytes = math.prod(shape) * _checked(dtype).itemsize
        if offset != end or end + nbytes > size or name in names:
            raise ValueError(f"member {name!r} is not where the head's order puts it")
        names.add(name)
        members.append((name, dtype, shape, offset, nbytes))
        end += _padded(nbytes)
    if end != size:
        raise ValueError(f"its members end at byte {end} of a {size}-byte payload")
    return members


def read(fh, last_apart: bool = False) -> tuple[dict, list]:
    """The members of the file open on `fh` (binary, at its start) by name,
    and the file's bytes as they were read: a list of buffers, in order.

    Each member is a writable view of one buffer; with `last_apart`, the last
    one is a view of a bytes object of its own, which the others do not keep
    alive. A file without the magic line, with lengths that disagree with
    its size, a head that does not describe its payload (an object or
    structured dtype, a shape that is not non-negative ints, a member out of
    order or out of the payload) or a failed CRC-32 raises a ValueError.
    """
    prefix = fh.read(_PREFIX)
    if len(prefix) != _PREFIX or not prefix.startswith(MAGIC):
        raise ValueError("no recsuite magic line")
    n_head, size, crc = np.frombuffer(prefix, "<i8", 3, len(MAGIC)).tolist()
    if min(n_head, size) < 0 or _PREFIX + n_head + size != os.fstat(fh.fileno()).st_size:
        raise ValueError("the lengths it records disagree with its size")
    head = fh.read(n_head)
    entries = _entries(head, size)
    split = entries[-1][3] if last_apart and entries else size
    buf = np.empty(split, np.uint8)
    n_read, rest = fh.readinto(buf), fh.read(size - split)
    if n_read + len(rest) != size or zlib.crc32(rest, zlib.crc32(buf, zlib.crc32(head))) != crc:
        raise ValueError("it fails its CRC-32")
    members = {name: (buf[offset:offset + nbytes].view(dtype) if offset < split else
                      np.frombuffer(rest, dtype, nbytes // dtype.itemsize)).reshape(shape)
               for name, dtype, shape, offset, nbytes in entries}
    return members, [prefix, head, buf, rest]
