"""Binary checkpoint container.

Layout: 8 magic bytes ``DOMUSFM1``, a little-endian uint64 header length, a
UTF-8 JSON header listing parameter groups and their tensors (name, dtype,
shape, byte offset into the payload), then the raw little-endian float32
tensor payloads in header order.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from typing import Iterable

import numpy as np

from .nn import ParamGroup

MAGIC = b"DOMUSFM1"
_DTYPES = {"f4": "<f4"}


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def _header(groups: list[ParamGroup], meta: dict | None) -> tuple[bytes, list[np.ndarray]]:
    entries = []
    payload: list[np.ndarray] = []
    offset = 0
    for group in groups:
        tensors = []
        for name, t in group.tensors.items():
            arr = np.ascontiguousarray(t.data, dtype="<f4")
            tensors.append({
                "name": name,
                "dtype": "f4",
                "shape": list(arr.shape),
                "offset": offset,
            })
            payload.append(arr)
            offset += arr.nbytes
        entries.append({"name": group.name, "tensors": tensors})
    header = {"format": 1, "groups": entries}
    if meta:
        header["meta"] = meta
    raw = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    return raw, payload


def atomic_write(path: str, chunks: Iterable):
    """Write ``chunks`` (bytes-like) to ``path`` through a temp file beside it.

    The temp file replaces ``path`` only once every chunk is written; on any
    failure it is removed and ``path`` is left as it was. The file gets the
    mode ``open()`` would give it (0666 less the umask), not ``mkstemp``'s 0600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str, groups: list[ParamGroup], meta: dict | None = None):
    """Atomically write a checkpoint (temp file + rename)."""
    raw, payload = _header(groups, meta)
    atomic_write(path, [MAGIC, struct.pack("<Q", len(raw)), raw, *payload])


def read_checkpoint(path: str) -> tuple[list[ParamGroup], dict]:
    """Parse a checkpoint into fresh ParamGroups plus the meta dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"bad magic bytes in {path!r}")
    if len(blob) < 16:
        raise CheckpointError(f"truncated checkpoint {path!r}: {len(blob)} bytes, "
                              f"no header length")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    payload = blob[16 + header_len:]
    try:
        groups = [_read_group(gspec, payload) for gspec in header["groups"]]
        meta = header.get("meta", {})
        if not isinstance(meta, dict) or not isinstance(meta.get("config", {}), dict):
            raise TypeError("meta and meta.config must be objects")
    except (KeyError, TypeError) as exc:  # a missing field, or one of the wrong type
        raise CheckpointError(f"malformed checkpoint header in {path!r}: {exc!r}") from exc
    return groups, meta


def _read_group(gspec: dict, payload: bytes) -> ParamGroup:
    """One group from its header entry; other keys (older files' ``frozen``) are ignored."""
    group = ParamGroup(gspec["name"])
    for tspec in gspec["tensors"]:
        if tspec["dtype"] not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {tspec['dtype']!r} "
                                  f"for tensor {tspec['name']!r}")
        shape = tuple(tspec["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = tspec["offset"]
        end = start + 4 * count
        if end > len(payload):
            raise CheckpointError(f"tensor {tspec['name']!r} overruns payload")
        arr = np.frombuffer(payload[start:end], dtype=_DTYPES[tspec["dtype"]])
        group.add(tspec["name"], arr.reshape(shape).copy())
    return group


def load_into_groups(path: str, groups: dict[str, ParamGroup],
                     config: dict | None = None) -> dict:
    """Load a checkpoint into existing groups.

    Every checkpoint tensor must exist in the model with the same shape; then
    each ``config`` entry must equal the one in the checkpoint's ``meta.config``
    (a key the checkpoint lacks is not compared); then every group the
    checkpoint holds must hold no other tensors in the model. All of it is
    validated before any parameter is touched, so a mismatch leaves the model
    unchanged.
    """
    loaded, meta = read_checkpoint(path)
    plan = []
    for lg in loaded:
        if lg.name not in groups:
            raise CheckpointError(f"checkpoint group {lg.name!r} missing from model")
        target = groups[lg.name]
        for name, t in lg.tensors.items():
            if name not in target.tensors:
                raise CheckpointError(f"checkpoint tensor {lg.name}/{name} missing from model")
            if target.tensors[name].data.shape != t.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {lg.name}/{name}: checkpoint "
                    f"{t.data.shape}, model {target.tensors[name].data.shape}")
            plan.append((target, name, t.data))
    saved = meta.get("config", {})
    for key, value in (config or {}).items():
        if key in saved and saved[key] != value:
            raise CheckpointError(f"checkpoint was trained with {key}={saved[key]}, "
                                  f"config says {key}={value}")
    for lg in loaded:
        missing = sorted(groups[lg.name].tensors.keys() - lg.tensors.keys())
        if missing:
            raise CheckpointError(f"model tensors {lg.name}/{missing} missing from checkpoint")
    for target, name, data in plan:
        target.tensors[name].data = data.astype(target.tensors[name].data.dtype)
    return meta
