"""Binary checkpoint format: the unit of transfer surgery.

Layout: 8-byte magic "PTLCKPT1", u64 header length, UTF-8 JSON header
(model config, vocabulary content hashes, provenance record, schedule state,
and per-tensor byte offsets), then named tensor records, each
(u32 name length, name bytes, u8 dtype tag, u8 rank, u64 dims, little-endian
payload). The header JSON is serialized with sorted keys and fixed
separators and tensors are written in sorted name order, so
save(load(save(x))) is bitwise identical.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .fileio import write_atomic

MAGIC = b"PTLCKPT1"
_DTYPE_TAGS = {"float32": 0, "float64": 1}
_TAG_DTYPES = {0: "<f4", 1: "<f8"}


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    """Named parameter tensors plus configuration and training metadata."""

    params: dict  # name -> np.ndarray
    config: dict
    src_vocab_hash: str
    tgt_vocab_hash: str
    provenance: dict = field(default_factory=dict)
    schedule_state: dict = field(default_factory=dict)

    def group_params(self, group: str) -> dict:
        prefix = group + "/"
        return {n: a for n, a in self.params.items() if n.startswith(prefix)}

    def group_hash(self, group: str) -> str:
        h = hashlib.sha256()
        for n in sorted(self.group_params(group)):
            h.update(n.encode("utf-8"))
            h.update(np.ascontiguousarray(self.params[n]).tobytes())
        return h.hexdigest()

    def _serialize(self) -> bytes:
        names = sorted(self.params)
        records = []
        offset = 0
        blobs = []
        for n in names:
            arr = np.ascontiguousarray(self.params[n])
            if arr.dtype.name not in _DTYPE_TAGS:
                raise CheckpointError(f"unsupported dtype {arr.dtype} for {n}")
            name_b = n.encode("utf-8")
            rec = struct.pack("<I", len(name_b)) + name_b
            rec += struct.pack("<BB", _DTYPE_TAGS[arr.dtype.name], arr.ndim)
            rec += struct.pack(f"<{arr.ndim}Q", *arr.shape)
            payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
            rec += payload
            records.append(
                {"name": n, "dtype": arr.dtype.name, "shape": list(arr.shape), "offset": offset}
            )
            blobs.append(rec)
            offset += len(rec)
        header = {
            "config": self.config,
            "provenance": self.provenance,
            "schedule": self.schedule_state,
            "tensors": records,
            "vocab": {"src": self.src_vocab_hash, "tgt": self.tgt_vocab_hash},
        }
        header_b = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        out = io.BytesIO()
        out.write(MAGIC)
        out.write(struct.pack("<Q", len(header_b)))
        out.write(header_b)
        for b in blobs:
            out.write(b)
        return out.getvalue()

    def save(self, path):
        write_atomic(path, self._serialize())

    def content_hash(self) -> str:
        return hashlib.sha256(self._serialize()).hexdigest()

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint; any truncation, trailing bytes or malformed
        field raises `CheckpointError`."""
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:8] != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        try:
            return cls._parse(raw)
        except (ValueError, KeyError, TypeError, OverflowError, struct.error) as e:
            # json and utf-8 decoding errors are ValueErrors
            raise CheckpointError(f"{path} is truncated or corrupt: {type(e).__name__}: {e}") from None

    @classmethod
    def _parse(cls, raw: bytes) -> "Checkpoint":
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        base = end = 16 + header_len
        params = {}
        for rec in header["tensors"]:
            pos = base + rec["offset"]
            (name_len,) = struct.unpack("<I", raw[pos : pos + 4])
            pos += 4
            name = raw[pos : pos + name_len].decode("utf-8")
            pos += name_len
            tag, rank = struct.unpack("<BB", raw[pos : pos + 2])
            pos += 2
            dims = struct.unpack(f"<{rank}Q", raw[pos : pos + 8 * rank])
            pos += 8 * rank
            if name != rec["name"]:
                raise CheckpointError(f"tensor record/header mismatch at {rec['name']}")
            dt = np.dtype(_TAG_DTYPES[tag])
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(raw, dtype=dt, count=count, offset=pos).reshape(dims)
            params[name] = arr.copy()
            end = pos + arr.nbytes
        if end != len(raw):
            raise CheckpointError(f"{len(raw) - end} bytes after the last tensor record")
        return cls(
            params=params,
            config=header["config"],
            src_vocab_hash=header["vocab"]["src"],
            tgt_vocab_hash=header["vocab"]["tgt"],
            provenance=header["provenance"],
            schedule_state=header["schedule"],
        )
