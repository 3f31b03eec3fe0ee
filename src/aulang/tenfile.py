"""Tiny binary tensor format plus key=value manifest files.

Layout of a tensor file, all little-endian:

    bytes 0..3   magic "TEN1"
    bytes 4..7   rank as uint32
    next rank*4  dims as uint32 each
    rest         float32 payload, C order

Manifests are plain text, one ``key = value`` per line; values are strings
and callers own any further parsing.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"TEN1"


def write_tensor(path, array) -> None:
    # astype keeps rank 0 intact where ascontiguousarray would promote it
    arr = np.asarray(array).astype("<f4", order="C", copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise ValueError(f"{path}: header truncated at {len(blob)} bytes")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if len(blob) < 8 + 4 * rank:
        raise ValueError(f"{path}: header of rank {rank} truncated at {len(blob)} bytes")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    data = np.frombuffer(blob, dtype="<f4", offset=8 + 4 * rank)
    expect = int(np.prod(dims)) if rank else 1
    if data.size != expect:
        raise ValueError(f"{path}: payload holds {data.size} floats, header says {expect}")
    return data.reshape(dims).copy()


def write_kv(path, mapping) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def read_kv(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed line {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
