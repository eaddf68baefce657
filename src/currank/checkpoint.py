"""Versioned binary checkpoint files.

Layout: magic, a length-prefixed JSON header (kind tag, dims, vocab,
array manifest, arbitrary metadata), then raw little-endian float64
array bytes in manifest order. The byte stream is fully deterministic,
so identical parameters always produce identical file digests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .towers import PARAM_NAMES, DualEncoderParams, Vocab, params_of, split_flat

MAGIC = b"CURRANK1"
FORMAT_VERSION = 1


def save_checkpoint(
    path: str | Path,
    kind: str,
    params: DualEncoderParams,
    vocab: Vocab,
    extra_arrays: dict[str, np.ndarray] | None = None,
    meta: dict | None = None,
) -> None:
    extras = dict(sorted((extra_arrays or {}).items()))
    if extras.keys() & set(PARAM_NAMES):
        raise ValueError(f"reserved array name among {list(extras)}")
    arrays = {**params.named(), **extras}
    header = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "vocab": vocab.tokens,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, b"".join([
        MAGIC, struct.pack("<I", len(blob)), blob,
        *(np.ascontiguousarray(arr, dtype="<f8").tobytes()
          for arr in (params.flat, *extras.values())),
    ]))


def load_checkpoint(
    path: str | Path, expect_kind: str | None = None
) -> tuple[DualEncoderParams, Vocab, dict[str, np.ndarray], dict]:
    with open(path, "rb") as fp:
        if fp.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<I", _read_exact(fp, 4, path, "header length"))
        header = json.loads(_read_exact(fp, hlen, path, "header"))
        if header["version"] != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {header['version']}")
        if expect_kind is not None and header["kind"] != expect_kind:
            raise ValueError(
                f"{path}: checkpoint kind {header['kind']!r}, expected {expect_kind!r}"
            )
        names, shapes = zip(*header["arrays"])
        k = len(PARAM_NAMES)
        if names[:k] != PARAM_NAMES:
            raise ValueError(f"{path}: parameter arrays {names[:k]} out of order")
        sizes = [math.prod(shape) for shape in shapes]
        data = np.frombuffer(_read_exact(fp, sum(sizes) * 8, path, "arrays"), dtype="<f8")
    n = sum(sizes[:k])  # parameters first, then the extra arrays
    params = params_of(data[:n].copy(), shapes[:k])
    arrays = dict(zip(names[k:], split_flat(data[n:].copy(), shapes[k:])))
    vocab = Vocab.__new__(Vocab)
    vocab.tokens = list(header["vocab"])
    if vocab.tokens[:2] != Vocab(()).tokens:  # the reserved pad and unknown tokens
        raise ValueError(f"{path}: vocabulary does not start with {Vocab(()).tokens}")
    vocab.index = {t: i for i, t in enumerate(vocab.tokens)}
    return params, vocab, arrays, header["meta"]


def _read_exact(fp, n: int, path, what: str) -> bytes:
    buf = fp.read(n)
    if len(buf) != n:
        raise ValueError(
            f"{path}: truncated checkpoint ({what}: {len(buf)} of {n} bytes)"
        )
    return buf


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to `path` through a temporary file in the same directory
    and `os.replace`, so that a reader or a failed write finds the old file
    or the new one, never part of one. The temporary file is removed when
    the write fails; it is not fsynced, so this guards against a crashing
    process, not against a power cut."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
