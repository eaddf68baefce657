"""Versioned binary checkpoint files.

Layout: magic, a length-prefixed JSON header (kind tag, dims, vocab,
array manifest, arbitrary metadata), then raw little-endian float64
array bytes in manifest order. The byte stream is fully deterministic,
so identical parameters always produce identical file digests.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .towers import PARAM_NAMES, DualEncoderParams, Tower, Vocab, param_arrays

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
    arrays = dict(zip(PARAM_NAMES, param_arrays(params)))
    for name, arr in (extra_arrays or {}).items():
        if name in arrays:
            raise ValueError(f"reserved array name {name!r}")
        arrays[name] = arr
    order = [*PARAM_NAMES, *sorted(set(arrays) - set(PARAM_NAMES))]
    header = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "vocab": vocab.tokens,
        "arrays": [[name, list(arrays[name].shape)] for name in order],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fp:
        fp.write(MAGIC)
        fp.write(struct.pack("<I", len(blob)))
        fp.write(blob)
        for name in order:
            fp.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


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
        arrays: dict[str, np.ndarray] = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape)) if shape else 1
            buf = _read_exact(fp, count * 8, path, f"array {name!r}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    emb, *tower_arrays = (arrays.pop(name) for name in PARAM_NAMES)
    params = DualEncoderParams(emb, Tower(*tower_arrays[:4]), Tower(*tower_arrays[4:]))
    vocab = Vocab.__new__(Vocab)
    vocab.tokens = list(header["vocab"])
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
