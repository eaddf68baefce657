"""Run manifests: the reproducibility record every command leaves behind.

A manifest snapshots the effective configuration, the master seed, and
sha256 digests of all inputs and outputs. Re-running a command with the
manifest's configuration must reproduce the recorded output digests
byte for byte (timestamps live only in the manifest itself).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .checkpoint import file_digest, write_atomic

MANIFEST_NAME = "manifest.json"


@dataclass
class RunManifest:
    command: str
    config: dict
    master_seed: int | None
    input_digests: dict[str, str]
    output_digests: dict[str, str]
    scorer_digest: str = ""
    tool_version: str = __version__
    created_at: str = ""


def digest_paths(paths: list[Path], base: Path | None = None) -> dict[str, str]:
    out = {}
    for p in paths:
        key = str(p.relative_to(base)) if base else str(p)
        out[key] = file_digest(p)
    return out


def write_manifest(out_dir: Path, manifest: RunManifest) -> Path:
    manifest.created_at = datetime.now(timezone.utc).isoformat()
    path = out_dir / MANIFEST_NAME
    write_atomic(path, (json.dumps(asdict(manifest), sort_keys=True, indent=2) + "\n").encode())
    return path
