"""Run manifests: what ran, with which config digest and seed.

Every CLI command drops a ``<command>_manifest.json`` next to its
outputs. The digest is a sha256 over the canonical JSON encoding of the
effective configuration, so reruns are auditable across platforms.
Manifests carry timestamps and are therefore the one output excluded
from byte-identity checks.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

__all__ = ["ARTIFACT_VERSION", "config_digest", "write_manifest"]

ARTIFACT_VERSION = __version__


def config_digest(config) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(out_dir, command: str, config, seed: int, outputs: list[str], started: str) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "config_digest": config_digest(config),
        "seed": seed,
        "artifact_version": ARTIFACT_VERSION,
        "started_at": started,
        "finished_at": now_utc(),
        "outputs": sorted(outputs),
    }
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def now_utc() -> str:
    return datetime.now(timezone.utc).isoformat()
