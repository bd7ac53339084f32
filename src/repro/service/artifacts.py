"""On-disk artifact store for computed dominator chains.

Layout (under one root directory)::

    root/
      index.json                      # {"versions": {circuit_key: int}}
      <key[:2]>/<key>/v<version>/<safe_output>.json

One artifact file holds every target chain of one output cone —
``{"targets": {target_name: chain.to_dict()}, "meta": {...}}`` — because
the sweep workload always computes a cone's chains together (the region
cache makes per-cone batching the natural unit).  Every backend and
kernels setting produces bit-identical chains, so neither is part of the
key: one cone has one artifact.

Invalidation is *versioned*: :meth:`ArtifactStore.invalidate` bumps the
circuit's version counter in ``index.json``; artifacts written under
older versions become unreachable (and are garbage-collected lazily).
This mirrors the :class:`~repro.core.region_cache.RegionCache` contract
— entries survive until the structure they were computed from changes —
and is wired to the incremental edit machinery through
:meth:`listener_for`, which returns a callback suitable for
:meth:`repro.incremental.IncrementalEngine.add_edit_listener`.

Writes are atomic (tmp file + ``os.replace``) so a killed worker never
leaves a torn artifact behind.

The store is safe under **concurrent writers**: every in-memory index
mutation happens under one re-entrant thread lock, and cross-process
writers (a daemon plus a CLI sweep over the same root, or several
threads each holding their own store) are serialized by advisory file
locks — a global ``index.lock`` around every read-merge-write of
``index.json`` (saves merge the on-disk versions first, so one writer's
bump is never erased by another's stale snapshot) and a per-circuit
``locks/<key>.lock`` held across version bumps, stale-directory cleanup
and artifact writes, so a ``put`` can never race an ``invalidate``'s
``rmtree`` into a half-deleted directory.  On platforms without
``fcntl`` the file locks degrade to the thread lock alone.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from .hashing import safe_key
from .metrics import MetricsRegistry

_INDEX = "index.json"
_INDEX_LOCK = "index.lock"
_LOCK_DIR = "locks"
#: Artifact schema version — bump when the on-disk layout changes.
#: v2: artifacts are additionally keyed by chain-construction backend
#: (one ``<backend>/`` path segment and a ``meta["backend"]`` field), so
#: differential runs never serve one backend's cached result to the
#: other.
#: v3: a ``<kernels>/`` path segment and ``meta["kernels"]`` field key
#: artifacts by hot-path implementation too.
#: v4: both segments and meta fields are gone again — chains are
#: bit-identical across backends and kernels by contract (the oracle
#: cross-checks it), so the extra keys only stored the same answer twice.
FORMAT_VERSION = 4


class ArtifactStore:
    """Persistent chain artifacts keyed by circuit fingerprint + cone.

    Parameters
    ----------
    root:
        Directory to store artifacts under (created on demand).
    metrics:
        Optional registry; hits/misses/writes/invalidations are counted
        under ``artifacts.*``.
    """

    def __init__(
        self, root: str, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        self._versions: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._load_index()

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    @contextmanager
    def _flocked(self, path: Path):
        """Advisory exclusive file lock (no-op where fcntl is missing)."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    @contextmanager
    def _circuit_locked(self, circuit_key: str):
        """Thread lock + per-circuit file lock, in that fixed order."""
        with self._lock:
            with self._flocked(
                self.root / _LOCK_DIR / f"{safe_key(circuit_key)}.lock"
            ):
                yield

    # ------------------------------------------------------------------
    # index handling
    # ------------------------------------------------------------------
    def _read_disk_versions(self) -> Dict[str, int]:
        path = self.root / _INDEX
        if not path.exists():
            return {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            # A torn index is recoverable: treat every circuit as v0 and
            # let the next write rebuild it.
            self._count("artifacts.index_resets")
            return {}
        versions = data.get("versions", {})
        if not isinstance(versions, dict):
            return {}
        return {str(k): int(v) for k, v in versions.items()}

    def _load_index(self) -> None:
        with self._lock:
            self._versions.update(self._read_disk_versions())

    def _merge_disk_versions(self) -> None:
        """Fold newer on-disk versions into memory (caller holds locks)."""
        for key, version in self._read_disk_versions().items():
            if version > self._versions.get(key, 0):
                self._versions[key] = version

    def _save_index(self) -> None:
        """Persist the version map, merging concurrent writers' bumps.

        The read-merge-write runs under the global index file lock, so a
        second store on the same root (another thread or process) can
        never erase this store's bumps with a stale snapshot — versions
        only move forward.
        """
        with self._lock:
            with self._flocked(self.root / _INDEX_LOCK):
                self._merge_disk_versions()
                path = self.root / _INDEX
                tmp = path.with_suffix(".json.tmp")
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(
                        {
                            "format": FORMAT_VERSION,
                            "versions": self._versions,
                        },
                        handle,
                        indent=2,
                        sort_keys=True,
                    )
                os.replace(tmp, path)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    def version(self, circuit_key: str) -> int:
        """Current version of a circuit's artifacts (0 = never bumped)."""
        with self._lock:
            return self._versions.get(circuit_key, 0)

    def invalidate(self, circuit_key: str) -> int:
        """Bump the circuit's version; all its prior artifacts go stale.

        The old version directories are removed eagerly (best-effort) so
        disk use stays bounded under edit-heavy workloads.  Returns the
        new version.

        Runs entirely under the circuit's lock: the bump starts from the
        merged on-disk version (so same-circuit invalidations through
        different stores strictly increment), and the stale-directory
        cleanup cannot race a concurrent :meth:`put` on this circuit
        into a half-deleted directory.
        """
        with self._circuit_locked(circuit_key):
            self._merge_disk_versions()
            new_version = self._versions.get(circuit_key, 0) + 1
            self._versions[circuit_key] = new_version
            self._save_index()
            self._count("artifacts.invalidations")
            circuit_dir = self._circuit_dir(circuit_key)
            if circuit_dir.exists():
                for entry in circuit_dir.iterdir():
                    if entry.is_dir() and entry.name != f"v{new_version}":
                        shutil.rmtree(entry, ignore_errors=True)
            return new_version

    def listener_for(self, circuit_key: str) -> Callable[[], None]:
        """Edit callback bumping this circuit's version on every call.

        Designed for
        :meth:`repro.incremental.IncrementalEngine.add_edit_listener`:
        once registered, any applied edit invalidates the edited
        circuit's on-disk artifacts.
        """

        def _on_edit() -> None:
            self.invalidate(circuit_key)

        return _on_edit

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _circuit_dir(self, circuit_key: str) -> Path:
        return self.root / circuit_key[:2] / circuit_key

    def _artifact_path(self, circuit_key: str, output: str) -> Path:
        version = self.version(circuit_key)
        return (
            self._circuit_dir(circuit_key)
            / f"v{version}"
            / f"{safe_key(output)}.json"
        )

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(
        self, circuit_key: str, output: str
    ) -> Optional[Dict[str, Dict[str, object]]]:
        """Stored ``{target_name: chain_dict}`` for a cone, if current.

        Only artifacts written under the circuit's *current* version in
        the current format are served; anything else is a miss.
        """
        path = self._artifact_path(circuit_key, output)
        if not path.exists():
            self._count("artifacts.misses")
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            self._count("artifacts.read_errors")
            self._count("artifacts.misses")
            return None
        if data.get("meta", {}).get("format") != FORMAT_VERSION:
            self._count("artifacts.misses")
            return None
        self._count("artifacts.hits")
        return data["targets"]

    def put(
        self,
        circuit_key: str,
        output: str,
        targets: Dict[str, Dict[str, object]],
    ) -> Path:
        """Persist one cone's chains (atomic). Returns the file path.

        Holds the circuit's lock so the version read, the directory
        creation and the atomic rename are one unit with respect to a
        concurrent :meth:`invalidate` (whose cleanup would otherwise
        delete the directory between ``mkdir`` and ``os.replace``).
        """
        with self._circuit_locked(circuit_key):
            path = self._artifact_path(circuit_key, output)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                "meta": {
                    "format": FORMAT_VERSION,
                    "circuit": circuit_key,
                    "output": output,
                    "version": self.version(circuit_key),
                },
                "targets": targets,
            }
            tmp = path.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        self._count("artifacts.writes")
        return path

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def hit_ratio(self) -> float:
        """Fraction of gets served from disk (0.0 without metrics)."""
        if self.metrics is None:
            return 0.0
        hits = self.metrics.counter("artifacts.hits").value
        misses = self.metrics.counter("artifacts.misses").value
        total = hits + misses
        return hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(root={str(self.root)!r}, circuits={len(self._versions)})"
