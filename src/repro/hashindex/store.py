"""Memory-mapped payload storage for compressed indexes.

A million-row gallery must not live in resident RAM on a
:class:`~repro.retrieval.nodes.DataNode`: packed codes, PQ code tables,
and the exact float features used by the rerank stage are spilled to
``.npy`` files and reopened as read-only ``np.memmap`` views.  The OS
pages in only what a search touches — Hamming scans stream the (tiny)
code payload, and the rerank gathers a few dozen float rows per query —
so the resident footprint of a memory-mapped index stays a small
fraction of the float-feature matrix it replaces.

The store tracks mapped bytes in the ``hashindex.bytes_mapped`` gauge
and exposes them for the BENCH_ann memory accounting.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import uuid

import numpy as np

from repro.obs import counter, gauge

#: Total bytes currently memory-mapped across live stores (obs gauge
#: value mirrors this).
_TOTAL_MAPPED_BYTES = 0


def _adjust_mapped(delta: int) -> None:
    global _TOTAL_MAPPED_BYTES
    _TOTAL_MAPPED_BYTES = max(0, _TOTAL_MAPPED_BYTES + int(delta))
    gauge("hashindex.bytes_mapped").set(_TOTAL_MAPPED_BYTES)


def total_mapped_bytes() -> int:
    """Bytes currently mapped across every live :class:`MemmapStore`."""
    return _TOTAL_MAPPED_BYTES


class MemmapStore:
    """A directory of named, read-only memory-mapped arrays.

    ``put`` persists an array and returns a read-only memmap view;
    re-``put`` with the same name atomically replaces the payload (the
    old mapping is unaccounted first).  Stores created without an
    explicit directory own a temp directory that is removed on
    :meth:`close` (and, as a backstop, at interpreter exit).
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._owns_dir = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-hashindex-")
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._arrays: dict[str, np.ndarray] = {}
        self._closed = False
        if self._owns_dir:
            atexit.register(self.close)

    # ------------------------------------------------------------------ #
    def _path(self, name: str) -> str:
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_"
                       for ch in str(name))
        return os.path.join(self.directory, f"{safe}.npy")

    def put(self, name: str, array: np.ndarray) -> np.ndarray:
        """Persist ``array`` under ``name``; returns a read-only memmap."""
        if self._closed:
            raise RuntimeError("store is closed")
        array = np.ascontiguousarray(array)
        path = self._path(name)
        tmp_path = f"{path}.{uuid.uuid4().hex}.tmp"
        with open(tmp_path, "wb") as handle:
            np.save(handle, array)
        os.replace(tmp_path, path)
        self._drop(name)
        mapped = np.load(path, mmap_mode="r")
        self._arrays[name] = mapped
        _adjust_mapped(mapped.nbytes)
        counter("hashindex.memmap_writes").inc()
        return mapped

    def get(self, name: str) -> np.ndarray:
        """The read-only memmap stored under ``name``."""
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    @property
    def mapped_bytes(self) -> int:
        """Bytes this store currently has mapped."""
        return sum(view.nbytes for view in self._arrays.values())

    def drop(self, suffix: str) -> None:
        """Unmap and delete every array whose name ends with ``suffix``;
        views already handed out stay readable."""
        for name in [name for name in self._arrays if name.endswith(suffix)]:
            self._drop(name)
            os.remove(self._path(name))

    def _drop(self, name: str) -> None:
        existing = self._arrays.pop(name, None)
        if existing is not None:
            _adjust_mapped(-existing.nbytes)
            # Release the mapping promptly (memmap closes with its mmap
            # object when the last view is garbage-collected).
            del existing

    def close(self) -> None:
        """Unaccount all mappings and delete an owned temp directory."""
        if self._closed:
            return
        for name in list(self._arrays):
            self._drop(name)
        self._closed = True
        if self._owns_dir:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


__all__ = ["MemmapStore", "total_mapped_bytes"]
