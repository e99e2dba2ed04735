"""Zero-copy graph transport for the shard fleet.

The sharded campaign service (:mod:`repro.serve.shard`) runs one
:class:`~repro.serve.CampaignServer` per worker process over the same
graph. Instead of pickling a private graph copy into every worker, the
router publishes the graph once in *named* shared storage and workers
attach by a tiny picklable handle, mapping the same physical pages
read-only:

* :class:`SharedArrayPack` — owns one named backing store holding
  several numpy arrays. Small packs live in POSIX shared memory
  (:mod:`multiprocessing.shared_memory`); packs that exceed
  :data:`SPILL_THRESHOLD_BYTES` spill to a ``numpy.memmap`` file when a
  spill directory is configured (the kernel pages them on demand).
  :class:`PackHandle` is its picklable address; attachments are cached
  per process, so a worker maps each pack exactly once.
* :class:`SharedTagGraph` — a whole :class:`~repro.graphs.TagGraph`
  (edge endpoints plus the per-tag probability table) published as one
  pack; :meth:`TagGraphHandle.attach` rebuilds a ``TagGraph`` whose
  edge arrays alias the shared pages.

Lifecycle notes. Workers share the creator's ``resource_tracker``
daemon, so a worker re-attaching to a segment is a no-op registration
and exactly one unregister happens — in the creator's unlink. Creation
is tracked in :func:`active_tokens` and every owner carries a
``weakref.finalize`` guard, so even an owner that is never unlinked
explicitly cannot leak ``/dev/shm`` entries (or spill files) past
garbage collection.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    shared_memory = None

#: Arrays past this total size spill to a memmap file instead of POSIX
#: shared memory, provided the owner was given a ``spill_dir``. ``/dev/shm``
#: is RAM-backed, so spilling is what lets a graph bigger than memory
#: still be shared (the OS pages the file in on demand).
SPILL_THRESHOLD_BYTES = 1 << 31

#: 64-byte alignment for every array inside a segment (cache-line sized,
#: and satisfies any numpy dtype alignment requirement).
_ALIGN = 64

#: Tokens (shm names / spill paths) created and not yet unlinked by this
#: process. Tests assert this drains back to empty — a leak here is a
#: leak in ``/dev/shm`` or the spill directory.
_LIVE_TOKENS: set[str] = set()

#: Per-process attachment cache: ``(backend, token) -> (resource, arrays)``.
#: ``resource`` keeps the mapping alive (``SharedMemory`` object or
#: ``np.memmap``); ``arrays`` are read-only views into it.
_ATTACH_CACHE: dict[tuple[str, str], tuple[object, dict[str, np.ndarray]]] = {}


def active_tokens() -> frozenset[str]:
    """Backing-store tokens created by this process and still live."""
    return frozenset(_LIVE_TOKENS)


def _plan_layout(
    arrays: dict[str, np.ndarray],
) -> tuple[int, tuple[tuple[str, int, tuple[int, ...], str], ...]]:
    """Total byte size + per-array ``(name, offset, shape, dtype)`` slots."""
    offset = 0
    slots = []
    for name, arr in arrays.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        slots.append((name, offset, arr.shape, arr.dtype.str))
        offset += arr.nbytes
    return max(offset, 1), tuple(slots)


def _views(
    buf, layout: tuple[tuple[str, int, tuple[int, ...], str], ...],
    writeable: bool = False,
) -> dict[str, np.ndarray]:
    """Array views into ``buf`` following ``layout``."""
    out = {}
    for name, offset, shape, dtype in layout:
        count = int(np.prod(shape, dtype=np.int64))
        view = np.frombuffer(buf, dtype=np.dtype(dtype), count=count,
                             offset=offset).reshape(shape)
        if not writeable:
            view = view.view()
            view.flags.writeable = False
        out[name] = view
    return out


def _attach(
    backend: str, token: str,
    layout: tuple[tuple[str, int, tuple[int, ...], str], ...],
) -> tuple[object, dict[str, np.ndarray]]:
    """Map an existing segment/file; returns ``(resource, views)``."""
    if backend == "mmap":
        mm = np.memmap(token, dtype=np.uint8, mode="r")
        return mm, _views(mm, layout)
    # Note: attaching re-registers the name with the resource tracker on
    # Python < 3.13, but fleet workers inherit the *parent's* tracker
    # daemon, whose cache is a set — the re-register is a no-op and the
    # single unregister happens in the creator's unlink. Unregistering
    # here would cancel the creator's registration and desync the
    # tracker (KeyError storms at shutdown).
    shm = shared_memory.SharedMemory(name=token)
    return shm, _views(shm.buf, layout)


def _attach_cached(
    backend: str, token: str,
    layout: tuple[tuple[str, int, tuple[int, ...], str], ...],
) -> dict[str, np.ndarray]:
    """Per-process cached attach: each (backend, token) maps once."""
    key = (backend, token)
    entry = _ATTACH_CACHE.get(key)
    if entry is None:
        entry = _attach(backend, token, layout)
        _ATTACH_CACHE[key] = entry
    return entry[1]


#: Mappings that could not be closed because a caller still holds views
#: into them (e.g. a TagGraph kept past unlink). Held here so their
#: ``__del__`` never runs mid-process and raises an unraisable
#: BufferError; the OS reclaims the mappings at process exit.
_ZOMBIE_MAPPINGS: list[object] = []


def _evict(backend: str, token: str) -> None:
    """Drop a cached attachment (creator-side, on unlink)."""
    entry = _ATTACH_CACHE.pop((backend, token), None)
    if entry is None:
        return
    resource, arrays = entry
    arrays.clear()
    if hasattr(resource, "close"):
        try:
            resource.close()
        except BufferError:
            # Someone still holds a view. The backing *name* is gone
            # either way; park the mapping until process exit.
            _ZOMBIE_MAPPINGS.append(resource)


@dataclass(frozen=True)
class PackHandle:
    """Picklable address of one shared array pack.

    ``backend`` is ``"shm"`` or ``"mmap"``; ``token`` is the segment
    name or spill-file path; ``layout`` places each named array inside
    the mapping. Handles are tiny (a few hundred bytes) regardless of
    graph size — that is the whole point.
    """

    backend: str
    token: str
    layout: tuple[tuple[str, int, tuple[int, ...], str], ...]

    def attach(self) -> dict[str, np.ndarray]:
        """Read-only views of the pack's arrays (cached per process)."""
        return _attach_cached(self.backend, self.token, self.layout)


class SharedArrayPack:
    """Owner of one named shared segment holding several numpy arrays.

    The creating process writes every array once at construction and
    keeps read-only views of its own (registered in the attach cache, so
    in-process ``handle.attach()`` is free). :meth:`unlink` destroys the
    backing store; a ``weakref.finalize`` guard makes that automatic at
    garbage collection for owners that are never closed explicitly.
    """

    def __init__(
        self,
        arrays: dict[str, np.ndarray],
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
    ) -> None:
        arrays = {
            name: np.ascontiguousarray(arr) for name, arr in arrays.items()
        }
        total, layout = _plan_layout(arrays)
        threshold = (
            SPILL_THRESHOLD_BYTES if spill_threshold is None
            else spill_threshold
        )
        if spill_dir is not None and total >= threshold:
            backend = "mmap"
            fd, token = tempfile.mkstemp(suffix=".csrpack", dir=spill_dir)
            os.close(fd)
            resource = np.memmap(token, dtype=np.uint8, mode="r+",
                                 shape=(total,))
            buf = resource
        else:
            if shared_memory is None:  # pragma: no cover - exotic platforms
                raise RuntimeError(
                    "multiprocessing.shared_memory is unavailable; "
                    "configure a spill_dir to use the mmap backend"
                )
            backend = "shm"
            resource = shared_memory.SharedMemory(create=True, size=total)
            token = resource.name
            buf = resource.buf
        for name, view in _views(buf, layout, writeable=True).items():
            np.copyto(view, arrays[name])
        if backend == "mmap":
            resource.flush()
        self.backend = backend
        self.token = token
        self.nbytes = total
        self.handle = PackHandle(backend, token, layout)
        self._resource = resource
        _LIVE_TOKENS.add(token)
        # Creator-side attach-cache entry: in-process handle.attach()
        # reuses these views instead of remapping.
        _ATTACH_CACHE[(backend, token)] = (
            resource, _views(buf, layout, writeable=False)
        )
        self._finalizer = weakref.finalize(
            self, _unlink_backing, backend, token
        )

    def unlink(self) -> None:
        """Destroy the backing store (idempotent)."""
        if self._finalizer.detach() is None:
            return  # already unlinked
        _evict(self.backend, self.token)
        self._resource = None
        _unlink_backing(self.backend, self.token)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedArrayPack(backend={self.backend!r}, "
            f"token={self.token!r}, nbytes={self.nbytes})"
        )


def _unlink_backing(backend: str, token: str) -> None:
    """Remove the named backing store; module-level for finalizers."""
    _LIVE_TOKENS.discard(token)
    if backend == "mmap":
        try:
            os.unlink(token)
        except OSError:  # pragma: no cover - already gone
            pass
        return
    try:
        seg = shared_memory.SharedMemory(name=token)
    except FileNotFoundError:  # pragma: no cover - already gone
        return
    seg.close()
    seg.unlink()  # shm_unlink + the one balancing tracker unregister


@dataclass(frozen=True)
class TagGraphHandle:
    """Picklable address of a :class:`SharedTagGraph`.

    Reconstructs a full :class:`~repro.graphs.tag_graph.TagGraph` —
    edge endpoints *and* the per-tag conditional probability table — so
    an attaching process can run tag aggregation, serving, and sketch
    builds of its own. The shard-service workers attach one of these
    instead of unpickling a private graph copy apiece.
    """

    pack: PackHandle
    num_nodes: int
    tags: tuple[str, ...]

    def attach(self):
        """A :class:`TagGraph` over this process's shared mapping.

        The edge-endpoint and tag-table arrays are zero-copy read-only
        views into the shared segment (``TagGraph.__init__`` keeps
        int64/float64 inputs as-is); only the CSR index, rebuilt at
        construction, is private to the attaching process.
        """
        from repro.graphs.tag_graph import TagGraph

        views = self.pack.attach()
        tag_probs = {
            tag: (views[f"tag.{i}.ids"], views[f"tag.{i}.probs"])
            for i, tag in enumerate(self.tags)
        }
        return TagGraph(self.num_nodes, views["src"], views["dst"],
                        tag_probs)


class SharedTagGraph:
    """A whole tag graph published once for multi-process serving.

    The owner (the shard router) packs ``src``/``dst`` plus every tag's
    ``(edge_ids, probs)`` pair into one named segment; each worker
    process attaches by token and rebuilds a :class:`TagGraph` whose
    edge arrays alias the shared pages. Creator-owned lifecycle:
    workers never unlink, a SIGKILLed worker
    leaks nothing, and the owner's ``unlink()`` (or its
    ``weakref.finalize`` backstop) destroys the one backing store.
    """

    def __init__(self, graph, spill_dir: str | None = None,
                 spill_threshold: int | None = None) -> None:
        arrays: dict[str, np.ndarray] = {
            "src": graph.src, "dst": graph.dst,
        }
        tags = tuple(graph.tags)
        for i, tag in enumerate(tags):
            ids, probs = graph.tag_edges(tag)
            arrays[f"tag.{i}.ids"] = ids
            arrays[f"tag.{i}.probs"] = probs
        self._pack = SharedArrayPack(
            arrays, spill_dir=spill_dir, spill_threshold=spill_threshold
        )
        self.handle = TagGraphHandle(
            self._pack.handle, graph.num_nodes, tags
        )

    @property
    def backend(self) -> str:
        return self._pack.backend

    @property
    def nbytes(self) -> int:
        return self._pack.nbytes

    def unlink(self) -> None:
        """Destroy the backing store (idempotent)."""
        self._pack.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedTagGraph(backend={self.backend!r}, "
            f"nbytes={self.nbytes}, num_nodes={self.handle.num_nodes}, "
            f"num_tags={len(self.handle.tags)})"
        )
