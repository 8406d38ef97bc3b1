"""Zero-copy shared-memory data plane for structured rounds.

The process backend's original structured path pickled key/value array
shards into every pool worker and pickled the reduced group arrays back
out — serialization cost linear in the round size, which is exactly what
made the backend tie (instead of beat) the single-process vectorized
backend on large rounds.  This module removes the arrays from the pool
boundary entirely:

* :class:`SharedArrayPool` — the *owner* side.  Allocates
  ``multiprocessing.shared_memory`` segments with an explicit lifecycle
  (``publish`` / ``allocate`` / ``release`` / ``close``), packs several
  arrays into one segment at 64-byte-aligned offsets, and leak-checks its
  own teardown: ``close()`` unlinks every segment it still owns, so a
  worker crash mid-round can never strand a ``/dev/shm`` file past the
  owning backend's shutdown.
* :class:`SharedArrayRef` — the descriptor that crosses the pool boundary
  instead of the array: ``(segment, dtype, shape, offset)``, a few dozen
  bytes regardless of the array size.  ``as_array`` reconstructs a NumPy
  view over the attached segment buffer with zero copies.
* :func:`attach` / :func:`attach_view` / :func:`detach_all` — the *worker*
  side.  Attaching never takes ownership: the segment is detached from the
  per-process ``resource_tracker`` (or opened with ``track=False`` on
  Python 3.13+) so only the owning pool ever unlinks it.  Per-round
  segments are closed at task end by :func:`reduce_shard_from_refs`;
  long-lived segments (pinned CSR arrays, suite datasets) stay cached in a
  persistent attachment table.
* :func:`reduce_shard_from_refs` — the pool task of the shm structured
  path: slice a contiguous ``[start, end)`` shard view out of the shared
  input arrays, run the same segment reductions as the vectorized backend
  (:func:`repro.mapreduce.structured.reduce_structured_shard`), and write
  the winner rows into the preallocated shared output segment.  The only
  pickled payload in either direction is descriptors, two slice bounds,
  the (tiny) reducer object, and a ``(group_count, max_input)`` pair back.

Segment names carry the ``rshm_<pid>_`` prefix so tests (and operators)
can audit ``/dev/shm`` for leaks.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro import faults

__all__ = [
    "SharedArrayRef",
    "SharedArrayPool",
    "attach",
    "attach_view",
    "detach_all",
    "reduce_shard_from_refs",
    "ensure_tracker_running",
    "active_repro_segments",
    "reap_orphans",
    "flatten_refs",
    "contains_ndarray",
]

#: Byte alignment of every array packed into a segment (cache-line sized, and
#: a multiple of every NumPy itemsize, so views are always aligned).
_ALIGNMENT = 64

_SEGMENT_PREFIX = "rshm_"

_segment_counter = itertools.count()


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def active_repro_segments() -> List[str]:
    """Names of all live ``/dev/shm`` segments created by this module.

    Linux-only introspection used by the leak-detector tests; on platforms
    without ``/dev/shm`` an empty list is returned.
    """
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(_SEGMENT_PREFIX)
        )
    except OSError:  # pragma: no cover - non-Linux platforms
        return []


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive but owned by another user
        return True
    except OSError:  # pragma: no cover - be conservative on odd platforms
        return True
    return True


def reap_orphans() -> List[str]:
    """Unlink ``rshm_*`` segments whose owning process is gone.

    Segment names embed the owner's pid (``rshm_<pid>_<n>``), so a segment
    whose pid no longer exists is an orphan by construction — its owner was
    killed before ``close()`` could unlink it.  Crash recovery calls this
    (``SharedArrayPool.close()`` does it automatically, and
    ``python -m repro.experiments reap-shm`` exposes it to operators) to
    stop dead runs from eating ``/dev/shm``.  Segments of the calling
    process and of any live pid are never touched.  Returns the names
    reaped, for logging/tests.
    """
    reaped: List[str] = []
    own_pid = os.getpid()
    for name in active_repro_segments():
        tail = name[len(_SEGMENT_PREFIX):]
        pid_text, _, _ = tail.partition("_")
        try:
            pid = int(pid_text)
        except ValueError:  # pragma: no cover - foreign name under our prefix
            continue
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:  # pragma: no cover - raced with another reaper
            continue
        reaped.append(name)
    return reaped


@dataclass(frozen=True)
class SharedArrayRef:
    """Descriptor of one array inside a shared segment.

    This — not the array — is what travels through the pool: ``segment`` is
    the shared-memory name, ``dtype`` the NumPy dtype string, ``shape`` the
    array shape, and ``offset`` the byte offset of the array's data inside
    the segment.  :meth:`as_array` reconstructs a zero-copy view over any
    buffer exposing the segment (owner- or worker-side).
    """

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))

    def as_array(self, buf) -> np.ndarray:
        """A zero-copy NumPy view of this array over ``buf``."""
        return np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=buf, offset=self.offset)


def _layout(specs: Mapping[str, Tuple[np.dtype, Tuple[int, ...]]]) -> Tuple[Dict[str, Tuple[np.dtype, Tuple[int, ...], int]], int]:
    """Aligned offsets for packing ``specs`` into one segment."""
    offsets: Dict[str, Tuple[np.dtype, Tuple[int, ...], int]] = {}
    cursor = 0
    for name, (dtype, shape) in specs.items():
        dtype = np.dtype(dtype)
        if dtype.kind in "OV":
            raise ValueError(
                f"array {name!r} has dtype {dtype} which cannot live in shared memory"
            )
        cursor = _align(cursor)
        offsets[name] = (dtype, tuple(int(s) for s in shape), cursor)
        cursor += int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
    return offsets, max(cursor, 1)  # SharedMemory rejects size == 0


class SharedArrayPool:
    """Owner of shared segments: allocate, publish, view, release, leak-check.

    One pool instance belongs to one owning component (the
    :class:`~repro.mapreduce.pool.SupervisedPool` of a
    :class:`~repro.mapreduce.backends.ProcessBackend` or a
    :class:`~repro.experiments.suite.SuiteRunner`); only the owner unlinks.
    ``close()`` releases every still-owned segment — the leak backstop the
    lifecycle tests assert on — and is idempotent.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    # ------------------------------------------------------------------ #
    def _new_segment(self, size: int) -> shared_memory.SharedMemory:
        # Explicit names (pid + process-wide counter) keep segments
        # attributable and auditable in /dev/shm; collisions are retried.
        while True:
            name = f"{_SEGMENT_PREFIX}{os.getpid()}_{next(_segment_counter)}"
            try:
                segment = shared_memory.SharedMemory(name=name, create=True, size=size)
                break
            except FileExistsError:  # pragma: no cover - stale name from a dead pid
                continue
        self._segments[segment.name] = segment
        return segment

    def allocate(
        self, specs: Mapping[str, Tuple[np.dtype, Tuple[int, ...]]]
    ) -> Dict[str, SharedArrayRef]:
        """One fresh (uninitialized) segment holding one array per spec.

        ``specs`` maps array name to ``(dtype, shape)``.  Returns the
        descriptors; read the owner-side views with :meth:`view`.
        """
        offsets, size = _layout(specs)
        segment = self._new_segment(size)
        return {
            name: SharedArrayRef(segment.name, dtype.str, shape, offset)
            for name, (dtype, shape, offset) in offsets.items()
        }

    def publish(self, arrays: Mapping[str, np.ndarray]) -> Dict[str, SharedArrayRef]:
        """Copy ``arrays`` into one fresh segment and return their descriptors.

        This is the *single* copy of the shm data plane: the round's arrays
        are written into the segment here, once, and every worker then reads
        them in place through descriptor views.
        """
        materialized = {name: np.ascontiguousarray(array) for name, array in arrays.items()}
        refs = self.allocate(
            {name: (array.dtype, array.shape) for name, array in materialized.items()}
        )
        for name, array in materialized.items():
            view = self.view(refs[name])
            np.copyto(view, array)
            del view
        return refs

    def view(self, ref: SharedArrayRef) -> np.ndarray:
        """Owner-side zero-copy view of a descriptor's array."""
        try:
            segment = self._segments[ref.segment]
        except KeyError:
            raise KeyError(f"segment {ref.segment!r} is not owned by this pool") from None
        return ref.as_array(segment.buf)

    # ------------------------------------------------------------------ #
    def release(self, segment_name: str) -> None:
        """Close and unlink one owned segment (no-op when already released)."""
        segment = self._segments.pop(segment_name, None)
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view outlived the round
            # The mapping stays until the last view drops; unlinking below
            # still removes the /dev/shm entry, which is the leak that counts.
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def release_refs(self, refs: Mapping[str, SharedArrayRef]) -> None:
        """Release every (distinct) segment referenced by ``refs``."""
        for name in {ref.segment for ref in refs.values()}:
            self.release(name)

    def active_segments(self) -> List[str]:
        """Names of the segments this pool still owns (leak-check hook)."""
        return sorted(self._segments)

    def close(self) -> None:
        """Release every owned segment; safe to call repeatedly.

        Also reaps orphaned segments left behind by *dead* owners
        (:func:`reap_orphans`) — the natural hook, since every component
        that owns segments closes its pool on the way out.
        """
        for name in list(self._segments):
            self.release(name)
        reap_orphans()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            # Module globals (os, shared_memory internals) are torn to None
            # in arbitrary order during interpreter shutdown; segments we
            # cannot unlink here are the resource tracker's to reclaim.
            if os is None or shared_memory is None:
                return
            self.close()
        except BaseException:
            pass


# --------------------------------------------------------------------------- #
# Worker-side attachment
# --------------------------------------------------------------------------- #
# Long-lived attachments (pinned CSR arrays, suite datasets): one SharedMemory
# per segment name, cached for the worker's lifetime.  Per-round segments are
# NOT cached here — reduce_shard_from_refs closes them at task end, so a
# round-heavy driver never accumulates mappings of already-unlinked segments.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def ensure_tracker_running() -> None:
    """Start the multiprocessing resource tracker in the current process.

    Call *before* forking a worker pool whose workers will attach segments:
    forked children then inherit the parent's tracker, so their attach-time
    registrations (Python < 3.13 registers unconditionally) land in the same
    tracker set as the owner's — idempotent — instead of spawning a private
    tracker that would try to unlink the owner's segments at worker exit.
    """
    try:
        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker internals vary by platform
        pass


def attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* taking ownership.

    On Python 3.13+ the attachment is opened with ``track=False`` — no
    resource-tracker registration at all.  On older versions the attach
    registers with the tracker unconditionally; because shm attachers are
    always fork children sharing the owner's tracker (see
    :func:`ensure_tracker_running`), that registration is an idempotent
    re-add of the owner's own entry, and the owner's ``unlink`` clears it
    exactly once.  Either way, attachers never unlink.
    """
    faults.inject("shm.attach")
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def attach_view(ref: SharedArrayRef) -> np.ndarray:
    """Persistent-attachment view of ``ref`` (cached per segment name).

    Use for long-lived shared data (pinned graph arrays, suite datasets);
    per-round shards go through :func:`reduce_shard_from_refs`, which closes
    its attachments at task end.
    """
    segment = _ATTACHED.get(ref.segment)
    if segment is None:
        segment = _ATTACHED[ref.segment] = attach(ref.segment)
    return ref.as_array(segment.buf)


def detach_all() -> None:
    """Drop every cached persistent attachment (tests / worker teardown)."""
    for segment in _ATTACHED.values():
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view is still alive
            pass
    _ATTACHED.clear()


# --------------------------------------------------------------------------- #
# The shm pool task
# --------------------------------------------------------------------------- #
def _reduce_shard_views(
    reducer,
    in_refs: Mapping[str, SharedArrayRef],
    out_refs: Mapping[str, SharedArrayRef],
    start: int,
    end: int,
    segments: Dict[str, shared_memory.SharedMemory],
) -> Tuple[int, int]:
    """Inner shard body; its frame (and therefore every view) dies on return."""
    from repro.mapreduce import structured

    def view(ref: SharedArrayRef) -> np.ndarray:
        segment = segments.get(ref.segment)
        if segment is None:
            segment = segments[ref.segment] = attach(ref.segment)
        return ref.as_array(segment.buf)

    keys = view(in_refs["keys"])[start:end]
    values = view(in_refs["values"])[start:end]
    indices = view(in_refs["indices"])[start:end]
    first, group_keys, rows, max_input = structured.reduce_structured_shard(
        (reducer, keys, values, indices)
    )
    count = int(first.size)
    view(out_refs["first"])[start : start + count] = first
    view(out_refs["keys"])[start : start + count] = group_keys
    view(out_refs["rows"])[start : start + count] = rows
    return count, int(max_input)


def reduce_shard_from_refs(
    task: Tuple[object, Mapping[str, SharedArrayRef], Mapping[str, SharedArrayRef], int, int],
) -> Tuple[int, int]:
    """Pool task of the shm structured path; runs in a worker (or in-process).

    ``task`` is ``(reducer, in_refs, out_refs, start, end)``: the shard is
    the contiguous slice ``[start, end)`` of the shared input arrays (the
    driver pre-partitioned the round by ``keys % num_shards``, so a slice is
    a complete hash shard), and the reduced groups are written to the same
    ``[start, start + count)`` range of the preallocated shared output
    arrays.  Returns ``(count, max_input)`` — the only data pickled back.

    Every segment attached here is closed before returning, so per-round
    segments never accumulate mappings in long-lived workers.
    """
    faults.inject("mr.worker.shm")
    reducer, in_refs, out_refs, start, end = task
    segments: Dict[str, shared_memory.SharedMemory] = {}
    try:
        return _reduce_shard_views(reducer, in_refs, out_refs, int(start), int(end), segments)
    finally:
        for segment in segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view kept by an exception frame
                pass


def flatten_refs(payload) -> List[SharedArrayRef]:
    """All :class:`SharedArrayRef` descriptors reachable inside ``payload``.

    Used by tests asserting that the shm path ships descriptors (and *only*
    descriptors) across the pool boundary.
    """
    found: List[SharedArrayRef] = []

    def walk(value) -> None:
        if isinstance(value, SharedArrayRef):
            found.append(value)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                walk(item)

    walk(payload)
    return found


def contains_ndarray(payload) -> bool:
    """True when a NumPy array hides anywhere inside ``payload``.

    The zero-pickled-arrays tests run every pool task payload through this
    before (and after) a pickle round-trip.
    """
    if isinstance(payload, np.ndarray):
        return True
    if isinstance(payload, dict):
        return any(contains_ndarray(key) or contains_ndarray(value) for key, value in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return any(contains_ndarray(item) for item in payload)
    return False
