"""Deterministic fault injection: the ``FaultPlan`` and its firing machinery.

The paper's MapReduce algorithms target clusters where machine failure is
routine; this module gives the reproduction a *seeded, reproducible* way to
manufacture those failures so the recovery paths of the execution planes can
be exercised (and regression-gated) instead of merely hoped for.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming an
*injection site* (a dotted string like ``"graph.snapshot"`` — the
instrumented code calls :func:`inject`/:func:`corrupt_file` with its site
name), a fault *kind*, and firing conditions.  Kinds:

``kill``
    ``SIGKILL`` the current process — simulates a pool worker dying
    mid-task.
``hang``
    Sleep ``delay_s`` seconds before continuing — simulates a slow or hung
    task (drive it past a cell timeout to simulate a full hang).
``error``
    Raise :class:`FaultInjected` (an ``OSError`` subclass) — simulates e.g.
    an unreadable file.
``torn_write`` / ``bitflip``
    File-corruption faults applied by :func:`corrupt_file` right after an
    instrumented write: truncate the file to ``fraction`` of its size, or
    XOR one byte at a (seed-derived or explicit) offset.

Activation crosses process boundaries through the environment: install a
plan with :meth:`FaultPlan.install` and every child process — forked pool
workers included — sees the same plan via ``REPRO_FAULT_PLAN`` (either the
JSON itself or ``@/path/to/plan.json``).  Site hit counters are
*per-process* (each process counts its own calls at a site); the ``times``
cap on total firings is *global* when the plan carries a ``state_dir``:
firing claims a ticket file with ``O_CREAT|O_EXCL``, so a fault fires
exactly ``times`` times across every participating process — which is what
lets a chaos test kill one worker once and then assert the retried task
succeeds instead of dying forever.

Sites are matched with :func:`fnmatch.fnmatchcase`, so a spec can target one
exact cell (``"suite.cell:table2/mesh"``) or a whole plane
(``"suite.cell:*"``).

No production code path pays more than one ``os.environ`` lookup when no
plan is installed.
"""

from __future__ import annotations

import fnmatch
import json
import os
import random
import signal
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FILE_FAULT_KINDS",
    "ENV_VAR",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "active_plan",
    "clear_installed",
    "reset_state",
    "inject",
    "corrupt_file",
]

#: Environment variable carrying the active plan (JSON, or ``@/path.json``).
ENV_VAR = "REPRO_FAULT_PLAN"

FAULT_KINDS = ("kill", "hang", "error", "torn_write", "bitflip")
#: Kinds applied by :func:`corrupt_file` (post-write file corruption).
FILE_FAULT_KINDS = ("torn_write", "bitflip")


class FaultInjected(OSError):
    """The exception raised by ``error``-kind faults.

    An ``OSError`` subclass so injected failures travel the same handling
    paths as the real infrastructure errors they simulate (unreadable
    files).
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where, what, and when it fires.

    Parameters
    ----------
    site:
        ``fnmatch`` pattern matched against the injection-site name.
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Arm the fault from the ``at``-th hit of the site (per process,
        1-based).  Hits before that never fire.
    times:
        Total firings allowed.  Enforced globally (across all processes)
        when the plan has a ``state_dir``; per-process otherwise.
    delay_s:
        Sleep duration of ``hang`` faults.
    message:
        Text of the :class:`FaultInjected` raised by ``error`` faults.
    fraction:
        ``torn_write`` keeps this fraction of the file (0 < fraction < 1).
    offset:
        ``bitflip`` byte offset; ``None`` derives one deterministically from
        the plan seed and the file size.
    """

    site: str
    kind: str
    at: int = 1
    times: int = 1
    delay_s: float = 0.05
    message: str = "injected fault"
    fraction: float = 0.5
    offset: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if not (0.0 < self.fraction < 1.0):
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, environment-installable set of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # ------------------------------------------------------------------ #
    # (De)serialization
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": int(self.seed),
                "state_dir": self.state_dir,
                "specs": [asdict(spec) for spec in self.specs],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        payload = json.loads(blob)
        if not isinstance(payload, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(payload).__name__}")
        specs = tuple(FaultSpec(**spec) for spec in payload.get("specs", ()))
        return cls(
            specs=specs,
            seed=int(payload.get("seed", 0)),
            state_dir=payload.get("state_dir"),
        )

    # ------------------------------------------------------------------ #
    # Environment activation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Activate this plan process-wide (children inherit via the env)."""
        os.environ[ENV_VAR] = self.to_json()
        reset_state()

    def save(self, path) -> Path:
        """Write the plan as JSON; install with ``REPRO_FAULT_PLAN=@<path>``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path


def clear_installed() -> None:
    """Remove any installed plan from this process's environment."""
    os.environ.pop(ENV_VAR, None)
    reset_state()


# ---------------------------------------------------------------------- #
# Firing machinery (module state is all per-process)
# ---------------------------------------------------------------------- #
_counters: Dict[str, int] = {}
_local_fires: Dict[int, int] = {}
#: (raw env value, parsed plan) — re-parsed only when the env var changes.
_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def reset_state() -> None:
    """Drop per-process counters and the parsed-plan cache (test hook)."""
    global _cache
    _counters.clear()
    _local_fires.clear()
    _cache = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``.

    Re-reads the environment on every call (cheap: one dict lookup plus a
    string compare against the cached raw value), so tests that install and
    clear plans see the change immediately.
    """
    global _cache
    raw = os.environ.get(ENV_VAR)
    if raw is None or raw == "":
        return None
    cached_raw, cached_plan = _cache
    if raw == cached_raw:
        return cached_plan
    blob = Path(raw[1:]).read_text() if raw.startswith("@") else raw
    plan = FaultPlan.from_json(blob)
    _cache = (raw, plan)
    return plan


def _claim(plan: FaultPlan, spec_index: int, spec: FaultSpec) -> bool:
    """Claim one firing ticket for ``spec``; False when all are spent.

    With a ``state_dir`` the tickets are ``O_CREAT|O_EXCL`` files shared by
    every process running under the plan — exactly-once-in-total semantics
    that survive pool rebuilds and respawned workers.  Without one, the cap
    is per-process.
    """
    if plan.state_dir:
        state = Path(plan.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        for ticket in range(spec.times):
            token = state / f"fault-{spec_index}.{ticket}"
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False
    fired = _local_fires.get(spec_index, 0)
    if fired >= spec.times:
        return False
    _local_fires[spec_index] = fired + 1
    return True


def _armed(site: str, kinds) -> List[Tuple[int, FaultSpec]]:
    """Count a hit at ``site`` and return the specs that fire now."""
    plan = active_plan()
    if plan is None:
        return []
    count = _counters[site] = _counters.get(site, 0) + 1
    armed: List[Tuple[int, FaultSpec]] = []
    for index, spec in enumerate(plan.specs):
        if spec.kind not in kinds:
            continue
        if not fnmatch.fnmatchcase(site, spec.site):
            continue
        if count < spec.at:
            continue
        if _claim(plan, index, spec):
            armed.append((index, spec))
    return armed


def inject(site: str) -> None:
    """Fire any armed process fault (``kill`` / ``hang`` / ``error``) at ``site``.

    A no-op (one env lookup) when no plan is installed.  Instrumented code
    calls this at its named site; the fault kinds that corrupt files go
    through :func:`corrupt_file` instead.
    """
    if ENV_VAR not in os.environ:
        return
    for _, spec in _armed(site, ("kill", "hang", "error")):
        if spec.kind == "hang":
            time.sleep(spec.delay_s)
        elif spec.kind == "error":
            raise FaultInjected(f"{site}: {spec.message}")
        elif spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)


def corrupt_file(site: str, path) -> bool:
    """Apply any armed file fault (``torn_write`` / ``bitflip``) to ``path``.

    Called by instrumented writers immediately *after* their atomic rename,
    simulating external corruption (a torn device write, a flipped bit at
    rest) that the atomic-write protocol cannot prevent.  Returns whether
    the file was corrupted.
    """
    if ENV_VAR not in os.environ:
        return False
    plan = active_plan()
    applied = False
    for index, spec in _armed(site, FILE_FAULT_KINDS):
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        if size <= 1:
            continue
        if spec.kind == "torn_write":
            keep = max(1, int(size * spec.fraction))
            with open(path, "r+b") as handle:
                handle.truncate(keep)
        else:  # bitflip
            offset = spec.offset
            if offset is None:
                rng = random.Random(f"{plan.seed}:{index}:{site}:{size}")
                offset = rng.randrange(size // 2, size)
            offset = min(max(int(offset), 0), size - 1)
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0x01]))
        applied = True
    return applied
