"""Frozen per-kind replay loop: the reference ``GraphService.answer`` is pinned to.

This is the batch loop :func:`repro.serving.replay` ran before a mixed batch
was answered in one call.  Each batch is split with one mask per query kind,
each kind is answered by its own ``query_*`` method, and every answer is
scattered back to its log position.  ``vs`` is read only for the pair kinds.
A code outside :data:`~repro.serving.QUERY_KINDS` matches no mask and keeps
the answer ``(0, 0)``.

``tests/serving/test_replay_goldens.py`` checks ``answer`` against
:func:`reference_answers` position by position, and
``benchmarks/bench_oracle.py`` times :func:`reference_checksum` against
``replay`` on one log.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.serving import QUERY_KINDS


def reference_answers(service, kinds, us, vs, *, batch_size: int = 8192):
    """Log-ordered ``(a, b)`` float64 answer columns, one kind at a time per batch."""
    dispatch = {
        "distance": lambda u, v: service.query_distance(u, v),
        "same-cluster": lambda u, v: (service.query_same_cluster(u, v),),
        "eccentricity": lambda u, v: service.query_eccentricity(u),
        "center": lambda u, v: service.query_centers(u),
    }
    kinds = np.asarray(kinds)
    us = np.asarray(us)
    vs = np.asarray(vs)
    total = kinds.size
    answers_a = np.zeros(total, dtype=np.float64)
    answers_b = np.zeros(total, dtype=np.float64)
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        batch_kinds = kinds[start:stop]
        batch_us = us[start:stop]
        batch_vs = vs[start:stop]
        for code, name in enumerate(QUERY_KINDS):
            mask = batch_kinds == code
            if not np.any(mask):
                continue
            answers = dispatch[name](batch_us[mask], batch_vs[mask])
            slots = start + np.flatnonzero(mask)
            answers_a[slots] = answers[0]
            if len(answers) > 1:
                answers_b[slots] = answers[1]
    return answers_a, answers_b


def reference_checksum(service, log, *, batch_size: int = 8192) -> str:
    """The SHA-256 ``replay`` reports, computed through :func:`reference_answers`."""
    answers_a, answers_b = reference_answers(
        service, log.kinds, log.us, log.vs, batch_size=batch_size
    )
    digest = hashlib.sha256()
    digest.update(answers_a.tobytes())
    digest.update(answers_b.tobytes())
    return digest.hexdigest()
