"""Logging configuration for the library.

The library never configures the root logger; it only exposes a helper to
obtain namespaced loggers and an opt-in :func:`enable_verbose` used by the
experiment CLI (``python -m repro.experiments``).
"""

from __future__ import annotations

import logging

_LOGGER_PREFIX = "repro"


def get_logger(name: str) -> logging.Logger:
    """Return a logger namespaced under ``repro``."""
    if name.startswith(_LOGGER_PREFIX):
        return logging.getLogger(name)
    return logging.getLogger(f"{_LOGGER_PREFIX}.{name}")


def enable_verbose() -> None:
    """Log INFO and above through a stream handler on the ``repro`` logger
    (idempotent)."""
    logger = logging.getLogger(_LOGGER_PREFIX)
    logger.setLevel(logging.INFO)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        logger.addHandler(handler)


__all__ = ["get_logger", "enable_verbose"]
