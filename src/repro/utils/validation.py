"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations

from typing import Any

import numpy as np


def check_node_index(node: Any, num_nodes: int, name: str = "node") -> int:
    """Validate and return ``node`` as a python int in ``[0, num_nodes)``.

    Only Python and NumPy integers are node ids: a float, a string or a bool
    raises ``TypeError`` instead of being truncated to some other node.
    """
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
        raise TypeError(f"{name} must be an integer node id, got {type(node).__name__} {node!r}")
    idx = int(node)
    if idx < 0 or idx >= num_nodes:
        raise IndexError(f"{name} {idx} out of range for graph with {num_nodes} nodes")
    return idx


def check_node_batch(nodes, num_nodes: int, name: str = "nodes") -> np.ndarray:
    """Validate a 1-d integer array of node ids, returning it as ``int64``.

    Raises ``ValueError`` for non-1-d input, ``TypeError`` for non-integer
    dtypes, and ``IndexError`` (naming the first offender, mirroring
    :func:`check_node_index`) for out-of-range ids.
    """
    array = np.asarray(nodes)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array of node ids, got shape {array.shape}")
    if array.size == 0:
        return array.astype(np.int64)
    if not np.issubdtype(array.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {array.dtype}")
    array = array.astype(np.int64, copy=False)
    if array.min() < 0 or array.max() >= num_nodes:
        offender = int(array[np.argmax((array < 0) | (array >= num_nodes))])
        raise IndexError(
            f"{name} {offender} out of range for graph with {num_nodes} nodes"
        )
    return array


__all__ = ["check_node_batch", "check_node_index"]
