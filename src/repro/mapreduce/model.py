"""The MR(M_G, M_L) model of Pietracaprina et al. [24].

An MR algorithm executes as a sequence of rounds; in each round a multiset of
key-value pairs is transformed by applying a reducer independently to every
group of pairs sharing a key.  The model has two parameters:

* ``M_G`` — the maximum aggregate number of pairs alive at any time
  (global memory), and
* ``M_L`` — the maximum number of pairs any single reducer may receive
  (local memory).

The class below captures the parameters and performs the constraint checks.
Every round is charged rather than executed, and the one round whose
reducer input is known — the quotient diameter on a single reducer — is
checked against the engine's model by
:func:`repro.core.mr_algorithms.charge_quotient_rounds`.  By default
violations raise :class:`MRConstraintViolation`; the experiment harness can
switch to "record" mode to merely count violations (useful when exploring
configurations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["MRModel", "MRConstraintViolation", "rounds_for_primitive"]


class MRConstraintViolation(RuntimeError):
    """Raised when a round exceeds the local or global memory budget."""


@dataclass
class MRModel:
    """Parameters and constraint-checking policy of the MR(M_G, M_L) model.

    Parameters
    ----------
    global_memory:
        M_G, in key-value pairs.  ``None`` means unbounded.
    local_memory:
        M_L, in key-value pairs.  ``None`` means unbounded.
    enforce:
        If True, constraint violations raise; otherwise they are recorded in
        :attr:`violations`.
    """

    global_memory: Optional[int] = None
    local_memory: Optional[int] = None
    enforce: bool = True
    violations: List[str] = field(default_factory=list)

    @classmethod
    def for_graph(cls, num_nodes: int, num_edges: int, *, enforce: bool = True) -> "MRModel":
        """Instantiate the model the paper assumes for a graph of given size.

        The paper requires linear global space, ``M_G = Θ(m)``, and local
        space ``M_L = Θ(n^ε)`` for a constant ``ε``; here ``ε = 1/2`` and a
        slack factor of 8 absorbs the Θ's.
        """
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        mg = int(8.0 * max(num_edges, num_nodes) * 2) + 16
        ml = int(8.0 * (num_nodes**0.5)) + 16
        return cls(global_memory=mg, local_memory=ml, enforce=enforce)

    # ------------------------------------------------------------------ #
    def check_round(self, *, max_reducer_input: int, live_pairs: int) -> None:
        """Validate one round's resource usage against M_L and M_G."""
        if self.local_memory is not None and max_reducer_input > self.local_memory:
            self._violate(
                f"reducer received {max_reducer_input} pairs, exceeding M_L={self.local_memory}"
            )
        if self.global_memory is not None and live_pairs > self.global_memory:
            self._violate(
                f"{live_pairs} live pairs exceed M_G={self.global_memory}"
            )

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self.enforce:
            raise MRConstraintViolation(message)


def rounds_for_primitive(input_size: int, local_memory: Optional[int]) -> int:
    """Round complexity of the sorting / prefix-sum primitives (Fact 1).

    Fact 1 of the paper: sorting and (segmented) prefix sums on inputs of size
    ``n`` take ``O(log_{M_L} n)`` rounds with linear global memory.  With
    unbounded (or >= n) local memory this is a single round.
    """
    if input_size <= 1:
        return 1
    if local_memory is None or local_memory >= input_size:
        return 1
    # The smallest r with M_L**r >= n, counted in integers: a float log
    # rounds up past r at exact powers.
    base = max(2, int(local_memory))
    rounds, capacity = 1, base
    while capacity < input_size:
        capacity *= base
        rounds += 1
    return rounds
