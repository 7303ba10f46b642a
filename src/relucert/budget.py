"""Shared resource accounting for a verification run.

The LP budget is enforced where LPs are counted: `count_lp` raises
`Exhausted` at the first LP the limit cannot afford, and the search driver
catches it in one place and answers UNKNOWN with reason `resource`.
"""

from __future__ import annotations

from dataclasses import dataclass


class Exhausted(Exception):
    """The run cannot afford the LP it is about to make."""


@dataclass
class Budget:
    lp_limit: int | None = None
    lp_calls: int = 0
    splits: int = 0
    gate_calls: int = 0
    stabilized: int = 0
    lemmas: int = 0
    clauses: int = 0

    def lp_ok(self) -> bool:
        """True iff one more LP fits in the limit."""
        return self.lp_limit is None or self.lp_calls < self.lp_limit

    def count_lp(self):
        """Count one LP call, or raise `Exhausted` if the limit is spent."""
        if not self.lp_ok():
            raise Exhausted()
        self.lp_calls += 1

    def counters(self) -> dict[str, int]:
        return {
            "splits": self.splits,
            "lp_calls": self.lp_calls,
            "gate_invocations": self.gate_calls,
            "stabilized_units": self.stabilized,
            "lemmas_learned": self.lemmas,
            "clauses_learned": self.clauses,
        }
