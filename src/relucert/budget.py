"""Shared resource accounting for a verification run."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Budget:
    lp_limit: int | None = None
    lp_calls: int = 0
    splits: int = 0
    gate_calls: int = 0
    stabilized: int = 0
    lemmas: int = 0
    clauses: int = 0

    def lp_ok(self, n: int = 1) -> bool:
        return self.lp_limit is None or self.lp_calls + n <= self.lp_limit

    def count_lp(self):
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
