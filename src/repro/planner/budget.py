"""The planner's rule-application budget.

Calcite aborts planning when it exceeds its computation-time or resource
limits (Section 4.3: "the query planner would exceed either the computation
time limit or the system resource limit and fail to generate a query
plan").  The reproduction makes that limit deterministic: every rule
application and physical-implementation step charges ticks against a
budget; exhausting it raises :class:`PlanningTimeoutError`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import PlanningTimeoutError

#: Ticks one query may spend planning, standing in for Calcite's planning
#: limits.  Read when a budget is made, so a test can patch it.
PLANNING_BUDGET = 600_000


class PlanningBudget:
    """A tick budget shared by all phases of planning one query."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = PLANNING_BUDGET if limit is None else limit
        self.spent = 0

    def charge(self, ticks: int = 1) -> None:
        if ticks < 0:
            raise ValueError(f"cannot charge negative ticks ({ticks})")
        self.spent += ticks
        if self.spent > self.limit:
            raise PlanningTimeoutError(
                "planner exceeded its computation budget "
                f"({self.spent} > {self.limit} ticks)",
                budget=self.limit,
                spent=self.spent,
            )

    @property
    def remaining(self) -> int:
        """Ticks left, floored at zero.

        The final :meth:`charge` that raises ``PlanningTimeoutError``
        leaves ``spent > limit``; without the floor this would report a
        negative remainder to anything that inspects the budget after the
        failure (obs spans, error messages).
        """
        return max(0, self.limit - self.spent)
