"""Estimator billing: pay-per-use accounting for provider resources.

Estimators have a monetary cost (Table 1's "cost per pattern"); when a
setup carries a billing account, every estimator invocation during
evaluation is charged to it.  The account supports an optional budget,
giving the user a hard spending cap, and an itemized ledger for the
"seamless transition between IP evaluation and purchase".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import BillingError, check_positive


@dataclass(frozen=True)
class LedgerEntry:
    """One billed estimator invocation."""

    estimator: str
    module: str
    amount: float


class BillingAccount:
    """Accumulates per-invocation estimator fees (in cents)."""

    def __init__(self, budget: Optional[float] = None,
                 owner: str = "ip-user"):
        if budget is not None:
            check_positive("budget", budget, zero=True)
        self.budget = budget
        self.owner = owner
        self._ledger: List[LedgerEntry] = []
        self._total = 0.0

    def charge(self, estimator: Any, module: Any = None) -> float:
        """Charge one invocation of ``estimator``; returns the fee.

        Raises :class:`BillingError` when the charge would exceed the
        budget -- evaluation stops rather than silently overspending.
        """
        amount = float(getattr(estimator, "cost", 0.0))
        if amount == 0.0:
            return 0.0
        if self.budget is not None and self._total + amount > self.budget:
            raise BillingError(
                f"budget of {self.budget:.2f} cents exceeded: "
                f"{self._total:.2f} spent, {amount:.2f} more requested "
                f"by estimator {getattr(estimator, 'name', '?')!r}")
        self._total += amount
        self._ledger.append(LedgerEntry(
            estimator=getattr(estimator, "name", "?"),
            module=getattr(module, "name", "?"),
            amount=amount))
        return amount

    @property
    def total(self) -> float:
        """Total spend so far, cents."""
        return self._total

    @property
    def ledger(self) -> Tuple[LedgerEntry, ...]:
        """All billed invocations, in order."""
        return tuple(self._ledger)

    def by_estimator(self) -> Dict[str, float]:
        """Spend grouped by estimator name."""
        totals: Dict[str, float] = {}
        for entry in self._ledger:
            totals[entry.estimator] = totals.get(entry.estimator, 0.0) \
                + entry.amount
        return totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = f"/{self.budget:.2f}" if self.budget is not None else ""
        return (f"BillingAccount({self.owner!r}, {self._total:.2f}"
                f"{budget} cents, {len(self._ledger)} entries)")
