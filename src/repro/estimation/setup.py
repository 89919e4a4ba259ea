"""Setup controllers and estimation results.

From the user's viewpoint, design evaluation is a two-step process:
*setup* -- specify which parameters to evaluate and by which estimators,
with ``set(parameter, criterion)`` followed by a hierarchical
``apply(module)`` -- and *evaluation*, which proceeds during simulation.
Multiple setups can be applied to the same design, and multiple
simulations can run concurrently with different setups, because each
module stores its chosen estimators in a hash table keyed by the setup
controller.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.design import Circuit
from ..core.errors import SetupError
from ..core.module import ModuleSkeleton
from .criteria import Criterion
from .estimator import EstimatorSkeleton, NullEstimator
from .parameter import Parameter, ParamValue

# Setup ids only back the "setupN" fallback name of a SetupController
# built without an explicit name; every wire-reaching construction
# (bench scenarios, Table 1) passes a name, so the fallback never feeds
# marshalled bytes (pinned by tests/differential/test_counter_adjudication.py).
_setup_ids = itertools.count(1)


@dataclass(frozen=True)
class EstimationRecord:
    """One estimator result collected during evaluation."""

    module: str
    parameter: str
    value: ParamValue


class EstimationResults:
    """Thread-safe sink for estimation records (the evaluation output)."""

    def __init__(self) -> None:
        self._records: List[EstimationRecord] = []
        self._lock = threading.Lock()

    def record(self, module: ModuleSkeleton, parameter: str,
               value: ParamValue) -> None:
        """Store one result (called from estimation-token handling)."""
        with self._lock:
            self._records.append(
                EstimationRecord(module.name, parameter, value))

    @property
    def records(self) -> Tuple[EstimationRecord, ...]:
        """All records, in collection order."""
        with self._lock:
            return tuple(self._records)

    def for_parameter(self, parameter: str) -> Tuple[EstimationRecord, ...]:
        """Records for one parameter, nulls included."""
        return tuple(r for r in self.records if r.parameter == parameter)

    def series(self, module: str, parameter: str) -> List[Any]:
        """Non-null raw values of one module/parameter, over time."""
        return [r.value.value for r in self.records
                if r.module == module and r.parameter == parameter
                and not r.value.is_null]

    def latest(self, module: str, parameter: str) -> Optional[ParamValue]:
        """Most recent non-null value for one module/parameter."""
        for record in reversed(self.records):
            if record.module == module and record.parameter == parameter \
                    and not record.value.is_null:
                return record.value
        return None

    def total(self, parameter: str) -> float:
        """Sum of each module's latest non-null numeric value.

        This is the paper's additive composition: typical cost metrics
        are local, additive properties that users sum to obtain global
        design metrics.
        """
        latest: Dict[str, float] = {}
        for record in self.records:
            if record.parameter == parameter and not record.value.is_null:
                latest[record.module] = float(record.value.value)
        return sum(latest.values())

    def clear(self) -> None:
        """Drop all collected records."""
        with self._lock:
            self._records.clear()


class SetupController:
    """Specifies estimation criteria and applies them hierarchically.

    The two main methods mirror the paper exactly:

    * :meth:`set` specifies the criteria for choosing the estimator for
      a given parameter;
    * :meth:`apply` hierarchically applies the setup to a module (or a
      whole circuit) and all its submodules.

    If the requirements cannot be satisfied for a module's parameter, a
    warning is recorded and the default :class:`NullEstimator` is bound.
    """

    def __init__(self, name: Optional[str] = None, billing: Any = None):
        self.setup_id = next(_setup_ids)
        self.name = name or f"setup{self.setup_id}"
        self.billing = billing
        self.results = EstimationResults()
        self.warnings: List[str] = []
        self._criteria: Dict[str, Criterion] = {}

    def set(self, parameter: Union[str, Parameter],
            criterion: Criterion) -> None:
        """Request evaluation of ``parameter`` using ``criterion``."""
        if not isinstance(criterion, Criterion):
            raise SetupError(
                f"set() needs a Criterion, got {type(criterion).__name__}")
        self._criteria[str(parameter)] = criterion

    @property
    def parameters(self) -> Tuple[str, ...]:
        """The parameters this setup evaluates."""
        return tuple(self._criteria)

    def apply(self, target: Union[ModuleSkeleton, Circuit]) -> None:
        """Bind estimators for every requested parameter, hierarchically.

        ``target`` may be a single module, a composite, or an entire
        circuit (the top module of the hierarchical view); the same setup
        criteria apply to all reachable leaf modules.
        """
        if not self._criteria:
            raise SetupError(f"setup {self.name!r} has no criteria; call "
                             f"set() first")
        if isinstance(target, Circuit):
            modules: Sequence[ModuleSkeleton] = target.modules
        else:
            modules = target.submodules()
        for module in modules:
            for parameter, criterion in self._criteria.items():
                candidates = module.candidate_estimators(parameter)
                chosen = criterion.choose(candidates) if candidates else None
                if chosen is None:
                    self.warnings.append(
                        f"no estimator for parameter {parameter!r} of "
                        f"module {module.name!r} satisfies {criterion!r}; "
                        f"using the null estimator")
                    chosen = NullEstimator(parameter)
                module.bind_estimator(self, parameter, chosen)

    def chosen_estimator(self, module: ModuleSkeleton,
                         parameter: str) -> Optional[EstimatorSkeleton]:
        """The estimator bound for a module/parameter under this setup."""
        return module.bound_estimator(self, parameter)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SetupController({self.name!r}, "
                f"parameters={list(self._criteria)})")
