"""A from-scratch LP-based branch-and-bound MILP solver.

The paper relies on a commercial solver (CPLEX); our primary backend is
HiGHS.  This module is an *independent* exact solver used to cross-check
the encodings on small instances: best-first branch and bound with LP
relaxations solved by ``scipy.optimize.linprog`` (which is itself a plain
LP — the integrality handling here is entirely ours).

The implementation is deliberately textbook:

* best-first node selection (lowest LP bound first),
* branching on the most fractional integer variable,
* depth-first tie-breaking to find incumbents early,
* pruning by bound against the incumbent,
* relative-gap and node-limit termination.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy import sparse
from scipy.optimize import linprog

from repro.milp.model import Model, StandardForm
from repro.milp.solution import Solution, SolveStatus
from repro.milp.validate import check_assignment, coerce_start
from repro.resilience.faults import fires, maybe_fire
from repro.telemetry.progress import SolveProgress
from repro.telemetry.trace import span

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    bound: float
    depth: int = field(compare=True)
    serial: int = field(compare=True)
    lower: npt.NDArray[np.float64] = field(compare=False)
    upper: npt.NDArray[np.float64] = field(compare=False)


def _split_rows(
    form: StandardForm,
) -> tuple[Any, npt.NDArray[np.float64] | None, Any, npt.NDArray[np.float64] | None]:
    """Convert two-sided rows into linprog's A_ub/b_ub and A_eq/b_eq."""
    a = form.a_matrix.tocsr()
    eq_rows: list[int] = []
    ub_rows: list[int] = []
    lb_rows: list[int] = []
    for i in range(a.shape[0]):
        lo, hi = form.b_lower[i], form.b_upper[i]
        if lo == hi:
            eq_rows.append(i)
            continue
        if np.isfinite(hi):
            ub_rows.append(i)
        if np.isfinite(lo):
            lb_rows.append(i)
    a_eq = a[eq_rows] if eq_rows else None
    b_eq = form.b_upper[eq_rows] if eq_rows else None
    blocks = []
    rhs = []
    if ub_rows:
        blocks.append(a[ub_rows])
        rhs.append(form.b_upper[ub_rows])
    if lb_rows:
        blocks.append(-a[lb_rows])
        rhs.append(-form.b_lower[lb_rows])
    a_ub = sparse.vstack(blocks).tocsr() if blocks else None
    b_ub = np.concatenate(rhs) if rhs else None
    return a_ub, b_ub, a_eq, b_eq


class BranchAndBoundSolver:
    """Exact MILP solver by LP-based branch and bound.

    Intended for small instances (cross-checks, unit tests, the paper's
    "optimal" column on the small template); for production-size problems
    use :class:`~repro.milp.highs.HighsSolver`.
    """

    name = "branch-and-bound"

    def __init__(
        self,
        time_limit: float | None = None,
        node_limit: int = 100_000,
        mip_rel_gap: float = 1e-6,
    ) -> None:
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.mip_rel_gap = mip_rel_gap

    def with_time_limit(self, time_limit: float | None) -> BranchAndBoundSolver:
        """A copy of this solver with a different wall-clock limit
        (the watchdog uses this to clip attempts to a deadline budget)."""
        return BranchAndBoundSolver(
            time_limit=time_limit,
            node_limit=self.node_limit,
            mip_rel_gap=self.mip_rel_gap,
        )

    def solve(self, model: Model) -> Solution:
        """Run branch and bound on ``model``.

        The solve records an incumbent trajectory (see
        :mod:`repro.telemetry.progress`): one event per new incumbent
        plus a terminal summary, exposed as
        ``Solution.incumbent_trajectory`` and mirrored onto the
        enclosing trace span when tracing is armed.
        """
        with span("solver.solve", solver=self.name) as solve_span:
            solution = self._solve(model)
            solve_span.set_attributes(
                status=solution.status.name,
                nodes=solution.node_count,
            )
            return solution

    def _solve(self, model: Model) -> Solution:
        maybe_fire("solver.hang")
        if fires("solver.error"):
            return Solution(
                status=SolveStatus.ERROR,
                message="injected solver error (REPRO_FAULTS solver.error)",
            )
        form = model.to_standard_form()
        if len(form.c) == 0:
            # Variable-free model: trivially optimal at the objective's
            # constant (scipy's linprog rejects empty problems).
            return Solution(
                SolveStatus.OPTIMAL,
                objective=model.objective.constant,
                x=np.zeros(0),
            )
        a_ub, b_ub, a_eq, b_eq = _split_rows(form)
        int_idx = np.flatnonzero(form.integrality == 1)
        start = time.perf_counter()

        def lp(
            lower: npt.NDArray[np.float64], upper: npt.NDArray[np.float64],
        ) -> Any:
            res = linprog(
                form.c,
                A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                bounds=np.column_stack([lower, upper]),
                method="highs",
            )
            return res

        root = lp(form.x_lower.copy(), form.x_upper.copy())
        if root.status == 2:
            return Solution(SolveStatus.INFEASIBLE,
                            solve_time=time.perf_counter() - start)
        if root.status == 3:
            return Solution(SolveStatus.UNBOUNDED,
                            solve_time=time.perf_counter() - start)
        if root.status != 0:
            return Solution(SolveStatus.ERROR, message=str(root.message),
                            solve_time=time.perf_counter() - start)

        # LP objectives are c @ x; the trajectory reports user-space
        # objectives, so the model's constant term is folded into every
        # recorded incumbent/bound.
        constant = model.objective.constant
        progress = SolveProgress(self.name)
        incumbent_x: npt.NDArray[np.float64] | None = None
        incumbent_obj = math.inf
        serial = 0
        heap: list[_Node] = [
            _Node(float(root.fun), 0, serial,
                  form.x_lower.copy(), form.x_upper.copy())
        ]
        nodes_explored = 0
        best_bound = float(root.fun)

        # A warm start (Model.hints["warm_start"]) seeds the incumbent
        # and therefore the pruning bound — but only after it passes a
        # full feasibility check, so a bad hint costs nothing but the
        # head start it promised.
        warm_info: dict[str, Any] | None = None
        warm_payload = model.hints.get("warm_start")
        if warm_payload is not None:
            warm_x = coerce_start(warm_payload, len(form.c))
            if warm_x is None:
                warm_info = {
                    "status": "rejected",
                    "reason": "malformed payload (expected {'x': vector})",
                }
            else:
                check = check_assignment(form, warm_x)
                source = str(warm_payload.get("source", "hint"))
                if check.ok:
                    incumbent_x = warm_x.copy()
                    if len(int_idx):
                        incumbent_x[int_idx] = np.round(incumbent_x[int_idx])
                    incumbent_obj = check.objective
                    warm_info = {
                        "status": "accepted",
                        "source": source,
                        "objective": incumbent_obj + constant,
                    }
                    progress.incumbent(
                        0, incumbent_obj + constant,
                        bound=best_bound + constant,
                    )
                else:
                    warm_info = {
                        "status": "rejected",
                        "source": source,
                        "reason": check.reason,
                        "max_violation": check.max_violation,
                    }

        while heap:
            if self.time_limit is not None and (
                time.perf_counter() - start > self.time_limit
            ):
                break
            if nodes_explored >= self.node_limit:
                break
            node = heapq.heappop(heap)
            best_bound = node.bound
            # The gap reference is max(1, |incumbent|), not |incumbent|:
            # at incumbent_obj == 0 a purely relative term vanishes and
            # the search would grind through every open node whose bound
            # rounds to zero (same convention as scipy's mip_rel_gap
            # handling).
            prune_at = incumbent_obj - self.mip_rel_gap * max(
                1.0, abs(incumbent_obj)
            )
            if node.bound >= prune_at:
                continue
            res = lp(node.lower, node.upper)
            nodes_explored += 1
            if res.status != 0:
                continue  # infeasible subproblem
            if res.fun >= prune_at:
                continue
            x = np.asarray(res.x)
            frac = np.abs(x[int_idx] - np.round(x[int_idx]))
            if len(int_idx) == 0 or frac.max(initial=0.0) <= _INT_TOL:
                # Integer-feasible: new incumbent.
                if res.fun < incumbent_obj:
                    incumbent_obj = float(res.fun)
                    incumbent_x = x.copy()
                    if len(int_idx):
                        incumbent_x[int_idx] = np.round(incumbent_x[int_idx])
                    progress.incumbent(
                        nodes_explored,
                        incumbent_obj + constant,
                        bound=best_bound + constant,
                    )
                continue
            # Branch on the most fractional integer variable.
            j = int(int_idx[int(np.argmax(frac))])
            floor_val = math.floor(x[j] + _INT_TOL)
            for side in ("down", "up"):
                lower = node.lower.copy()
                upper = node.upper.copy()
                if side == "down":
                    upper[j] = floor_val
                else:
                    lower[j] = floor_val + 1
                if lower[j] > upper[j]:
                    continue
                serial += 1
                heapq.heappush(
                    heap,
                    _Node(float(res.fun), node.depth + 1, serial, lower, upper),
                )

        elapsed = time.perf_counter() - start
        progress.done(
            nodes_explored,
            None if incumbent_x is None else incumbent_obj + constant,
            best_bound + constant if math.isfinite(best_bound) else None,
        )
        extra: dict[str, Any] = {
            "incumbent_trajectory": progress.trajectory()
        }
        if warm_info is not None:
            extra["warm_start"] = warm_info
        if incumbent_x is None:
            if heap or nodes_explored >= self.node_limit:
                return Solution(SolveStatus.TIMEOUT, solve_time=elapsed,
                                node_count=nodes_explored, extra=extra)
            return Solution(SolveStatus.INFEASIBLE, solve_time=elapsed,
                            node_count=nodes_explored, extra=extra)

        if heap:
            gap_ref = max(abs(incumbent_obj), 1e-9)
            gap = (incumbent_obj - min(best_bound, incumbent_obj)) / gap_ref
            status = (
                SolveStatus.OPTIMAL if gap <= self.mip_rel_gap
                else SolveStatus.FEASIBLE
            )
        else:
            gap = 0.0
            status = SolveStatus.OPTIMAL
        return Solution(
            status=status,
            # LP objectives are c @ x; fold the constant term back in.
            objective=incumbent_obj + constant,
            x=incumbent_x,
            solve_time=elapsed,
            mip_gap=gap,
            node_count=nodes_explored,
            extra=extra,
        )
