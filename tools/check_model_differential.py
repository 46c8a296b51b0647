#!/usr/bin/env python
"""Differential check: registry models equal those of the reference algebra.

Every ``+``, ``-``, ``*`` and comparison of :mod:`repro.milp.expr` builds
one coefficient dict and one ``LinExpr``, where the algebra once composed
each operation out of smaller expressions (``tests/expr_reference.py``
keeps those bodies).  The two must build the same models bit for bit.
This script holds them to that on the scenario registry: it builds each
chosen problem's model twice through the explorer (``build``, no solve),
once as the library does and once with the reference algebra patched
onto ``Var``/``LinExpr``, and compares the flattened rows
(:meth:`Model.row_arrays`: counts, columns, coefficients and bounds, as
bytes), the row names, the objective and the column table.  A problem
whose build raises must raise the same error under both.

Usage::

    PYTHONPATH=src python tools/check_model_differential.py [--seeds 0 5] [--stride N]

``--seeds`` picks registry seed blocks: block ``S`` is registry seeds
``S`` to ``S+4``, the problems of perfbench's ``corpus`` at
``--input-seed S``.  ``--stride N`` keeps every N-th problem name.  Exit
status is 1 when any model differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.core.facade import build_explorer  # noqa: E402
from repro.milp.model import Model  # noqa: E402
from repro.runtime.cache import EncodeCache  # noqa: E402
from tests.expr_reference import reference_algebra  # noqa: E402
from tools.check_pool_differential import registry_scenarios  # noqa: E402


def model_image(model: Model) -> dict[str, bytes]:
    """Everything the solver sees of ``model``, as comparable bytes."""
    flat = model.row_arrays()
    objective = model.objective
    variables = model.variables
    return {
        "counts": flat.counts.tobytes(),
        "cols": flat.cols.tobytes(),
        "coefs": flat.coefs.tobytes(),
        "lower": flat.lower.tobytes(),
        "upper": flat.upper.tobytes(),
        "names": "\n".join(c.name for c in model.constraints).encode(),
        "objective": (
            np.array(list(objective.coeffs), dtype=np.int64).tobytes()
            + np.array(
                [*objective.coeffs.values(), objective.constant],
                dtype=np.float64,
            ).tobytes()
        ),
        "columns": (
            "\n".join(
                f"{v.name}:{int(v.is_integer)}" for v in variables
            ).encode()
            + np.array(
                [(v.lower, v.upper) for v in variables], dtype=np.float64
            ).tobytes()
        ),
    }


def build_image(scenario) -> dict[str, bytes]:
    """The model image of one cold explorer build, or its error."""
    explorer = build_explorer(
        scenario.template, scenario.library, scenario.requirements,
        channel=scenario.channel, k_star=scenario.k_star,
        cache=EncodeCache(), plan=scenario.plan,
    )
    try:
        built = explorer.build(scenario.objective)
    except Exception as exc:  # compared across the two builds
        return {"error": f"{type(exc).__name__}: {exc}".encode()}
    return model_image(built.model)


def differential(scenarios: Iterable) -> tuple[list[str], int, int]:
    """``name: parts`` of every differing model, plus problem and row counts."""
    mismatched: list[str] = []
    problems = 0
    rows = 0
    for scenario in scenarios:
        problems += 1
        library = build_image(scenario)
        with reference_algebra():
            reference = build_image(scenario)
        rows += len(library.get("counts", b"")) // 8
        parts = sorted(
            part for part in library.keys() | reference.keys()
            if library.get(part) != reference.get(part)
        )
        if parts:
            mismatched.append(f"{scenario.name}: {', '.join(parts)}")
    return mismatched, problems, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--stride", type=int, default=1)
    args = parser.parse_args(argv)
    mismatched, problems, rows = differential(
        registry_scenarios(args.seeds, args.stride)
    )
    print(f"{problems} problems, {rows} rows: {len(mismatched)} model mismatches")
    for line in mismatched:
        print(f"  {line}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
