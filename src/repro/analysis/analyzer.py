"""Analyzer entry points: run every registered rule and collect a report.

:func:`analyze_problem` checks the problem inputs (template,
requirements, library) before encoding; :func:`analyze_model` checks a
built MILP before solving.  Neither calls a solver — the point of the
subsystem is that a structurally doomed problem is rejected here
instead of burning a full encode + solve cycle.  :func:`analyze_model`
flattens the model into arrays once and every model rule reads them;
``docs/performance.md`` gives the measured cost of both passes.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.rules import (
    ModelContext,
    ModelRule,
    SpecContext,
    SpecRule,
    model_rules,
    spec_rules,
)
from repro.library.catalog import Library
from repro.milp.model import Model
from repro.network.requirements import ReachabilityRequirement, RequirementSet
from repro.network.template import Template

# Importing the rule modules registers their rules.
from repro.analysis import model_rules as _model_rules  # noqa: F401
from repro.analysis import spec_rules as _spec_rules  # noqa: F401


def analyze_problem(
    template: Template,
    requirements: RequirementSet | ReachabilityRequirement | None = None,
    library: Library | None = None,
    *,
    rules: Sequence[SpecRule] | None = None,
) -> AnalysisReport:
    """Run the spec-level rules over the problem inputs.

    ``rules`` restricts the pass to an explicit rule list (tests,
    targeted linting); by default every registered rule runs.
    """
    ctx = SpecContext.build(template, requirements, library)
    report = AnalysisReport()
    start = time.perf_counter()
    for rule in spec_rules() if rules is None else rules:
        report.extend(rule.check(ctx))
    report.seconds = time.perf_counter() - start
    return report


def analyze_model(
    model: Model,
    *,
    rules: Sequence[ModelRule] | None = None,
) -> AnalysisReport:
    """Run the model-level rules over a built MILP.

    The model is flattened once (:class:`ModelContext`) and every rule
    reads the same arrays.
    """
    report = AnalysisReport()
    start = time.perf_counter()
    ctx = ModelContext(model)
    for rule in model_rules() if rules is None else rules:
        report.extend(rule.check_context(ctx))
    report.seconds = time.perf_counter() - start
    return report
