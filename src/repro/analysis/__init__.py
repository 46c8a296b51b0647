"""Pre-solve static analysis: spec and model linting with diagnostics.

The subsystem mirrors the paper's thesis — prune the infeasible space
*before* the solver sees it — at the tooling level: rule-based analyzers
run over problem inputs (:func:`analyze_problem`) and built MILPs
(:func:`analyze_model`), emit structured :class:`Diagnostic` findings,
and gate :meth:`repro.core.explorer.ExplorerBase.build` so structurally
doomed problems fail in milliseconds with actionable messages instead of
after a full encode + solve cycle.  ``repro lint`` exposes the same
passes on the command line; ``docs/diagnostics.md`` catalogs every rule.
"""

from repro.analysis.analyzer import analyze_model, analyze_problem
from repro.analysis.diagnostics import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.rules import (
    ModelContext,
    ModelRule,
    Rule,
    SpecContext,
    SpecRule,
    model_rule,
    model_rules,
    rule_catalog,
    spec_rule,
    spec_rules,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Diagnostic",
    "ModelContext",
    "ModelRule",
    "Rule",
    "Severity",
    "SpecContext",
    "SpecRule",
    "analyze_model",
    "analyze_problem",
    "model_rule",
    "model_rules",
    "rule_catalog",
    "spec_rule",
    "spec_rules",
]
