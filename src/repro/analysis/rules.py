"""The rule framework of the static analyzer.

A rule is one class: subclass :class:`SpecRule` (checks the problem
inputs — template, requirements, library — before encoding) or
:class:`ModelRule` (checks a built :class:`~repro.milp.model.Model`
before solving), fill in the class metadata (``rule_id``, severity,
trigger example and fix hint — the same strings ``docs/diagnostics.md``
catalogs), implement ``check`` (spec rules) or ``check_context`` (model
rules) as a generator of :class:`~repro.analysis.diagnostics.Diagnostic`,
and register it with the ``@spec_rule`` / ``@model_rule`` decorator.
The analyzer entry points in :mod:`repro.analysis.analyzer` run every
registered rule.

Model rules read a :class:`ModelContext`: the model flattened once into
arrays, so each rule is a handful of numpy masks and Python only formats
the messages of flagged rows and variables.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
import numpy.typing as npt

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.library.catalog import Library
from repro.milp.model import Model, RowArrays
from repro.network.requirements import (
    LifetimeRequirement,
    LinkQualityRequirement,
    ReachabilityRequirement,
    RequirementSet,
    RouteRequirement,
)
from repro.network.template import Template


@dataclass
class SpecContext:
    """Everything a spec-level rule may inspect."""

    template: Template
    library: Library | None = None
    routes: tuple[RouteRequirement, ...] = ()
    link_quality: LinkQualityRequirement | None = None
    lifetime: LifetimeRequirement | None = None
    reachability: ReachabilityRequirement | None = None

    @classmethod
    def build(
        cls,
        template: Template,
        requirements: RequirementSet | ReachabilityRequirement | None = None,
        library: Library | None = None,
    ) -> SpecContext:
        """Normalize the explorer inputs into a context.

        Accepts a full :class:`RequirementSet` (data-collection problems),
        a bare :class:`ReachabilityRequirement` (anchor placement), or
        ``None`` (template-only checks).
        """
        if isinstance(requirements, ReachabilityRequirement):
            return cls(template, library, reachability=requirements)
        if requirements is None:
            return cls(template, library)
        return cls(
            template,
            library,
            routes=tuple(requirements.routes),
            link_quality=requirements.link_quality,
            lifetime=requirements.lifetime,
            reachability=requirements.reachability,
        )


def row_sums(
    row_of: npt.NDArray[np.int64], weights: npt.NDArray[np.float64], rows: int
) -> npt.NDArray[np.float64]:
    """Per-row sums of term ``weights``, added in term order.

    ``np.bincount`` accumulates term by term from 0.0, so each sum is
    bitwise the left-to-right loop over that row's terms.
    """
    sums = np.bincount(row_of, weights=weights, minlength=rows)
    return sums.astype(np.float64, copy=False)


class ModelContext:
    """A built model as the arrays every model-level rule reads.

    :func:`~repro.analysis.analyzer.analyze_model` builds one per call:
    a single flattening of the rows (:meth:`Model.row_arrays`) plus the
    variable bounds and kinds.  The derived masks and activity intervals
    are computed on first use and shared by the rules that need them.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self.rows: RowArrays = model.row_arrays()
        #: Row index of every flattened term.
        self.row_of: npt.NDArray[np.int64] = self.rows.row_of_terms()
        variables = model.variables
        n = len(variables)
        self.n = n
        self.var_lower: npt.NDArray[np.float64] = np.fromiter(
            (var.lower for var in variables), dtype=np.float64, count=n
        )
        self.var_upper: npt.NDArray[np.float64] = np.fromiter(
            (var.upper for var in variables), dtype=np.float64, count=n
        )
        self.integer: npt.NDArray[np.bool_] = np.fromiter(
            (var.is_integer for var in variables), dtype=np.bool_, count=n
        )

    @cached_property
    def binary(self) -> npt.NDArray[np.bool_]:
        """Integer variables with 0/1 bounds (:attr:`Var.is_binary`)."""
        return self.integer & (self.var_lower == 0.0) & (self.var_upper == 1.0)

    @cached_property
    def nonzero_term(self) -> npt.NDArray[np.bool_]:
        """Terms with a nonzero (or NaN) coefficient."""
        return self.rows.coefs != 0.0

    @cached_property
    def foreign_term(self) -> npt.NDArray[np.bool_]:
        """Terms whose column is not one of the model's variables."""
        cols = self.rows.cols
        return (cols < 0) | (cols >= self.n)

    @cached_property
    def valid_row(self) -> npt.NDArray[np.bool_]:
        """Rows whose every term, zero or not, names a model variable."""
        m = len(self.rows.counts)
        foreign = np.bincount(self.row_of[self.foreign_term], minlength=m)
        return foreign == 0

    @cached_property
    def activity(
        self,
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Interval of every valid row's ``sum(coeff * var)`` over bounds.

        Zero coefficients are skipped and each row is summed in insertion
        order, so the sums are bitwise those of a per-term loop.  Rows
        with a foreign column read ``[0, 0]``.
        """
        rows = self.rows
        used = self.nonzero_term & self.valid_row[self.row_of]
        cols = rows.cols[used]
        coefs = rows.coefs[used]
        with np.errstate(invalid="ignore", over="ignore"):
            at_lower = coefs * self.var_lower[cols]
            at_upper = coefs * self.var_upper[cols]
        positive = coefs > 0.0
        row_of = self.row_of[used]
        m = len(rows.counts)
        act_lo = row_sums(row_of, np.where(positive, at_lower, at_upper), m)
        act_hi = row_sums(row_of, np.where(positive, at_upper, at_lower), m)
        return act_lo, act_hi


class Rule(abc.ABC):
    """Shared metadata of every analysis rule (see ``docs/diagnostics.md``)."""

    #: Stable identifier, ``spec.*`` or ``model.*`` namespaced.
    rule_id: ClassVar[str]
    #: Default severity of this rule's findings.
    default_severity: ClassVar[Severity]
    #: One-line description of what the rule checks.
    title: ClassVar[str]
    #: Example of a spec/model that triggers the rule (for the docs).
    example: ClassVar[str]
    #: Default fix hint attached to findings.
    hint: ClassVar[str]

    def diagnostic(
        self,
        message: str,
        *,
        location: str = "",
        severity: Severity | None = None,
        hint: str | None = None,
        **data: object,
    ) -> Diagnostic:
        """A finding of this rule, defaulting severity and hint."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=self.default_severity if severity is None else severity,
            message=message,
            location=location,
            hint=self.hint if hint is None else hint,
            data=dict(data),
        )


class SpecRule(Rule):
    """A rule over the problem inputs (template/requirements/library)."""

    @abc.abstractmethod
    def check(self, ctx: SpecContext) -> Iterator[Diagnostic]:
        """Yield findings for the given problem inputs."""


class ModelRule(Rule):
    """A rule over a built MILP model.

    Subclasses implement :meth:`check_context`; :meth:`check` runs the
    rule alone on a model.
    """

    def check(self, model: Model) -> Iterator[Diagnostic]:
        """Yield findings for the given model (flattened for this rule)."""
        return self.check_context(ModelContext(model))

    @abc.abstractmethod
    def check_context(self, ctx: ModelContext) -> Iterator[Diagnostic]:
        """Yield findings for the model behind ``ctx``."""


_SPEC_RULES: dict[str, SpecRule] = {}
_MODEL_RULES: dict[str, ModelRule] = {}


def spec_rule(cls: type[SpecRule]) -> type[SpecRule]:
    """Class decorator registering a :class:`SpecRule`."""
    rule = cls()
    if rule.rule_id in _SPEC_RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _SPEC_RULES[rule.rule_id] = rule
    return cls


def model_rule(cls: type[ModelRule]) -> type[ModelRule]:
    """Class decorator registering a :class:`ModelRule`."""
    rule = cls()
    if rule.rule_id in _MODEL_RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _MODEL_RULES[rule.rule_id] = rule
    return cls


def spec_rules() -> tuple[SpecRule, ...]:
    """All registered spec-level rules, in registration order."""
    return tuple(_SPEC_RULES.values())


def model_rules() -> tuple[ModelRule, ...]:
    """All registered model-level rules, in registration order."""
    return tuple(_MODEL_RULES.values())


def rule_catalog() -> tuple[Rule, ...]:
    """Every registered rule (spec first); drives the docs catalog."""
    return tuple(_SPEC_RULES.values()) + tuple(_MODEL_RULES.values())
