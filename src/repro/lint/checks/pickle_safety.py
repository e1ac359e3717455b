"""Rule ``unpicklable-submission``: lambdas/closures handed to executors.

Campaign payloads cross process boundaries: the parallel executor pickles
:class:`~repro.core.executor.EpisodeTask` chunks, and fleet backends ship
``ml_factory`` to ``repro worker`` processes by pickle.  Lambdas and
functions nested inside other functions do not pickle, so a payload
carrying one either fails mid-campaign or (the executor's deliberate
fallback) silently degrades a fleet dispatch to serial in-process
execution — correctness survives, the distribution story does not.

The rule flags lambda and nested-function arguments to the submission
APIs (``pool.submit``/``map``, :func:`repro.core.experiment.run_campaign`,
:func:`repro.core.scheduler.dispatch_campaign`,
:func:`repro.core.scheduler.execute_shard`).  Keyword arguments that
never cross a process boundary (``progress``, ``log``, ``key``) are
exempt: progress callbacks run in the dispatching process by design.

Sanctioned alternative: a module-level function or a picklable factory
class such as :class:`repro.ml.mitigation.MitigationFactory`.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, LintRule, register_rule

#: Call names (bare or attribute) treated as process-crossing submission
#: APIs.
_SUBMISSION_NAMES = {
    "submit",
    "run_campaign",
    "dispatch_campaign",
    "execute_shard",
}

#: ``<receiver>.<method>`` attribute calls also treated as submissions.
_SUBMISSION_METHODS = {"submit", "map"}

#: Keyword arguments that stay in the dispatching process.
_LOCAL_ONLY_KEYWORDS = {"progress", "log", "key"}


class UnpicklableSubmissionRule(LintRule):
    rule_id = "unpicklable-submission"
    title = "lambda/nested function passed to an executor submission API"

    def _nested_function_names(self, context: FileContext) -> Set[Tuple[ast.AST, str]]:
        """``(enclosing function, name)`` for every nested function def."""
        nested: Set[Tuple[ast.AST, str]] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                enclosing = context.enclosing_function(node)
                if enclosing is not None:
                    nested.add((enclosing, node.name))
        return nested

    def _is_submission(self, context: FileContext, node: ast.Call) -> bool:
        if isinstance(node.func, ast.Name):
            return node.func.id in _SUBMISSION_NAMES
        if isinstance(node.func, ast.Attribute):
            return (
                node.func.attr in _SUBMISSION_NAMES
                or node.func.attr in _SUBMISSION_METHODS
            )
        return False

    def check(self, context: FileContext) -> List[Finding]:
        nested = self._nested_function_names(context)
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call) or not self._is_submission(
                context, node
            ):
                continue
            scope = context.enclosing_function(node)
            candidates = [(arg, None) for arg in node.args] + [
                (kw.value, kw.arg) for kw in node.keywords
            ]
            for value, keyword in candidates:
                if keyword in _LOCAL_ONLY_KEYWORDS:
                    continue
                if isinstance(value, ast.Lambda):
                    findings.append(
                        self.finding(
                            context,
                            value,
                            "lambda passed to a submission API does not "
                            "pickle across the process boundary; use a "
                            "module-level function or a picklable factory "
                            "(e.g. repro.ml.MitigationFactory)",
                        )
                    )
                elif (
                    isinstance(value, ast.Name)
                    and scope is not None
                    and (scope, value.id) in nested
                ):
                    findings.append(
                        self.finding(
                            context,
                            value,
                            f"nested function {value.id!r} passed to a "
                            "submission API does not pickle across the "
                            "process boundary; hoist it to module level",
                        )
                    )
        return findings


register_rule(UnpicklableSubmissionRule())
