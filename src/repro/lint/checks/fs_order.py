"""Rule ``unsorted-fs-iteration``: filesystem listings used unsorted.

``os.listdir``, ``os.scandir``, ``os.walk``, ``glob.glob`` and
``Path.iterdir``/``glob``/``rglob`` return entries in filesystem order —
which differs between ext4, tmpfs, NFS and object-store gateways.  Any
consumer that folds such a listing into output (cache keys, merge order,
report arms) reproduces differently on different machines: exactly the
shard-merge and cache-maintenance paths this repo guarantees are
byte-identical.

The fix is mechanical — wrap the call in ``sorted(...)`` at the call
site.  The rule accepts exactly that shape (plus order-insensitive
consumption by ``len``, ``set``, ``frozenset``, ``sum``, ``all`` or
``any``), and a listing that is the iterable of a comprehension or
generator passed straight to such a wrapper
(``sorted(n for n in os.listdir(d) if ...)``); assigning the raw listing
to a variable and sorting *later* still flags, because every path
between the call and the sort is a place an unsorted copy can leak.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, LintRule, register_rule

#: Module-level listing calls, by dotted name.
_LISTING_CALLS = {
    "os.listdir",
    "os.scandir",
    "os.walk",
    "glob.glob",
    "glob.iglob",
}

#: Method names that produce listings on path-like objects.
_LISTING_METHODS = {"iterdir", "glob", "rglob"}

#: Wrappers that consume a listing order-insensitively.
_ORDER_INSENSITIVE_WRAPPERS = {
    "sorted", "len", "set", "frozenset", "sum", "all", "any",
}

#: Comprehensions whose value keeps its iterable's order.
_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp)


class UnsortedFsIterationRule(LintRule):
    rule_id = "unsorted-fs-iteration"
    title = "filesystem listing not wrapped in sorted()"

    def _listing_name(self, context: FileContext, node: ast.Call) -> Optional[str]:
        dotted = context.dotted_name(node.func)
        if dotted in _LISTING_CALLS:
            return dotted
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
            # ``glob.glob(...)`` already matched above; any *other*
            # receiver ending in a listing method is treated as path-like.
            and dotted not in _LISTING_CALLS
        ):
            return f"<path>.{node.func.attr}"
        return None

    @staticmethod
    def _wrapped(context: FileContext, node: ast.expr) -> bool:
        """Whether ``node``'s value goes straight into an order-insensitive
        wrapper, directly or as the iterable of a comprehension."""
        parent = context.parent(node)
        if isinstance(parent, ast.comprehension) and node is parent.iter:
            comp = context.parent(parent)
            if not isinstance(comp, _COMPREHENSIONS):
                return False
            node, parent = comp, context.parent(comp)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE_WRAPPERS
            and node in parent.args
        )

    def check(self, context: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._listing_name(context, node)
            if name is None:
                continue
            if self._wrapped(context, node):
                continue
            findings.append(
                self.finding(
                    context,
                    node,
                    f"{name}() returns entries in filesystem order, which "
                    "differs across filesystems and machines; wrap the "
                    "call in sorted(...) at the call site",
                )
            )
        return findings


register_rule(UnsortedFsIterationRule())
