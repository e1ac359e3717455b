"""Rule ``unseeded-rng``: global/legacy RNG calls with process-wide state.

``random.*`` module functions and the legacy ``numpy.random.*`` module
API draw from *process-global* generators.  Any such draw inside the
reproduction pipeline makes results depend on import order, executor
scheduling and whatever other code touched the generator first — the
exact nondeterminism the named-stream discipline of
:mod:`repro.utils.rng` exists to rule out.  Seeding the global generator
(``random.seed`` / ``numpy.random.seed``) is flagged too: it trades
nondeterminism for spooky action between unrelated components.

Sanctioned alternative: derive a seed with
:func:`repro.utils.rng.derive_seed` and draw from a local
``numpy.random.default_rng(seed)`` / ``RngStreams`` generator.  A local
``random.Random(seed)`` instance is accepted too; ``random.Random()``
without a seed draws its state from the operating system and flags.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, LintRule, register_rule

#: ``numpy.random`` attributes that do *not* touch the global generator:
#: constructing explicitly-seeded generators and bit generators is the
#: sanctioned replacement, not the hazard.
_SEEDED_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "BitGenerator",
}

#: Module prefixes whose bare-attribute calls are global-state RNG.
_GLOBAL_RNG_PREFIXES = ("random.", "numpy.random.", "np.random.")


def _seeded_random_instance(dotted: str, node: ast.Call) -> bool:
    """``random.Random(seed)``: a local generator with an explicit seed."""
    if dotted != "random.Random":
        return False
    seeds = list(node.args) + [kw.value for kw in node.keywords]
    return bool(seeds) and not (
        isinstance(seeds[0], ast.Constant) and seeds[0].value is None
    )


class UnseededRngRule(LintRule):
    rule_id = "unseeded-rng"
    title = "global random.* / legacy numpy.random.* call (process-wide state)"

    def check(self, context: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = context.dotted_name(node.func)
            if dotted is None or _seeded_random_instance(dotted, node):
                continue
            for prefix in _GLOBAL_RNG_PREFIXES:
                if not dotted.startswith(prefix):
                    continue
                attr = dotted[len(prefix):]
                if "." in attr or attr in _SEEDED_CONSTRUCTORS:
                    continue
                source = (
                    "its state from the operating system"
                    if dotted == "random.Random"
                    else "from the process-global RNG"
                )
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"{dotted}() draws {source}; "
                        "derive a seed (repro.utils.rng.derive_seed) and "
                        "use a local numpy.random.default_rng(seed) / "
                        "RngStreams stream instead",
                    )
                )
                break
        return findings


register_rule(UnseededRngRule())
