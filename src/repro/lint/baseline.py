"""Baseline files: grandfather pre-existing findings, gate new ones.

Adopting a linter on a grown tree is all-or-nothing without a baseline:
either every historical finding blocks CI on day one, or the gate ships
disabled.  The baseline records the *current* findings as fingerprints;
``repro lint --baseline FILE`` subtracts them and fails only on findings
the file does not cover.  Fixing a grandfathered finding then shrinks the
baseline via ``--write-baseline`` — the ratchet only tightens.

Fingerprints are deliberately line-number-free: ``(path, rule, snippet)``
hashed with SHA-256 (the same stable-across-processes choice as
:func:`repro.core.cache.campaign_digest` — ``hash()`` is salted and
unusable).  Unrelated edits that shift a grandfathered finding up or down
the file do not invalidate the baseline; duplicating the offending line
does, because matching is multiset-aware (N fingerprints absorb at most N
identical findings).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from typing import List, Sequence, Tuple

from repro.core.metrics import PathLike
from repro.lint.findings import Finding

#: Bump when the fingerprint recipe changes so a stale baseline can never
#: silently absorb findings it was not written for.
BASELINE_FORMAT = 1


def finding_fingerprint(finding: Finding) -> str:
    """Line-number-free stable identity of one finding.

    ``path`` + ``rule`` + ``snippet``: enough to survive line drift from
    unrelated edits, specific enough that a *new* occurrence of the same
    hazard on a different source line (different snippet text) is not
    absorbed.
    """
    text = f"{finding.path}\t{finding.rule_id}\t{finding.snippet}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def write_baseline(path: PathLike, findings: Sequence[Finding]) -> str:
    """Write the baseline document for ``findings``; returns the path.

    Entries are sorted and carry the human-readable location they were
    recorded at, so baseline diffs review like code.
    """
    entries = sorted(
        (
            {
                "fingerprint": finding_fingerprint(f),
                "rule": f.rule_id,
                "path": f.path,
                "line": f.line,
                "snippet": f.snippet,
            }
            for f in findings
        ),
        key=lambda e: (e["path"], e["line"], e["rule"], e["fingerprint"]),
    )
    document = {"format": BASELINE_FORMAT, "findings": entries}
    target = os.fspath(path)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def load_baseline(path: PathLike) -> Counter:
    """Load a baseline into a fingerprint multiset.

    Raises:
        ValueError: the file is not a baseline document of the current
            format (a stale-format baseline must fail loudly, not absorb
            findings under a recipe it was not written for).
        OSError: the file cannot be read.
    """
    target = os.fspath(path)
    with open(target, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{target}: not a baseline file ({exc})") from None
    if not isinstance(document, dict) or "findings" not in document:
        raise ValueError(f"{target}: not a baseline file (no findings key)")
    if document.get("format") != BASELINE_FORMAT:
        raise ValueError(
            f"{target}: baseline format {document.get('format')!r} does not "
            f"match the supported format {BASELINE_FORMAT}; regenerate it "
            "with 'repro lint --write-baseline'"
        )
    fingerprints: Counter = Counter()
    for entry in document["findings"]:
        if not isinstance(entry, dict) or "fingerprint" not in entry:
            raise ValueError(f"{target}: malformed baseline entry {entry!r}")
        fingerprints[str(entry["fingerprint"])] += 1
    return fingerprints


def apply_baseline(
    findings: Sequence[Finding], baseline: Counter
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into ``(new, grandfathered)`` against a baseline.

    Multiset semantics: each baseline fingerprint absorbs at most as many
    findings as it was recorded times, in location order — so adding a
    *second* copy of a grandfathered hazard is a new finding even though
    its fingerprint matches.
    """
    remaining = Counter(baseline)
    new: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding in sorted(findings, key=Finding.sort_key):
        fingerprint = finding_fingerprint(finding)
        if remaining[fingerprint] > 0:
            remaining[fingerprint] -= 1
            grandfathered.append(finding)
        else:
            new.append(finding)
    return new, grandfathered

