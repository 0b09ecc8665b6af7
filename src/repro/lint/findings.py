"""Finding records and the rule catalog for ``repro lint``."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

#: rule id -> one-line description (the catalog `repro lint --rules` prints).
RULES: dict[str, str] = {
    "lock-cycle": (
        "the cross-module lock-order graph has a cycle: two code paths "
        "can acquire the same locks in opposite orders (deadlock candidate)"
    ),
    "lock-blocking": (
        "a blocking operation (fsync, socket I/O, sleep, subprocess, "
        "pool submit) runs while a lock is held"
    ),
    "lock-unresolved": (
        "a lock acquisition whose lock the analyzer cannot name -- the "
        "runtime witness cannot be cross-checked against an anonymous lock"
    ),
    "guarded-by": (
        "an attribute declared `# guarded-by: <lock>` is written without "
        "that lock held"
    ),
    "det-set-iter": (
        "iteration over an unordered set in a kernel/wire module -- "
        "order-dependent output would break bit-identity (wrap in sorted())"
    ),
    "det-popitem": (
        "dict.popitem() pops in insertion order only by CPython accident; "
        "name the key you mean"
    ),
    "det-time-random": (
        "time.* / random.* in a kernel module (core/, store/) -- hashes "
        "must be pure functions of the corpus"
    ),
    "wire-dict-order": (
        "json.dumps without sort_keys=True in a wire module -- encoded "
        "bytes must not depend on dict insertion order"
    ),
    "broad-except": (
        "a bare/broad exception handler that neither re-raises nor is "
        "annotated -- silent swallowing hides real faults"
    ),
    "pragma-reason": (
        "a `# repro-lint: allow[...]` pragma without a reason= -- every "
        "suppression must say why"
    ),
    "witness-gap-site": (
        "the runtime witness observed a lock acquisition at a site the "
        "static analyzer has no label for (analyzer gap)"
    ),
    "witness-gap-edge": (
        "the runtime witness observed a nested lock acquisition the "
        "static lock-order graph does not contain (analyzer gap)"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violated at a site.

    ``path`` is relative to the source root (``repro/store/journal.py``)
    so witness records from any checkout compare equal.  ``context`` is
    the enclosing function's qualname when there is one.
    """

    rule: str
    path: str
    line: int
    message: str
    context: str = ""
    suppressed: Optional[str] = field(default=None, compare=False)

    def format(self) -> str:
        where = f" (in {self.context})" if self.context else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{where}"

    def as_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": self.context,
            "fingerprint": fingerprint(self),
        }
        if self.suppressed is not None:
            out["suppressed"] = self.suppressed
        return out


_DIGITS = re.compile(r"\d+")


def fingerprint(finding: Finding) -> str:
    """A line-number-insensitive identity for baseline diffing.

    Stable across pure code motion: the digest covers the rule, the
    file, the enclosing qualname and the message with numbers stripped
    (line numbers leak into messages for cycles and witness edges).
    """
    core = "|".join(
        (
            finding.rule,
            finding.path,
            finding.context,
            _DIGITS.sub("#", finding.message),
        )
    )
    return hashlib.sha256(core.encode("utf-8")).hexdigest()[:16]
