"""Comment-level annotations the linter understands.

Four comment forms, all parsed off the token stream (so they work on
any line, including continuation lines):

``# repro-lint: allow[rule,rule2] reason=<free text>``
    Suppress those rules at this line.  A *standalone* pragma (nothing
    but whitespace before the ``#``) also covers the next line, so it
    can sit above the statement it excuses.  Placed on a ``def`` line
    (or standalone above one) it covers the whole function body --
    and for ``lock-blocking`` it additionally declares the function
    itself non-blocking to its callers, which is the right annotation
    point for deliberate patterns like fsync-before-ack: one reasoned
    pragma at the source of truth instead of one per call site.  The
    reason is mandatory; a pragma without one is a finding.

``# guarded-by: <lock>``
    On an attribute assignment (``self.x = {}  # guarded-by: lock`` in
    ``__init__``, or a module global): every later *write* to that
    attribute must happen with the named lock held.  The lock name is
    resolved in context -- a bare name is an attribute of the same
    object or a module global; ``Class.attr`` is explicit.

``# holds-lock: <lock>``
    On a ``def`` line: the function's contract is "caller holds this
    lock".  Its body is analyzed as if the lock were held (guarded
    writes are legal, nested acquisitions become graph edges).

``# lint: returns A|B``  /  ``# lint: returns-lock <label>``
    Type hints for the analyzer where inference cannot follow the
    code: a registry factory returning one of several classes, or a
    helper returning a lock object.  ``returns`` names classes;
    ``returns-lock`` names the lock's graph label.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field


@dataclass
class Allow:
    rules: frozenset
    reason: str
    line: int  # the pragma comment's own line (for pragma-reason findings)
    used: bool = False


@dataclass
class FilePragmas:
    """Everything comment-borne for one source file."""

    #: line -> pragmas covering that line (standalone pragmas appear
    #: under both their own line and the next).
    allows: dict = field(default_factory=dict)
    #: line -> raw lock name from a `# guarded-by:` comment.
    guards: dict = field(default_factory=dict)
    #: line -> [raw lock names] from `# holds-lock:` comments.
    holds: dict = field(default_factory=dict)
    #: line -> [class names] from `# lint: returns A|B`.
    returns: dict = field(default_factory=dict)
    #: line -> lock label from `# lint: returns-lock`.
    returns_lock: dict = field(default_factory=dict)
    #: every Allow object once (for pragma-reason checking).
    all_allows: list = field(default_factory=list)

    def allows_at(self, line: int):
        return self.allows.get(line, ())


_ALLOW_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[([A-Za-z0-9_,\- ]+)\]\s*(?:reason=(.+))?$"
)
_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w.]*)")
_HOLDS_RE = re.compile(r"#\s*holds-lock:\s*([A-Za-z_][\w.]*)")
_RETURNS_RE = re.compile(r"#\s*lint:\s*returns\s+([A-Za-z_][\w|]*)")
_RETLOCK_RE = re.compile(r"#\s*lint:\s*returns-lock\s+([A-Za-z_][\w.]*)")


def parse_pragmas(source: str) -> FilePragmas:
    out = FilePragmas()
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        row, col = tok.start
        text = tok.string
        src_line = lines[row - 1] if row - 1 < len(lines) else ""
        standalone = not src_line[:col].strip()
        m = _ALLOW_RE.search(text)
        if m:
            rules = frozenset(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )
            reason = (m.group(2) or "").strip()
            allow = Allow(rules=rules, reason=reason, line=row)
            out.all_allows.append(allow)
            out.allows.setdefault(row, []).append(allow)
            if standalone:
                out.allows.setdefault(row + 1, []).append(allow)
        m = _GUARD_RE.search(text)
        if m:
            out.guards[row] = m.group(1)
            if standalone:
                out.guards.setdefault(row + 1, m.group(1))
        m = _HOLDS_RE.search(text)
        if m:
            target = row + 1 if standalone else row
            out.holds.setdefault(target, []).append(m.group(1))
        m = _RETURNS_RE.search(text)
        if m:
            target = row + 1 if standalone else row
            out.returns[target] = [
                c.strip() for c in m.group(1).split("|") if c.strip()
            ]
        m = _RETLOCK_RE.search(text)
        if m:
            target = row + 1 if standalone else row
            out.returns_lock[target] = m.group(1)
    return out
