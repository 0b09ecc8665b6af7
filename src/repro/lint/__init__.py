"""`repro lint`: self-hosted static analysis for the repro codebase.

The repo's two load-bearing guarantees -- bit-identity of every
engine/wire/cluster path, and no-acked-write-lost under failover -- are
enforced dynamically by the differential walls and chaos smokes.  This
package is the static arm: an AST-based pass over ``src/repro`` that
checks the *disciplines* those guarantees rest on.

Three analyzers:

* **Lock discipline** (:mod:`repro.lint.locks`) -- extracts every
  ``with <lock>`` acquisition into a cross-module lock-order graph,
  reports nested-acquisition cycles (deadlock candidates), blocking
  calls made while a lock is held, and writes to attributes declared
  ``# guarded-by: <lock>`` reached outside that lock.
* **Determinism** (:mod:`repro.lint.determinism`) -- flags unordered
  ``set`` iteration and ``dict.popitem`` in kernel/wire modules,
  ``time.*``/``random.*`` in kernel modules, dict-order-dependent wire
  encoding (``json.dumps`` without ``sort_keys``), and broad exception
  handlers that swallow without re-raising.
* **Runtime witness** (:mod:`repro.testing.lockcheck` + ``--witness``)
  -- observed lock-acquisition orders from a tier-1 run are
  cross-checked against the static graph: an observed edge the
  analyzer missed is an analyzer gap (build failure); a static edge
  never observed is a stale-annotation warning.

Findings are suppressed inline with ``# repro-lint: allow[rule]
reason=...`` -- the reason is mandatory and its absence is itself a
finding.  Run it as ``repro lint`` (exit 0 clean / 1 findings /
2 internal error); see :mod:`repro.lint.runner` for the CLI.
"""

from repro.lint.findings import Finding, RULES, fingerprint
from repro.lint.runner import AnalysisResult, analyze, main

__all__ = ["Finding", "RULES", "fingerprint", "AnalysisResult", "analyze", "main"]
