"""Command-line interface: ``python -m repro <command>``.

Experiment commands regenerate the paper's tables and figures::

    python -m repro fig1                    # e-summary walkthrough (Figure 1)
    python -m repro table1                  # algorithm matrix, verified
    python -m repro table2                  # realistic workloads (ms)
    python -m repro fig2 --family balanced  # random-expression sweeps
    python -m repro fig3                    # BERT layer sweep
    python -m repro fig4 --scale small      # collision counts
    python -m repro incremental             # Section 6.3
    python -m repro opcounts                # Lemma 6.1/6.2
    python -m repro ablations               # design-choice ablations
    python -m repro difftest --cases 500    # cross-validate all algorithms

Utility commands work on expression files (surface syntax, see
``repro.lang.parser``)::

    python -m repro hash FILE [FILE...]     # alpha-hash; >1 file = JSON batch
    python -m repro classes FILE            # equivalence classes
    python -m repro cse FILE                # CSE-transformed program
    python -m repro store FILE [FILE...]    # intern a corpus, report cache stats
    python -m repro session [FILE...]       # the Session facade: pick a
                                            # --backend, batch-hash a corpus,
                                            # --save/--load store snapshots
    python -m repro session C0 C1 --stream TRACE.jsonl
                                            # streaming rewrite session: open
                                            # over the corpus, replay a JSONL
                                            # edit trace (one {"item","path",
                                            # "expr"} object per line); each
                                            # edit re-hashes only the dirty
                                            # spine.  --url points the same
                                            # trace at a serve/cluster
                                            # endpoint instead
    python -m repro edit FILE --path 0.1 --with NEW.expr
                                            # one subtree replacement:
                                            # incremental re-hash, reports
                                            # old/new root hash and the
                                            # nodes-rehashed receipt
    python -m repro serve --port 8655       # serve the session over HTTP/JSON
                                            # (hash/intern/stats + snapshot
                                            # download/upload; --journal DIR
                                            # for crash-safe write-ahead
                                            # durability, --follow URL to run
                                            # as a tailing read replica; see
                                            # repro.service)
    python -m repro cluster serve \\
        --shard http://127.0.0.1:8655 \\
        --shard http://127.0.0.1:8657       # coordinator over shard nodes
                                            # started with --shard-id/-count;
                                            # --replica SHARD=URL adds read
                                            # failover + promotion, --budget
                                            # caps per-request failover time
                                            # (see repro.cluster)
    python -m repro lint [--json]           # concurrency + determinism static
                                            # analysis over the repro source
                                            # tree: lock-order cycles, blocking
                                            # calls under locks, guarded-by
                                            # violations, nondeterministic
                                            # iteration/encoding.  --witness
                                            # cross-checks a runtime record
                                            # from repro.testing.lockcheck,
                                            # --baseline gates on new findings
                                            # only (see repro.lint)
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.core.arena import ENGINE_CHOICES

__all__ = ["main"]

_EXPERIMENTS = {
    "fig1": "repro.evalharness.fig1",
    "table1": "repro.evalharness.table1",
    "table2": "repro.evalharness.table2",
    "fig2": "repro.evalharness.fig2",
    "fig3": "repro.evalharness.fig3",
    "fig4": "repro.evalharness.fig4",
    "incremental": "repro.evalharness.incremental_exp",
    "opcounts": "repro.evalharness.opcounts",
    "ablations": "repro.evalharness.ablations",
    "difftest": "repro.analysis.differential",
}

_UTILITIES = (
    "hash",
    "classes",
    "cse",
    "store",
    "session",
    "edit",
    "serve",
    "cluster",
    "lint",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command in _EXPERIMENTS:
        import importlib

        module = importlib.import_module(_EXPERIMENTS[command])
        return int(module.main(rest) or 0)
    if command in _UTILITIES:
        return _run_utility(command, rest)
    print(f"unknown command {command!r}\n", file=sys.stderr)
    print(__doc__, file=sys.stderr)
    return 2


def _read_expr(path: str):
    from repro.lang.names import uniquify_binders
    from repro.lang.parser import parse

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return uniquify_binders(parse(text))


def _run_utility(command: str, rest: Sequence[str]) -> int:
    import argparse

    if command == "store":
        return _run_store(rest)
    if command == "hash":
        return _run_hash(rest)
    if command == "session":
        return _run_session(rest)
    if command == "edit":
        return _run_edit(rest)
    if command == "serve":
        from repro.service.server import serve

        return serve(rest)
    if command == "cluster":
        from repro.cluster.coordinator import cluster

        return cluster(rest)
    if command == "lint":
        from repro.lint.runner import main as lint_main

        return lint_main(rest)

    parser = argparse.ArgumentParser(prog=f"repro {command}")
    parser.add_argument("file", help="expression file, or - for stdin")
    if command == "classes":
        parser.add_argument("--min-size", type=int, default=2)
        parser.add_argument("--min-count", type=int, default=2)
    if command == "cse":
        parser.add_argument("--min-size", type=int, default=3)
    args = parser.parse_args(rest)
    expr = _read_expr(args.file)

    if command == "classes":
        from repro.core.equivalence import equivalence_classes
        from repro.lang.pretty import pretty

        classes = equivalence_classes(
            expr, min_size=args.min_size, min_count=args.min_count, verify=True
        )
        if not classes:
            print("no repeated alpha-equivalent subexpressions")
            return 0
        for cls in classes:
            print(
                f"{cls.count} occurrences, {cls.node_size} nodes:  "
                f"{pretty(cls.representative, max_len=100)}"
            )
        return 0

    assert command == "cse"
    from repro.api import Session
    from repro.lang.pretty import pretty

    result = Session().cse(expr, min_size=args.min_size)
    print(pretty(result.expr))
    print(
        f"# {result.original_size} -> {result.final_size} nodes "
        f"in {len(result.rounds)} rounds",
        file=sys.stderr,
    )
    return 0


def _run_hash(rest: Sequence[str]) -> int:
    """``repro hash``: alpha-hash one or many expression files.

    One input keeps the historical plain ``0x...`` output; several
    inputs switch to batch mode -- the whole corpus goes through
    :meth:`Session.hash_corpus` (store-batched, so shared subtrees hash
    once) and one JSON record per expression is emitted.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro hash",
        description="Alpha-hash expression files; with several files, "
        "emit one JSON record per expression (batch mode).",
    )
    parser.add_argument(
        "files", nargs="+", help="expression files (surface syntax); - for stdin"
    )
    parser.add_argument("--bits", type=int, default=64)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--algorithm",
        "--backend",
        dest="algorithm",
        default="ours",
        help="any unified-registry backend (Table 1 rows, ours_lazy, ablations)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="corpus hashing strategy: the arena kernel (auto, arena) "
        "or the memoised tree walk (tree)",
    )
    args = parser.parse_args(rest)

    from repro.api import Session

    session = Session(
        backend=args.algorithm, bits=args.bits, seed=args.seed, engine=args.engine
    )
    exprs = [_read_expr(path) for path in args.files]
    hashes = session.hash_corpus(exprs)
    if len(args.files) == 1:
        print(f"0x{hashes[0]:x}")
        return 0
    for path, expr, value in zip(args.files, exprs, hashes):
        print(
            json.dumps(
                {
                    "file": path,
                    "hash": f"0x{value:x}",
                    "nodes": expr.size,
                    "backend": session.backend.name,
                    "bits": session.combiners.bits,
                },
                sort_keys=True,
            )
        )
    return 0


def _run_session(rest: Sequence[str]) -> int:
    """``repro session``: drive the Session facade from the shell.

    Hashes and interns a corpus of expression files through one
    :class:`~repro.api.Session`, emitting a JSON record per expression;
    ``--save`` snapshots the session's store afterwards and ``--load``
    starts from a snapshot, so a corpus hashed once is reusable across
    processes.  ``--check`` (with ``--load``) fails unless every
    expression's class was already present in the snapshot.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro session",
        description="Hash/intern expression files through a Session facade "
        "with a pluggable backend and store snapshots.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="expression files (surface syntax); - for stdin",
    )
    parser.add_argument(
        "--backend", default=None, help="unified-registry backend name"
    )
    parser.add_argument("--bits", type=int, default=64)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--no-store", action="store_true", help="hash without a store"
    )
    parser.add_argument(
        "--max-entries", type=int, default=None, help="LRU-bound the store"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="corpus hashing strategy (see README: Arena kernel)",
    )
    parser.add_argument("--load", metavar="PATH", help="start from a snapshot")
    parser.add_argument("--save", metavar="PATH", help="snapshot when done")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless every expression was already in the loaded snapshot",
    )
    parser.add_argument(
        "--stats", action="store_true", help="emit a final JSON stats record"
    )
    parser.add_argument(
        "--stream",
        metavar="TRACE",
        help="open a streaming edit session over the corpus and replay a "
        "JSONL edit trace (one {\"item\", \"path\", \"expr\"} object per "
        "line; expr in surface syntax); - reads the trace from stdin",
    )
    parser.add_argument(
        "--url",
        metavar="URL",
        help="with --stream: run the session against a repro serve / "
        "repro cluster endpoint instead of in-process",
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="with --stream --url: per-session idle expiry override "
        "(bounded by the server's --session-ttl)",
    )
    args = parser.parse_args(rest)
    if args.url and not args.stream:
        parser.error("--url only makes sense with --stream")
    if args.stream and args.check:
        parser.error("--check does not combine with --stream")
    if args.url and (
        args.load or args.save or args.no_store or args.max_entries is not None
    ):
        parser.error(
            "--url runs the session server-side; drop the local store flags "
            "(--load/--save/--no-store/--max-entries)"
        )
    if args.no_store and args.save:
        parser.error("--save needs a store; drop --no-store")
    if args.no_store and args.check:
        parser.error("--check needs a store; drop --no-store")
    if args.check and not args.load:
        parser.error("--check only makes sense with --load")
    if args.load and (
        args.no_store
        or args.bits != 64
        or args.seed is not None
        or args.max_entries is not None
    ):
        parser.error(
            "--load takes bits/seed/store shape from the snapshot; drop "
            "--bits/--seed/--no-store/--max-entries"
        )

    from repro.api import Session

    exprs = [_read_expr(path) for path in args.files]
    if args.stream and args.url:
        return _session_stream_remote(args, exprs)

    if args.load:
        session = Session.load(args.load, backend=args.backend)
    else:
        session = Session(
            backend=args.backend or "ours",
            bits=args.bits,
            seed=args.seed,
            use_store=not args.no_store,
            max_entries=args.max_entries,
            engine=args.engine,
        )

    if args.stream:
        return _session_stream_local(session, args, exprs)
    return _session_report(session, args, exprs)


def _session_report(session, args, exprs) -> int:
    import json

    from repro.api import HashRequest, InternRequest

    # CLI knobs lower into declarative requests -- the planner resolves
    # them against the session exactly like library callers' requests.
    hashes = session.execute(HashRequest(exprs, engine=args.engine))
    missing = 0
    known_flags: list[bool] = []
    if session.store is not None:
        # Presence is decided on the canonical (store) alpha-hash, not
        # the selected backend's hash -- the intern table is keyed by the
        # former, and the two differ for non-default backends.  All flags
        # are computed before any interning, so a later duplicate of a
        # missing class still reports it as missing.  For the store-backed
        # default backend the corpus hashes above already *are* canonical
        # -- reuse them instead of re-hashing the corpus.
        if session.backend.store_backed:
            canonical = hashes
        else:
            canonical = [session.store.hash_expr(expr) for expr in exprs]
        known_flags = [
            session.store.lookup_hash(value) is not None for value in canonical
        ]
        # One bulk intern (after the flags above), not one walk per
        # file: it reuses the compile the hash pass above cached (large
        # corpora take the store's arena bulk-intern path).
        node_ids = session.execute(InternRequest(exprs, engine=args.engine))
    for index, (path, expr, value) in enumerate(
        zip(args.files, exprs, hashes)
    ):
        record = {
            "file": path,
            "hash": f"0x{value:x}",
            "nodes": expr.size,
            "backend": session.backend.name,
        }
        if session.store is not None:
            known = known_flags[index]
            record["known"] = known
            if not known:
                missing += 1
            record["node_id"] = node_ids[index]
        print(json.dumps(record, sort_keys=True))

    if args.stats:
        print(json.dumps(session.stats(), sort_keys=True))
    if args.save:
        session.save(args.save)
        print(f"# saved session snapshot to {args.save}", file=sys.stderr)
    if args.check:
        if missing:
            print(
                f"CHECK FAILED: {missing} expression(s) not present in the "
                "loaded snapshot",
                file=sys.stderr,
            )
            return 1
        print(
            f"# check ok: all {len(exprs)} expression(s) already known",
            file=sys.stderr,
        )
    return 0


def _iter_trace(path: str):
    """Yield ``(line_no, record)`` per non-blank, non-comment trace line."""
    import json

    handle = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"trace line {line_no}: bad JSON: {exc}")
            if not isinstance(record, dict):
                raise SystemExit(f"trace line {line_no}: not a JSON object")
            yield line_no, record
    finally:
        if path != "-":
            handle.close()


def _trace_edit(record, line_no: int, supply):
    """Lower one trace record to ``(item, path, replacement)``.

    The replacement is parsed from surface syntax and alpha-renamed
    against the shared supply, so its binders cannot collide with the
    corpus trees' (the uniqueness contract of incremental replace).
    """
    from repro.lang.names import uniquify_binders
    from repro.lang.parser import ParseError, parse

    try:
        item = int(record["item"])
        path = tuple(int(step) for step in record["path"])
        source = record["expr"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f'trace line {line_no}: need {{"item", "path", "expr"}}: {exc}'
        ) from None
    try:
        replacement = uniquify_binders(parse(source), supply)
    except ParseError as exc:
        raise SystemExit(f"trace line {line_no}: bad expr: {exc}") from None
    return item, path, replacement


def _trace_supply(exprs):
    from repro.lang.names import NameSupply, all_names

    reserved: set[str] = set()
    for expr in exprs:
        reserved |= all_names(expr)
    return NameSupply(reserved=reserved)


def _session_stream_local(session, args, exprs) -> int:
    import json

    supply = _trace_supply(exprs)
    with session.open_stream(exprs) as stream:
        for line_no, record in _iter_trace(args.stream):
            item, path, replacement = _trace_edit(record, line_no, supply)
            report = stream.edit(item, path, replacement)
            body = report.as_dict()
            body["root_hash"] = f"0x{report.root_hash:x}"
            body["edit_hash"] = f"0x{report.edit_hash:x}"
            body["path"] = list(report.path)
            print(json.dumps(body, sort_keys=True))
        summary = stream.report()
    summary["root_hashes"] = [f"0x{h:x}" for h in summary["root_hashes"]]
    if args.stats:
        summary["session_stats"] = session.stats()
    print(json.dumps(summary, sort_keys=True))
    if args.save:
        session.save(args.save)
        print(f"# saved session snapshot to {args.save}", file=sys.stderr)
    return 0


def _session_stream_remote(args, exprs) -> int:
    import json

    from repro.api import RemoteSession
    from repro.service.client import ServiceError

    supply = _trace_supply(exprs)
    remote = RemoteSession(args.url)
    try:
        with remote.open_stream(exprs, ttl=args.ttl) as stream:
            for line_no, record in _iter_trace(args.stream):
                item, path, replacement = _trace_edit(record, line_no, supply)
                body = stream.edit(item, path, replacement)
                body["root_hash"] = f"0x{body['root_hash']:x}"
                body["edit_hash"] = f"0x{body['edit_hash']:x}"
                print(json.dumps(body, sort_keys=True))
            summary = stream.report()
        summary["root_hashes"] = [
            f"0x{h:x}" for h in summary["root_hashes"]
        ]
        print(json.dumps(summary, sort_keys=True))
        return 0
    except ServiceError as exc:
        status = f" (HTTP {exc.status})" if exc.status else ""
        print(f"repro session: {exc}{status}", file=sys.stderr)
        return 1
    finally:
        remote.close()


def _run_edit(rest: Sequence[str]) -> int:
    """``repro edit``: one subtree replacement, incrementally re-hashed.

    The smallest streaming session: open over one file, apply one edit,
    report old/new root hash and the nodes-rehashed receipt.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro edit",
        description="Replace the subtree at --path with --with's "
        "expression and re-hash only the dirty spine; reports old/new "
        "root hash and nodes rehashed.",
    )
    parser.add_argument("file", help="expression file, or - for stdin")
    parser.add_argument(
        "--path",
        required=True,
        help="child indices from the root, dot- or comma-separated "
        "(e.g. 0.1.0); an empty string addresses the root",
    )
    parser.add_argument(
        "--with",
        dest="replacement",
        required=True,
        metavar="FILE",
        help="replacement expression file, or - for stdin",
    )
    parser.add_argument(
        "--backend", default=None, help="unified-registry backend name"
    )
    parser.add_argument(
        "--url",
        metavar="URL",
        help="apply the edit on a repro serve / cluster endpoint instead",
    )
    args = parser.parse_args(rest)
    if args.file == "-" and args.replacement == "-":
        parser.error("only one of FILE and --with may read stdin")

    expr = _read_expr(args.file)
    supply = _trace_supply([expr])
    from repro.lang.names import uniquify_binders

    replacement = uniquify_binders(_read_expr(args.replacement), supply)
    try:
        path = tuple(
            int(step)
            for step in args.path.replace(",", ".").split(".")
            if step != ""
        )
    except ValueError:
        parser.error(f"--path must be numeric indices, got {args.path!r}")

    if args.url:
        from repro.api import RemoteSession
        from repro.service.client import ServiceError

        remote = RemoteSession(args.url)
        try:
            with remote.open_stream([expr]) as stream:
                old_hash = stream.root_hashes[0]
                body = stream.edit(0, path, replacement)
        except ServiceError as exc:
            print(f"repro edit: {exc}", file=sys.stderr)
            return 1
        finally:
            remote.close()
    else:
        from repro.api import Session

        with Session(backend=args.backend or "ours") as session:
            with session.open_stream([expr]) as stream:
                old_hash = stream.root_hashes[0]
                body = stream.edit(0, path, replacement).as_dict()

    body["file"] = args.file
    body["path"] = list(path)
    body["old_root_hash"] = f"0x{old_hash:x}"
    body["root_hash"] = f"0x{body['root_hash']:x}"
    body["edit_hash"] = f"0x{body['edit_hash']:x}"
    print(json.dumps(body, sort_keys=True))
    return 0


def _run_store(rest: Sequence[str]) -> int:
    """``repro store``: intern a corpus of expression files and report
    how much the hash-consed store deduplicated and cached."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Intern expression files into a hash-consed store "
        "modulo alpha-equivalence and report cache statistics.",
    )
    parser.add_argument(
        "files", nargs="+", help="expression files (surface syntax); - for stdin"
    )
    parser.add_argument("--bits", type=int, default=64)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="LRU-bound the canonical table (default: eviction-free)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable stats"
    )
    args = parser.parse_args(rest)

    from repro.core.combiners import DEFAULT_SEED, HashCombiners
    from repro.store import ExprStore

    seed = DEFAULT_SEED if args.seed is None else args.seed
    store = ExprStore(
        HashCombiners(bits=args.bits, seed=seed), max_entries=args.max_entries
    )
    total_nodes = 0
    root_ids = []
    for path in args.files:
        expr = _read_expr(path)
        total_nodes += expr.size
        root_ids.append(store.intern(expr))

    report = {
        "files": len(args.files),
        "total_nodes": total_nodes,
        "unique_roots": len(set(root_ids)),
        "entries": len(store),
        "dedup_ratio": round(total_nodes / len(store), 3) if len(store) else 1.0,
        **store.stats.as_dict(),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"{report['files']} file(s), {total_nodes} AST nodes -> "
        f"{report['entries']} canonical entries "
        f"(x{report['dedup_ratio']} dedup, "
        f"{report['unique_roots']} distinct root(s))"
    )
    print(
        f"intern hits {store.stats.hits} / misses {store.stats.misses} "
        f"(hit-rate {store.stats.intern_hit_rate:.1%}); "
        f"memo served {store.stats.memo_skipped_nodes} of "
        f"{store.stats.memo_skipped_nodes + store.stats.hashed_nodes} node visits "
        f"(hit-rate {store.stats.hit_rate:.1%}); "
        f"{store.stats.evictions} eviction(s)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
