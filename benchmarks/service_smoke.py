"""Service smoke gate: a live ``repro serve`` must be bit-identical.

Self-managed (the gate owns the server process, preferred in CI)::

    PYTHONPATH=src python benchmarks/service_smoke.py --spawn --items 1000

or against an already-started server::

    python -m repro serve --port 8655 &
    PYTHONPATH=src python benchmarks/service_smoke.py \
        --url http://127.0.0.1:8655 --items 1000

The gate:

1. waits for ``/v1/health`` (bounded retries);
2. generates a mixed corpus of ``--items`` expressions;
3. hashes it through the HTTP client and **hard-fails on any bit** of
   divergence from the local path (``alpha_hash_all`` and a local
   ``Session``);
4. sends the same corpus both ways the server reads a corpus -- the
   client's arena body (``hash_corpus``, ``intern_many``) and JSON wire
   documents (``hash_wire``, and ``intern_wire`` on a second spawned
   server) -- and hard-fails unless the hashes and the ids agree;
5. interns the corpus remotely, downloads the server snapshot, and
   checks the restored store serves the same hashes with the same entry
   count (stats conservation);
6. uploads a disjoint local store and checks the merge grew the server
   by exactly the new classes;
7. SIGTERMs every server it spawned and requires a clean exit 0 within
   a bounded wait -- no leaked listeners, ever.

Exit code 0 = all gates hold; 1 = divergence (with a diff summary).
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import socket
import subprocess
import sys
import time


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(port: int, extra_args=()) -> "subprocess.Popen":
    """Start ``repro serve`` as a child with this interpreter/env."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            *extra_args,
        ],
        env=dict(os.environ),
    )


def build_corpus(n_items: int, seed: int = 42):
    from repro.gen.random_exprs import random_expr

    rng = random.Random(seed)
    corpus = []
    for _ in range(n_items):
        if corpus and rng.random() < 0.25:
            corpus.append(rng.choice(corpus))
        else:
            corpus.append(random_expr(40, rng=rng, p_let=0.2, p_lit=0.2))
    return corpus


def wait_for_health(client, attempts: int, delay: float) -> dict:
    from repro.service import ServiceError

    last = None
    for _ in range(attempts):
        try:
            return client.health()
        except ServiceError as exc:
            last = exc
            time.sleep(delay)
    raise SystemExit(f"server never became healthy: {last}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8655")
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="start a repro serve child on a free port and SIGTERM it "
        "at the end, gating on a clean exit 0 (ignores --url)",
    )
    parser.add_argument("--items", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--health-attempts", type=int, default=50)
    parser.add_argument("--health-delay", type=float, default=0.2)
    args = parser.parse_args(argv)

    children = []
    if args.spawn:
        port = free_port()
        children.append(spawn_server(port))
        args.url = f"http://127.0.0.1:{port}"
        print(f"service_smoke: spawned repro serve pid={children[0].pid} on {args.url}")
    twin_port = free_port()
    children.append(spawn_server(twin_port))
    args.twin_url = f"http://127.0.0.1:{twin_port}"
    print(f"service_smoke: spawned JSON twin pid={children[-1].pid} on {args.twin_url}")

    try:
        return run_gates(args, children)
    except BaseException:
        # A gate blew up (not just failed): don't leak the children.
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)
        raise


def run_gates(args, children) -> int:
    from repro.api import Session
    from repro.core.hashed import alpha_hash_all
    from repro.lang.sexpr import to_wire
    from repro.service import ServiceClient
    from repro.store import snapshot_from_bytes

    client = ServiceClient(args.url, timeout=300.0)
    health = wait_for_health(client, args.health_attempts, args.health_delay)
    print(f"service_smoke: server healthy {health}")
    twin = ServiceClient(args.twin_url, timeout=300.0)
    wait_for_health(twin, args.health_attempts, args.health_delay)

    corpus = build_corpus(args.items, seed=args.seed)
    total_nodes = sum(e.size for e in corpus)
    print(f"service_smoke: corpus {len(corpus)} items, {total_nodes} nodes")

    t0 = time.perf_counter()
    remote = client.hash_corpus(corpus)
    remote_s = time.perf_counter() - t0
    reference = [alpha_hash_all(e).root_hash for e in corpus]
    with Session() as session:
        local = session.hash_corpus(corpus)

    failures = 0
    if remote != reference:
        bad = sum(1 for a, b in zip(remote, reference) if a != b)
        print(
            f"FAIL: remote hashes diverge from alpha_hash_all on "
            f"{bad}/{len(corpus)} items",
            file=sys.stderr,
        )
        failures += 1
    if remote != local:
        print("FAIL: remote hashes diverge from the local Session path",
              file=sys.stderr)
        failures += 1
    print(f"service_smoke: remote hash bit-identity ok ({remote_s:.2f}s)")

    # Arena body vs JSON documents: the same corpus sent both ways must
    # hash alike, and intern to the same ids on twin servers.
    docs = [to_wire(e) for e in corpus]
    failures_before = failures
    t0 = time.perf_counter()
    json_hashes = client.hash_wire(docs)["hashes"]
    json_s = time.perf_counter() - t0
    if json_hashes != remote:
        bad = sum(1 for a, b in zip(json_hashes, remote) if a != b)
        print(
            f"FAIL: JSON-body hashes diverge from arena-body hashes on "
            f"{bad}/{len(corpus)} items",
            file=sys.stderr,
        )
        failures += 1
    ids = client.intern_many(corpus)
    json_reply = twin.intern_wire(docs)
    if json_reply["ids"] != ids or json_reply["hashes"] != reference:
        bad = sum(1 for a, b in zip(json_reply["ids"], ids) if a != b)
        print(
            f"FAIL: JSON-body intern on the twin diverges from the arena "
            f"body's: {bad}/{len(corpus)} ids differ",
            file=sys.stderr,
        )
        failures += 1
    if failures == failures_before:
        print(
            f"service_smoke: arena body == JSON body ok (hash {remote_s:.2f}s "
            f"vs {json_s:.2f}s, {len(set(ids))} distinct ids)"
        )

    # Snapshot download: the warm server store must serve the corpus.
    entries_remote = client.stats()["entries"]
    store, header = snapshot_from_bytes(client.fetch_snapshot())
    if len(store) != entries_remote:
        print(
            f"FAIL: snapshot holds {len(store)} entries, server reports "
            f"{entries_remote}",
            file=sys.stderr,
        )
        failures += 1
    if store.hash_corpus(corpus) != reference:
        print("FAIL: downloaded snapshot diverges from the corpus hashes",
              file=sys.stderr)
        failures += 1
    print(
        f"service_smoke: snapshot download ok "
        f"({entries_remote} entries, format {header['format']})"
    )

    # Snapshot upload: merging a disjoint local store grows the server
    # by exactly the new classes (conservation).
    disjoint = build_corpus(50, seed=args.seed + 1)
    local_session = Session()
    local_session.intern_many(disjoint)
    reply = client.push_snapshot(local_session)
    entries_after = client.stats()["entries"]
    union = Session()
    union.intern_many(corpus)
    union.intern_many(disjoint)
    if entries_after != len(union.store):
        print(
            f"FAIL: merged server holds {entries_after} entries, local "
            f"union holds {len(union.store)}",
            file=sys.stderr,
        )
        failures += 1
    print(
        f"service_smoke: snapshot upload/merge ok "
        f"(+{reply['merged_classes']} classes -> {entries_after} entries)"
    )

    # Clean shutdown: SIGTERM must produce exit 0 within a bounded
    # wait -- a hung or non-zero exit means a leaked listener in CI.
    for child in children:
        child.send_signal(signal.SIGTERM)
        try:
            returncode = child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait(timeout=10)
            print("FAIL: server still alive 15s after SIGTERM",
                  file=sys.stderr)
            failures += 1
        else:
            if returncode != 0:
                print(
                    f"FAIL: server exited {returncode} on SIGTERM (want 0)",
                    file=sys.stderr,
                )
                failures += 1
            else:
                print("service_smoke: SIGTERM clean shutdown ok (exit 0)")

    if failures:
        print(f"service_smoke: {failures} gate(s) FAILED", file=sys.stderr)
        return 1
    print("service_smoke: all gates ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
