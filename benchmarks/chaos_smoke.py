"""Chaos smoke gate: seeded faults + SIGKILL against a replicated cluster.

CI entry point for the fault-tolerance tier::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --fault-seed 4242

Real processes: two ``repro serve`` shard primaries (shard 0 journaled
and replicated by a ``--follow`` node), one ``repro cluster serve``
coordinator fronting them, and a seeded
:class:`repro.testing.FaultyProxy` between the client and the
coordinator injecting connection refusals, latency and mid-body cuts.
Mid-workload, the schedule SIGKILLs shard 0's primary.  Hard gates:

1. **zero client-visible failures** -- every batch interns despite the
   network faults and the kill (reads fail over to the in-sync
   replica, writes resume after promotion, client retries absorb the
   bounded 503 window);
2. **bit-identity** -- every hash returned equals the serial
   ``alpha_hash_all`` oracle;
3. **conservation** -- folded cluster stats equal per-shard sums, and
   the merged snapshot's class set equals a flat local session's;
4. **journal recovery** -- the killed primary restarted with
   ``--journal`` recovers to the exact pre-kill store (content
   checksum captured at the sync barrier), and an in-driver replay
   measures replay throughput;
5. survivors exit 0 on SIGTERM.

Every shard intern plans ``arena`` and leaves the summary memo cold,
so the SIGKILLed node replays class-column frames whose summaries and
hashes its own arena pass recomputes.  The record keeps the smallest
share of a batch any shard got (its items' nodes, read off the reply's
``owners``); CI also runs larger batches::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --fault-seed 4242 \
        --items 690 --batch 230 --json-out chaos-arena.json

The fault schedule is pure data expanded from ``--fault-seed``; a
failing run's log names the seed, so it replays locally byte for byte.
Writes the chaos cell to ``BENCH_PR8.json`` (failover latency, replay
throughput, the killed primary's journal frame bytes, zero-loss
booleans).  Exit 0 = all gates hold.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

#: Shard primaries in the spawned cluster (shard 0 is journaled).
SHARD_COUNT = 2


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=dict(os.environ)
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


def wait_until(predicate, timeout: float, what: str, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise SystemExit(f"timed out waiting for {what}")


def stop_cleanly(name: str, proc, failures: int) -> int:
    if proc.poll() is not None:
        print(
            f"FAIL: {name} died early with exit {proc.returncode}",
            file=sys.stderr,
        )
        return failures + 1
    proc.send_signal(signal.SIGTERM)
    try:
        returncode = proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        print(f"FAIL: {name} still alive 15s after SIGTERM", file=sys.stderr)
        return failures + 1
    if returncode != 0:
        print(
            f"FAIL: {name} exited {returncode} on SIGTERM (want 0)",
            file=sys.stderr,
        )
        return failures + 1
    print(f"chaos_smoke: {name} SIGTERM clean shutdown ok (exit 0)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=480)
    parser.add_argument("--batch", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fault-seed", type=int, default=4242,
        help="expands into the deterministic fault schedule",
    )
    parser.add_argument(
        "--kill-after-batch", type=int, default=None,
        help="SIGKILL shard 0's primary after this batch "
        "(default: the middle batch)",
    )
    parser.add_argument("--json-out", default="BENCH_PR8.json")
    parser.add_argument("--health-attempts", type=int, default=50)
    parser.add_argument("--health-delay", type=float, default=0.2)
    args = parser.parse_args(argv)

    import tempfile

    journal_dir = tempfile.mkdtemp(prefix="repro-chaos-journal-")
    ports = {name: free_port() for name in ("p0", "p1", "r0", "coord")}
    urls = {name: f"http://127.0.0.1:{port}" for name, port in ports.items()}

    p0 = spawn([
        "serve", "--host", "127.0.0.1", "--port", str(ports["p0"]),
        "--shard-id", "0", "--shard-count", str(SHARD_COUNT),
        "--journal", journal_dir,
    ])
    p1 = spawn([
        "serve", "--host", "127.0.0.1", "--port", str(ports["p1"]),
        "--shard-id", "1", "--shard-count", str(SHARD_COUNT),
    ])
    r0 = spawn([
        "serve", "--host", "127.0.0.1", "--port", str(ports["r0"]),
        "--shard-id", "0", "--shard-count", str(SHARD_COUNT),
        "--follow", urls["p0"], "--poll-interval", "0.05",
    ])
    coordinator = spawn([
        "cluster", "serve", "--host", "127.0.0.1",
        "--port", str(ports["coord"]),
        "--shard", urls["p0"], "--shard", urls["p1"],
        "--replica", f"0={urls['r0']}",
        "--retries", "1", "--backoff", "0.05",
        "--down-ttl", "0.5", "--probe-interval", "0.1",
        "--budget", "60",
    ])
    procs = [("shard-0", p0), ("shard-1", p1), ("replica-0", r0),
             ("coordinator", coordinator)]
    try:
        return run_gates(args, urls, journal_dir, dict(procs))
    except BaseException:
        for _name, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        raise
    finally:
        import shutil

        shutil.rmtree(journal_dir, ignore_errors=True)


def run_gates(args, urls, journal_dir, procs) -> int:
    from repro.api import Session
    from repro.core.hashed import alpha_hash_all
    from repro.lang.sexpr import to_wire
    from repro.service import ServiceClient
    from repro.store import Journal, content_checksum, snapshot_from_bytes
    from repro.testing import FaultSchedule, FaultyProxy, ProcessReaper

    failures = 0
    batches = (args.items + args.batch - 1) // args.batch
    kill_batch = (
        args.kill_after_batch
        if args.kill_after_batch is not None
        else batches // 2
    )
    schedule = FaultSchedule.from_seed(
        args.fault_seed,
        connections=batches * 3,
        kill_target="shard-0",
        kill_after_batch=kill_batch,
    )
    print(
        f"chaos_smoke: seed {args.fault_seed} -> {len(schedule.events)} "
        f"fault(s), kill shard-0 after batch {kill_batch}/{batches}"
    )

    for name in ("p0", "p1", "r0"):
        wait_for_health(
            ServiceClient(urls[name], timeout=30.0),
            args.health_attempts, args.health_delay,
        )
    coordinator_client = ServiceClient(urls["coord"], timeout=300.0, retries=0)
    wait_for_health(
        coordinator_client, args.health_attempts, args.health_delay
    )
    print("chaos_smoke: all processes healthy")

    reaper = ProcessReaper(schedule)
    reaper.register("shard-0", procs["shard-0"])
    proxy = FaultyProxy("127.0.0.1", int(urls["coord"].rsplit(":", 1)[1]),
                        schedule).start()
    # The workload client speaks through the fault proxy: bounded
    # retries under a total deadline are what must absorb every fault.
    client = ServiceClient(
        proxy.url, timeout=300.0, retries=10, backoff=0.1, deadline=120.0
    )

    corpus = build_corpus(args.items, seed=args.seed)
    oracle = [alpha_hash_all(e).root_hash for e in corpus]
    docs = [to_wire(e) for e in corpus]
    p0_client = ServiceClient(urls["p0"], timeout=30.0)
    r0_client = ServiceClient(urls["r0"], timeout=30.0)

    got_hashes = []
    min_share = None
    barrier_checksum = None
    kill_at = None
    failover_latency_s = None
    for batch_index in range(batches):
        lo, hi = batch_index * args.batch, (batch_index + 1) * args.batch
        reply = client.intern_wire(docs[lo:hi])
        got_hashes.extend(reply["hashes"])
        shares = [0] * SHARD_COUNT
        for owner, expr in zip(reply["owners"], corpus[lo:hi]):
            shares[owner] += expr.size
        share = min(shares)
        min_share = share if min_share is None else min(min_share, share)
        if kill_at is not None and failover_latency_s is None:
            failover_latency_s = time.monotonic() - kill_at
        if schedule.kill_after_batch(batch_index) is not None:
            # Sync barrier: the driver is serial, so once the replica's
            # version catches the primary's there are no acked writes
            # the replica lacks -- the kill is then loss-free by
            # construction, and the journal must prove it on restart.
            primary_version = p0_client.health()["version"]
            wait_until(
                lambda: r0_client.health()["version"] >= primary_version,
                timeout=30, what="replica to reach the primary's version",
            )
            barrier_checksum = p0_client.health(checksum=True)[
                "content_checksum"
            ]
            replica_checksum = r0_client.health(checksum=True)[
                "content_checksum"
            ]
            if replica_checksum != barrier_checksum:
                print("FAIL: replica checksum != primary at barrier",
                      file=sys.stderr)
                failures += 1
            event = reaper.after_batch(batch_index)
            kill_at = time.monotonic()
            print(
                f"chaos_smoke: {event.arg} SIGKILLed after batch "
                f"{batch_index} (store checksum captured)"
            )

    # Gate 1: zero client-visible failures.
    fired = [f.kind for f in proxy.faults_fired]
    if client.counters["failures"] != 0:
        print(
            f"FAIL: client saw {client.counters['failures']} failed "
            f"request(s): {client.counters}",
            file=sys.stderr,
        )
        failures += 1
    print(
        f"chaos_smoke: zero-loss ok -- {batches} batches, faults fired "
        f"{fired or 'none'}, kill absorbed, counters {client.counters}"
    )
    if failover_latency_s is not None:
        print(
            f"chaos_smoke: first post-kill batch landed in "
            f"{failover_latency_s:.2f}s (down-ttl 0.5s + promotion)"
        )

    # Gate 2: bit-identity against the serial oracle.
    if got_hashes != oracle:
        bad = sum(1 for a, b in zip(got_hashes, oracle) if a != b)
        print(f"FAIL: {bad}/{len(oracle)} hashes diverge from the oracle",
              file=sys.stderr)
        failures += 1
    else:
        print("chaos_smoke: bit-identity vs serial oracle ok")

    # Gate 3: conservation across the fold and the snapshot union.
    stats = coordinator_client.stats()
    if stats["entries"] != sum(s["entries"] for s in stats["shards"]):
        print("FAIL: folded entries != per-shard sum", file=sys.stderr)
        failures += 1
    merged, _header = snapshot_from_bytes(coordinator_client.fetch_snapshot())
    with Session() as flat:
        flat.intern_many(corpus)
        flat_hashes = {e.hash for e in flat.store.entries()}
    if {e.hash for e in merged.entries()} != flat_hashes:
        print("FAIL: merged snapshot union != flat store classes",
              file=sys.stderr)
        failures += 1
    else:
        print(
            f"chaos_smoke: conservation ok ({stats['entries']} entries, "
            f"union == flat {len(flat_hashes)} classes, shard 0 served "
            f"by its promoted replica)"
        )
    domains = coordinator_client.metrics()["failure_domains"]
    if domains["promotions"] < 1:
        print(f"FAIL: expected a promotion, telemetry: {domains}",
              file=sys.stderr)
        failures += 1

    # Gate 4: journal recovery of the killed node, exact to the barrier.
    # In-driver replay mirrors the serve boot path (default session
    # shape) and gives exact replay-throughput numbers.
    replay_session = Session()
    journal = Journal(journal_dir)
    journal_bytes = sum(os.path.getsize(path) for path in journal.segments())
    t0 = time.perf_counter()
    replay_report = journal.replay(replay_session.store)
    replay_s = time.perf_counter() - t0
    replay_checksum = content_checksum(replay_session.store)
    replay_session.close()
    if replay_checksum != barrier_checksum:
        print(
            f"FAIL: journal replay checksum {replay_checksum[:24]}... != "
            f"pre-kill {str(barrier_checksum)[:24]}...",
            file=sys.stderr,
        )
        failures += 1
    restarted = spawn([
        "serve", "--host", "127.0.0.1",
        "--port", str(int(urls["p0"].rsplit(":", 1)[1])),
        "--shard-id", "0", "--shard-count", str(SHARD_COUNT),
        "--journal", journal_dir,
    ])
    procs["shard-0-restarted"] = restarted
    recovered_health = wait_for_health(
        ServiceClient(urls["p0"], timeout=30.0, retries=0),
        args.health_attempts, args.health_delay,
    )
    recovered_checksum = ServiceClient(urls["p0"], timeout=60.0).health(
        checksum=True
    )["content_checksum"]
    if recovered_checksum != barrier_checksum:
        print("FAIL: restarted node's store != pre-kill store",
              file=sys.stderr)
        failures += 1
    else:
        print(
            f"chaos_smoke: journal recovery ok -- replay "
            f"{replay_report['applied']} entries in {replay_s:.3f}s "
            f"({replay_report['applied'] / max(replay_s, 1e-9):,.0f} "
            f"entries/s), restarted node checksum matches pre-kill "
            f"(version {recovered_health['version']})"
        )

    proxy.close()
    failures = stop_cleanly("coordinator", procs["coordinator"], failures)
    failures = stop_cleanly("shard-1", procs["shard-1"], failures)
    failures = stop_cleanly("replica-0", procs["replica-0"], failures)
    failures = stop_cleanly("shard-0 (restarted)", restarted, failures)

    record = {
        "pr": 8,
        "bench": "chaos_smoke",
        "fault_seed": args.fault_seed,
        "items": args.items,
        "batches": batches,
        "min_shard_share_nodes": min_share,
        "kill_after_batch": kill_batch,
        "faults_fired": fired,
        "client_counters": client.counters,
        "failover_latency_s": (
            round(failover_latency_s, 4)
            if failover_latency_s is not None
            else None
        ),
        "replay_entries": replay_report["applied"],
        "replay_s": round(replay_s, 4),
        "replay_entries_per_s": round(
            replay_report["applied"] / max(replay_s, 1e-9), 1
        ),
        "journal_bytes": journal_bytes,
        "promotions": domains["promotions"],
        "breaker_opens": domains["breaker_opens"],
        "gates": {
            "zero_client_failures": client.counters["failures"] == 0,
            "bit_identical": got_hashes == oracle,
            "stats_conserved": stats["entries"]
            == sum(s["entries"] for s in stats["shards"]),
            "journal_recovery_exact": recovered_checksum == barrier_checksum,
        },
    }
    with open(args.json_out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"chaos_smoke: wrote {args.json_out}")

    if failures:
        print(f"chaos_smoke: {failures} gate(s) FAILED", file=sys.stderr)
        return 1
    print("chaos_smoke: all gates ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
