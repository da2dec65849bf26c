#!/usr/bin/env python3
"""Chaos smoke: the serving stack survives a seeded network-fault storm.

CI's ``chaos-smoke`` job runs three phases against the ISSUE-9 hardening
(``repro.server`` faults / retries / shedding / drain):

1. **Seeded fault matrix** — every (point, mode) cell of
   ``iter_network_fault_specs``: server-side cells arm the server's
   injector, client-side cells wrap the retrying client's socket.  Each
   cell issues one DML (the faulted request) and one ask through the
   :class:`~repro.server.RetryingClient` and asserts the three chaos
   invariants: the DML landed **exactly once** (idempotency dedup across
   retries), every delivered tuple's confidence clears the policy
   threshold (no fault path leaks a below-β row), and the server comes
   out **pin-clean** (``mvcc.generation_seqs()`` back to the current
   generation — no leaked snapshot pins).
2. **Overload** — a deterministic shed check (a full queue rejects
   class-0 asks with a structured ``OverloadError``) followed by a
   concurrent ask storm over a 2-worker pool: every accepted request
   completes, delivered rows stay policy-compliant, and the p99 of
   accepted asks is bounded.
3. **Drain** — with a slow request in flight, ``drain()`` finishes it,
   rejects new work with a retryable ``ServerDrainingError``, and exits
   with zero accepted in-flight requests dropped.

Exit code 0 only if every invariant holds.  ``--json`` writes a
harness-compatible results file (panel ``chaos``) for ``trajectory.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_common import SCHEMA_VERSION, environment_info, record, SERIES

from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.server import (
    NetworkFaultInjector,
    PCQEServer,
    RetryingClient,
    ServerClient,
    ServerReplyError,
    iter_network_fault_specs,
)
from repro.workload import venture_capital_database


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _retrying(server: PCQEServer, **kwargs) -> RetryingClient:
    kwargs.setdefault("user", "bob")
    kwargs.setdefault("purpose", "investment")
    kwargs.setdefault("sleep", lambda _s: None)
    return RetryingClient(server.host, server.port, **kwargs)


def _await_pin_clean(server: PCQEServer, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.mvcc.generation_seqs() == [server.mvcc.current_seq]:
            return True
        time.sleep(0.01)
    return server.mvcc.generation_seqs() == [server.mvcc.current_seq]


def _check_compliance(reply: dict, cell: str) -> None:
    if reply["released"] != len(reply["rows"]):
        raise SystemExit(f"FAIL[{cell}]: released count / rows mismatch")
    for confidence in reply["confidences"]:
        if confidence <= reply["threshold"]:
            raise SystemExit(
                f"FAIL[{cell}]: delivered confidence {confidence} <= "
                f"threshold {reply['threshold']} (policy violation)"
            )


def run_fault_matrix(seed: int) -> tuple[int, int]:
    """Every (point, mode) cell; returns (cells, server_side_cells)."""
    cells = server_side_cells = 0
    for spec in iter_network_fault_specs(seed=seed, occurrence=2):
        if spec.point == "client.recv":
            # recv counts two hits per frame (header + body): occurrence
            # 3 is the first reply after the hello, the ambiguous case.
            spec = dataclasses.replace(spec, occurrence=3)
        cell = f"{spec.point}/{spec.mode}"
        injector = NetworkFaultInjector(spec)
        server_side = spec.point.startswith("server.")
        scenario = venture_capital_database()
        server = PCQEServer(
            scenario.db,
            scenario.policies,
            port=0,
            faults=injector if server_side else None,
        ).start()
        try:
            company = f"C{cells}"
            with _retrying(
                server, faults=None if server_side else injector
            ) as client:
                # The DML is the faulted request: occurrence 2 (or 3 for
                # recv) lands on it, so exactly-once rides the retry.
                client.sql(
                    f"INSERT INTO Proposal VALUES ('{company}', 'PX', 1.0)"
                )
                reply = client.ask(scenario.QUERY, fraction=0.0)
                _check_compliance(reply, cell)
                client.refresh()
                count = client.sql(
                    f"SELECT * FROM Proposal WHERE Company = '{company}'"
                )["count"]
            if count != 1:
                raise SystemExit(
                    f"FAIL[{cell}]: DML landed {count} time(s), expected "
                    f"exactly once"
                )
            if not injector.tripped:
                raise SystemExit(f"FAIL[{cell}]: armed fault never fired")
            if not _await_pin_clean(server):
                raise SystemExit(
                    f"FAIL[{cell}]: leaked pins "
                    f"{server.mvcc.generation_seqs()} vs current "
                    f"{server.mvcc.current_seq}"
                )
        finally:
            server.stop()
        cells += 1
        server_side_cells += int(server_side)
    return cells, server_side_cells


def run_overload(threads: int, asks_per_thread: int) -> dict:
    scenario = venture_capital_database()
    server = PCQEServer(
        scenario.db, scenario.policies, port=0, workers=2
    ).start()
    try:
        # Deterministic shed check: a full class-0 queue rejects an ask
        # with the structured retryable OverloadError.
        with ServerClient(
            server.host, server.port, user="bob", purpose="investment"
        ) as probe:
            server._inflight = server.workers * 2
            try:
                probe.ask(scenario.QUERY, fraction=0.0)
                raise SystemExit("FAIL: full queue did not shed the ask")
            except ServerReplyError as error:
                if error.type != "OverloadError":
                    raise SystemExit(
                        f"FAIL: expected OverloadError, got {error.type}"
                    )
                if error.error.get("retryable") is not True:
                    raise SystemExit("FAIL: OverloadError not retryable")
            finally:
                server._inflight = 0
            # metrics stays admitted even at the same depth (class 2).
            server._inflight = server.workers * 2
            try:
                probe.metrics()
            finally:
                server._inflight = 0

        latencies: list[float] = []
        lock = threading.Lock()
        errors: list[BaseException] = []

        def drive() -> None:
            try:
                with _retrying(
                    server,
                    attempts=10,
                    sleep=time.sleep,
                    base_delay=0.01,
                    max_delay=0.1,
                ) as client:
                    samples = []
                    for _ in range(asks_per_thread):
                        started = time.perf_counter()
                        reply = client.ask(scenario.QUERY, fraction=0.0)
                        samples.append(time.perf_counter() - started)
                        _check_compliance(reply, "overload")
                    with lock:
                        latencies.extend(samples)
            except BaseException as error:  # pragma: no cover - reporting
                errors.append(error)

        drivers = [threading.Thread(target=drive) for _ in range(threads)]
        for thread in drivers:
            thread.start()
        for thread in drivers:
            thread.join()
        if errors:
            raise SystemExit(f"FAIL: overload storm raised: {errors[0]!r}")
        expected = threads * asks_per_thread
        if len(latencies) != expected:
            raise SystemExit(
                f"FAIL: {len(latencies)}/{expected} accepted asks completed"
            )
        p99_ms = 1e3 * _percentile(latencies, 0.99)
        if p99_ms > 10_000.0:
            raise SystemExit(
                f"FAIL: accepted-request p99 {p99_ms:.0f} ms is unbounded"
            )
        snapshot = get_metrics().snapshot()
        shed = snapshot.get("server.shed", 0)
        if shed < 1:
            raise SystemExit("FAIL: the overload phase never shed a request")
        if not _await_pin_clean(server):
            raise SystemExit("FAIL: overload storm leaked snapshot pins")
        return {
            "asks": len(latencies),
            "shed": shed,
            "retries": snapshot.get("server.retries", 0),
            "p50_ms": 1e3 * _percentile(latencies, 0.50),
            "p99_ms": p99_ms,
        }
    finally:
        server.stop()


def run_drain() -> dict:
    scenario = venture_capital_database()
    server = PCQEServer(scenario.db, scenario.policies, port=0).start()

    def slow_sql(session, request):
        time.sleep(0.3)
        return {"ok": True, "slow": True}

    server._ops["sql"] = server._ops["sql"]._replace(handler=slow_sql)
    inflight_reply: dict = {}
    report: dict = {}
    client_a = ServerClient(
        server.host, server.port, user="bob", purpose="investment"
    )
    client_b = ServerClient(
        server.host, server.port, user="alice", purpose="investment"
    )
    worker = threading.Thread(
        target=lambda: inflight_reply.update(
            client_a.request({"op": "sql", "sql": "x"})
        )
    )
    worker.start()
    time.sleep(0.1)
    drainer = threading.Thread(
        target=lambda: report.update(server.drain(timeout=5.0))
    )
    drainer.start()
    deadline = time.monotonic() + 2.0
    while not server._draining and time.monotonic() < deadline:
        time.sleep(0.005)
    rejected_retryably = False
    try:
        client_b.request({"op": "sql", "sql": "SELECT * FROM Proposal"})
    except ServerReplyError as error:
        rejected_retryably = (
            error.type == "ServerDrainingError"
            and error.error.get("retryable") is True
        )
    worker.join(timeout=10.0)
    drainer.join(timeout=10.0)
    client_a._closed = True  # the server is gone; skip the bye
    client_b._closed = True
    if inflight_reply.get("slow") is not True:
        raise SystemExit("FAIL: drain dropped an accepted in-flight request")
    if not rejected_retryably:
        raise SystemExit(
            "FAIL: a request during drain was not rejected retryably"
        )
    if not report.get("drained") or report.get("inflight") != 0:
        raise SystemExit(f"FAIL: drain abandoned work: {report}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the fault matrix injectors (default: 0)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=12,
        help="concurrent clients in the overload storm (default: 12)",
    )
    parser.add_argument(
        "--asks",
        type=int,
        default=4,
        help="asks per storm client (default: 4)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write trajectory-compatible results"
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    # Isolated registry so the report sees exactly this run's metrics.
    previous = get_metrics()
    set_metrics(MetricsRegistry())
    try:
        cells, server_cells = run_fault_matrix(args.seed)
        injected = get_metrics().snapshot().get("server.faults.injected", 0)
        if injected < server_cells:
            raise SystemExit(
                f"FAIL: only {injected} server-side injections counted for "
                f"{server_cells} cells"
            )
        print(
            f"fault matrix: {cells} cells survived (exactly-once DML, "
            f"policy-compliant asks, pin-clean), "
            f"{injected:.0f} server-side injections"
        )

        overload = run_overload(args.threads, args.asks)
        print(
            f"overload: {overload['asks']} accepted asks completed, "
            f"shed={overload['shed']:.0f} retries={overload['retries']:.0f} "
            f"p50={overload['p50_ms']:.1f}ms p99={overload['p99_ms']:.1f}ms"
        )

        drain = run_drain()
        print(
            f"drain: in-flight finished, new work rejected retryably, "
            f"waited {drain['waited_s'] * 1e3:.0f}ms"
        )

        record(
            "chaos (fault matrix + overload + drain)",
            matrix_cells=cells,
            faults_injected=injected,
            storm_asks=overload["asks"],
            shed=overload["shed"],
            retries=overload["retries"],
            p50_ms=overload["p50_ms"],
            p99_ms=overload["p99_ms"],
            drain_waited_ms=drain["waited_s"] * 1e3,
        )
        if args.json:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "environment": environment_info(),
                "panel_seconds": {"chaos": time.perf_counter() - started},
                "series": dict(SERIES),
                "metrics": get_metrics().snapshot(),
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")
    finally:
        set_metrics(previous)
    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
