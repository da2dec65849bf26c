"""Driving and checking the system under test: the cluster child, the
closed-loop load generator, the post-workload integrity checks, and the
timed run that strings them together (``--trace 0``).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    # The benchmark builds nothing: it needs the program's source beside it.
    sys.exit(f"{REPO / 'src' / 'repro'}: the program under test is not here")
sys.path.insert(0, str(REPO / "src"))

from repro.server import RetryingClient  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.durability import (  # noqa: E402
    WAL_FILE,
    WAL_MAGIC,
    fsck_data_dir,
    scan_wal,
)

import cluster as cluster_module  # noqa: E402
from measure import Metric, Sample, window_metrics  # noqa: E402
from oracle import Oracle, logical_rows  # noqa: E402
from pacer import pace_ms, slowdown  # noqa: E402
from workloads import DATA_SEED, Op, Workload, schedule_digest  # noqa: E402

#: Scratch space (data dirs, traces); inside the checkout, git-ignored.
WORK_DIR = HERE / "_work"
#: Clusters built per run; ``setup_s`` is the median of their set-up times
#: and the last one built serves the workload.
SETUPS = 3
#: Discarded lead-in before the timed window (caches fill, pools spin up).
WARMUP_S = 2.0
#: Load between two pace samples.  Short enough that the machine's pace
#: rarely changes inside a slice, long enough that the samples (80 ms
#: each) take under a tenth of the window.
SLICE_S = 1.0
CHILD_TIMEOUT_S = 150.0

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in BENCHMARK["per_layer"]}


class CheckFailed(Exception):
    """An integrity check of the benchmark did not hold."""


# ---------------------------------------------------------------------------
# The cluster child
# ---------------------------------------------------------------------------


class ChildCluster:
    """The system under test in its own process (its own GIL)."""

    def __init__(self, workload: Workload) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
        pace = pace_ms()
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [
                sys.executable, str(HERE / "cluster.py"),
                "--root", self.root,
                "--patients", str(workload.patients),
                "--data-seed", str(DATA_SEED),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            # One hash seed for every run: dict and set layouts, and with
            # them the program's speed, repeat from process to process.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        self.client: "RetryingClient | None" = None
        try:
            ready = self._read()
            self.primary_dir: str = ready["primary_dir"]
            self.replica_dir: str = ready["replica_dir"]
            self.timings: "dict[str, float]" = ready["timings"]
            self.client = RetryingClient(
                "127.0.0.1", ready["port"],
                user=workload.user, purpose=workload.purpose,
            )
        except BaseException:
            self.stop()
            raise
        #: Spawn → replica converged → client connected, on the wall clock
        #: and on the calibrated one.
        self.raw_setup_s = time.perf_counter() - started
        self.setup_s = self.raw_setup_s / slowdown(pace, pace_ms())

    def _read(self) -> "dict[str, Any]":
        line = self._process.stdout.readline()
        if not line:
            raise CheckFailed(
                f"cluster child exited with code {self._process.wait()}"
            )
        return json.loads(line)

    def command(self, name: str) -> "dict[str, Any]":
        self._process.stdin.write(json.dumps({"cmd": name}) + "\n")
        self._process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Close the clients, stop the child and wait until it is gone."""
        if self.client is not None:
            self.client.close()
        process = self._process
        if process.poll() is None:
            try:
                process.stdin.write('{"cmd": "stop"}\n')
                process.stdin.close()
                process.wait(timeout=CHILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                process.kill()
                process.wait()
        process.stdout.close()

    def discard(self) -> None:
        self.stop()
        shutil.rmtree(self.root, ignore_errors=True)


def set_up(workload: Workload, setups: int) -> "list[ChildCluster]":
    """Build the cluster *setups* times; only the last is left running."""
    built: "list[ChildCluster]" = []
    for _ in range(setups):
        if built:
            built[-1].discard()
        built.append(ChildCluster(workload))
    return built


# ---------------------------------------------------------------------------
# The closed-loop load generator
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Completed:
    op: Op
    seconds: float
    reply: "dict[str, Any] | None"
    error: "str | None" = None


@dataclasses.dataclass
class Slice:
    """About a second of load between two pace samples."""

    #: Wall clock from the first send to the last reply.
    seconds: float
    #: The machine's pace over the slice ÷ nominal (``pacer.slowdown``).
    slowdown: float
    completed: "list[Completed]"
    #: False for the lead-in: run and checked, but not measured.
    measured: bool = True


def send(client: RetryingClient, op: Op) -> "dict[str, Any]":
    if op.kind == "ask":
        return client.ask(op.sql, op.fraction)
    return client.sql(op.sql)


def drive(
    workload: Workload, seed: int, client: RetryingClient,
    lead_in_s: float, seconds: float, slice_s: float = SLICE_S,
) -> "list[Slice]":
    """Run the seeded stream for *seconds*, in slices.

    One caller that waits for each reply before it sends the next op: a
    closed loop of one, from this thread.  The window is cut into slices
    of load with a pace sample between them (and the load generator
    silent meanwhile), so that every slice is timed on the calibrated
    clock; a slice, and with it the window, ends at an iteration boundary.
    The lead-in is run and discarded.
    """
    clock = time.perf_counter
    stream = workload.stream(seed)

    def load(closes: float) -> "tuple[float, list[Completed]]":
        log: "list[Completed]" = []
        began = clock()
        for op in stream:
            started = clock()
            try:
                reply, error = send(client, op), None
            except Exception as failure:  # counted, reported; the run goes on
                reply, error = None, f"{type(failure).__name__}: {failure}"
            ended = clock()
            log.append(Completed(op, ended - started, reply, error))
            if op.closes and ended >= closes:
                return ended - began, log
        raise AssertionError("op streams are endless")

    # The log only ever holds acyclic JSON; no collector pause may land
    # in a latency.
    gc.disable()
    try:
        spent, log = load(clock() + lead_in_s)
        slices = [Slice(spent, 1.0, log, measured=False)]
        pace = pace_ms()
        closes = clock() + seconds
        while clock() < closes:
            spent, log = load(min(clock() + slice_s, closes))
            before, pace = pace, pace_ms()
            slices.append(Slice(spent, slowdown(before, pace), log))
        return slices
    finally:
        gc.enable()


def verify_replies(
    oracle: Oracle, slices: "list[Slice]"
) -> "tuple[list[Sample], list[str]]":
    """Check every completed op against the oracle, in stream order."""
    samples: "list[Sample]" = []
    problems: "list[str]" = []
    for piece in slices:
        for done in piece.completed:
            problem = done.error or oracle.check(done.op, done.reply)
            if problem is not None:
                problems.append(f"{done.op.label}: {problem}")
            raw_ms = done.seconds * 1000.0
            samples.append(Sample(
                done.op.kind, done.op.label, raw_ms / piece.slowdown, raw_ms,
                problem is None, piece.measured,
            ))
    return samples, problems


def commits_acked(slices: "list[Slice]") -> int:
    return sum(
        1
        for piece in slices
        for done in piece.completed
        if done.reply is not None
        and (done.op.kind == "dml" or "improved" in done.reply)
    )


# ---------------------------------------------------------------------------
# Post-workload integrity
# ---------------------------------------------------------------------------


def integrity_problems(
    workload: Workload, verdict: "dict[str, Any]", acked: int
) -> "list[str]":
    """What the live cluster reported after the last op."""
    problems = []
    if not verdict["caught_up"]:
        problems.append(
            f"replica at {verdict['replica_position']} never reached the "
            f"last acknowledged seq {verdict['last_seq']}"
        )
    if not verdict["fingerprints_equal"]:
        problems.append("replica fingerprints differ from the primary's")
    if verdict["sync_timeouts"]:
        problems.append(f"{verdict['sync_timeouts']:.0f} semi-sync timeout(s)")
    if verdict["generations"] > 2:
        problems.append(
            f"{verdict['generations']} MVCC generations retained (leaked pin)"
        )
    commits = verdict["last_seq"] - cluster_module.BASE_SEQ
    if commits != acked:
        problems.append(
            f"{commits} commit(s) in the WAL but {acked} acknowledged"
        )
    if not workload.writes and commits:
        problems.append(f"read-only workload committed {commits} time(s)")
    return problems


def recovery_problems(child: ChildCluster, oracle: Oracle) -> "list[str]":
    """With the cluster stopped: fsck both directories, then recover the
    primary afresh and compare it with the acknowledged state."""
    problems = []
    for data_dir in (child.primary_dir, child.replica_dir):
        report = fsck_data_dir(data_dir)
        if not report.clean:
            problems.append(report.format())
    recovered = Database.open(child.primary_dir, sync=False)
    try:
        if logical_rows(recovered) != logical_rows(oracle.db):
            problems.append(
                "recovered primary differs from the acknowledged state"
            )
    finally:
        recovered.close()
    return problems


def wal_frames(child: ChildCluster) -> "tuple[int, int]":
    """``(frames, bytes)`` of the stopped primary's WAL."""
    path = os.path.join(child.primary_dir, WAL_FILE)
    if not os.path.exists(path):
        return 0, 0
    scan = scan_wal(path)
    return len(scan.payloads), scan.good_length - len(WAL_MAGIC)


# ---------------------------------------------------------------------------
# One timed run (--trace 0)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    workload: str
    seed: int
    attempted: int
    failed: int
    problems: "list[str]"
    metrics: "dict[str, Metric]"
    informational: "dict[str, Metric]"
    digest: str
    #: Timed run only: ``[load seconds, slowdown, ops]`` per slice.
    slices: "list[list[float]]" = dataclasses.field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def contract_line(self, names: "dict[str, Any]") -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name].value,
                       "unit": self.metrics[name].unit}
                for name in names
            },
        })


def pin_to_one_cpu() -> None:
    """Confine this process, and the children it will spawn, to one CPU.

    A closed loop of one is strictly sequential — client, server and
    replica take turns — so a second CPU adds no work done, only
    cross-CPU wake-ups and migrations whose cost on a virtual machine
    varies with the host; and the pace samples are only worth something
    on the CPU the server runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def timed_run(
    workload: Workload, seed: int, seconds: float,
    setups: int = SETUPS, warmup_s: float = WARMUP_S,
) -> RunResult:
    pin_to_one_cpu()
    built = set_up(workload, setups)
    child = built[-1]
    try:
        slices = drive(workload, seed, child.client, warmup_s, seconds)
        verdict = child.command("verify")
        reconnects = child.client.reconnects
    finally:
        child.stop()
    try:
        oracle = Oracle(workload)
        samples, problems = verify_replies(oracle, slices)
        failed = len(problems)
        problems += integrity_problems(workload, verdict, commits_acked(slices))
        if workload.writes:
            problems += recovery_problems(child, oracle)
        frames, wal_bytes = wal_frames(child)
    finally:
        shutil.rmtree(child.root, ignore_errors=True)

    measured = slices[1:]
    raw_seconds = sum(piece.seconds for piece in measured)
    calibrated_seconds = sum(piece.seconds / piece.slowdown for piece in measured)
    metrics, info = window_metrics(samples, calibrated_seconds, raw_seconds)
    attempted = len(samples)
    metrics["setup_s"] = Metric(
        statistics.median(c.setup_s for c in built), "s", len(built)
    )
    metrics["peak_rss_mb"] = Metric(verdict["rss_mb"], "MB", 1)
    metrics["failed_share"] = Metric(failed / max(1, attempted), "ratio", attempted)
    if frames:
        metrics["wal_bytes_per_commit"] = Metric(wal_bytes / frames, "B", frames)
    info["raw.setup_s"] = Metric(
        statistics.median(c.raw_setup_s for c in built), "s", len(built)
    )
    for stage, value in child.timings.items():
        info[f"raw.setup.{stage}"] = Metric(value, "s", 1)
    paces = [piece.slowdown for piece in measured]
    for name, value in (("p50", statistics.median(paces)),
                        ("min", min(paces)), ("max", max(paces))):
        info[f"pace.slowdown_{name}"] = Metric(value, "ratio", len(paces))
    info["window.load_s"] = Metric(raw_seconds, "s", len(measured))
    info["client.reconnects"] = Metric(reconnects, "count", attempted)
    return RunResult(
        workload.name, seed, attempted, failed, problems, metrics, info,
        schedule_digest(workload, seed),
        [[p.seconds, p.slowdown, len(p.completed)] for p in measured],
    )
