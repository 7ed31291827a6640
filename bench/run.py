"""The repo benchmark: ``python bench/run.py [--workload NAME] [--seed N] [--trace]``.

For each workload this spawns the shipped HTTP server in a child process,
drives it over loopback from client threads in this process, checks every
answer, kills the child and recovers its durable store in a second one.
``--trace 1`` reports the per-layer metrics instead (see ``bench/README.md``).
The last line of standard output is one JSON object per the contract in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Replace the script directory: bench/trace.py must not shadow the stdlib.
sys.path[0] = str(ROOT)

from bench.calib import calibrate_ms, is_noisy  # noqa: E402
from bench.client import Connection, Reader, SearchSample, do_write, get_json  # noqa: E402
from bench.stats import (  # noqa: E402
    median,
    overlap_at_k,
    percentile,
    regressed,
    relative_gap,
    slice_samples,
    summarize_slices,
)
from bench.workload import (  # noqa: E402
    FULL,
    SMOKE,
    SNAPSHOT_DATABASE,
    WORKLOADS,
    K,
    OpTiming,
    Plan,
    Sizes,
    Workload,
    WriteCycle,
    build_plan,
    expected_match,
    run_open_loop,
)

OUT = ROOT / "bench" / "out"
N_SLICES = 5
CHILD_TIMEOUT_S = 150.0
WARM_UP_S = 1.0  # on top of the probe set, which is asked first
#: oracle agreement below this means the index is not answering like itself
ORACLE_FLOOR = 0.9


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- child processes ------------------------------------------------------------


class Child:
    """One ``bench/child.py`` process; always reaped on exit from ``with``."""

    def __init__(self, spec: dict) -> None:
        # One BLAS thread: on two cores OpenBLAS's second worker spins on the
        # core the clients need, which made identical runs differ by 20%.
        environment = dict(
            os.environ,
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=environment,
            text=True,
        )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()

    def event(self, name: str) -> dict:
        """Next message from the child, which must be a ``name`` event."""
        box: list[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(CHILD_TIMEOUT_S)
        if not box or not box[0]:
            self.process.kill()
            raise RuntimeError(
                f"child produced no {name!r} event (exit code {self.process.wait()})"
            )
        message = json.loads(box[0])
        if message.get("event") != name:
            raise RuntimeError(f"expected {name!r} from child, got {message.get('event')!r}")
        message["elapsed_s"] = time.perf_counter() - self.spawned
        return message

    def command(self, payload: dict, reply: str) -> dict:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        return self.event(reply)

    def quit(self) -> None:
        self.process.stdin.write('{"cmd": "quit"}\n')
        self.process.stdin.flush()
        self.process.wait(timeout=30)

    def kill(self) -> None:
        """SIGKILL: no clean shutdown, no final checkpoint."""
        self.process.send_signal(signal.SIGKILL)
        self.process.wait()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="ascii")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")


# -- driving one server ---------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def count(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures[failure] = self.failures.get(failure, 0) + 1


@dataclass
class WriteLog:
    """Latencies in ms by operation kind, plus what recovery must find."""

    latency_ms: dict[str, list[float]] = field(
        default_factory=lambda: {"add": [], "refresh": [], "drop": []}
    )
    late_ms_max: float = 0.0
    last_indexed_columns: int | None = None
    live: set[str] = field(default_factory=set)
    dropped_tables: set[str] = field(default_factory=set)


class Driver:
    """Client side of one serving child: probe set, windows, writes."""

    def __init__(
        self, port: int, ready: dict, workload: Workload, sizes: Sizes, seed: int
    ) -> None:
        self.port = port
        self.workload = workload
        self.sizes = sizes
        self.threshold = float(ready["setup"]["threshold"])
        self.oracle: dict[str, list[str]] = ready["oracle"]
        self.plan: Plan = build_plan(workload, seed, ready["indexed_refs"], sizes)
        self.cycle = WriteCycle(
            self.plan.refresh_pool, ready["templates"], sizes.snapshot_prefill
        )
        #: table key -> time its drop was acknowledged, read by the readers
        self.dropped: dict[tuple[str, str], float] = {}
        self.tally = Tally()
        self.writes = WriteLog()
        self._write_connection = Connection(port)

    def reader(self, client: int) -> Reader:
        return Reader(self.port, self.plan.streams[client], self.threshold, self.dropped)

    def probe(self) -> tuple[float, float]:
        """Ask the probe set once (then any preload, so a hot stream starts hot).

        Returns mean overlap@10 with the brute-force oracle, and the share
        of answers holding the column the query was derived from.
        """
        asker = self.reader(0)
        connection = Connection(self.port)
        overlaps, hits = [], 0
        try:
            for ref in self.plan.probe_set:
                sample = asker.search(connection, ref)
                self.tally.count(sample.failure)
                if sample.failure is None:
                    overlaps.append(overlap_at_k(sample.answer, self.oracle[ref], K))
                    expected = expected_match(
                        self.workload, ref, self.sizes, self.plan.base_database
                    )
                    hits += expected in sample.answer
            for ref in self.plan.preload:
                self.tally.count(asker.search(connection, ref).failure)
        finally:
            connection.close()
        if not overlaps:
            return 0.0, 0.0
        return sum(overlaps) / len(overlaps), hits / len(overlaps)

    def _write(self, _index: int = 0):
        op = self.cycle.next_op()
        sample = do_write(self._write_connection, op)
        self.tally.count(sample.failure)
        if sample.failure is None:
            self.writes.last_indexed_columns = sample.indexed_columns
            if op.kind == "add":
                self.writes.live.add(op.table)
            elif op.kind == "drop":
                self.dropped[(SNAPSHOT_DATABASE, op.table)] = sample.done
                self.writes.live.discard(op.table)
                self.writes.dropped_tables.add(op.table)
        return op, sample

    def window(self, readers: list[Reader], warm_s: float, window_s: float, *, writer: bool):
        """Warm up, then run the timed window.

        Returns ``(window start, search samples of the whole phase, /stats
        at window start, /stats at window end)``.
        """
        begin = time.perf_counter()
        start, stop = begin + warm_s, begin + warm_s + window_s
        timings: list[OpTiming] = []
        writer_thread = None
        if writer:
            n_ops = int(self.sizes.write_rate * (warm_s + window_s))
            writer_thread = threading.Thread(
                target=lambda: timings.extend(
                    run_open_loop(n_ops, self.sizes.write_rate, self._write, start=begin)
                ),
                daemon=True,
            )
            writer_thread.start()
        for reader in readers:
            reader.start(stop)
        time.sleep(max(0.0, start - time.perf_counter()))
        stats_before = get_json(self.port, "/stats")
        for reader in readers:
            reader.join()
        if writer_thread is not None:
            writer_thread.join()
        stats_after = get_json(self.port, "/stats")
        samples = [sample for reader in readers for sample in reader.samples]
        for sample in samples:
            self.tally.count(sample.failure)
        for timing in timings:
            op, sample = timing.outcome
            if timing.due >= start and sample.failure is None:
                self.writes.latency_ms[op.kind].append(timing.latency * 1e3)
                self.writes.late_ms_max = max(self.writes.late_ms_max, timing.late * 1e3)
        return start, samples, stats_before, stats_after

    def burst(self) -> None:
        """Closed-loop write burst: one admin client, nothing else running."""
        for _ in range(self.sizes.burst_ops):
            sent = time.perf_counter()
            op, sample = self._write()
            if sample.failure is None:
                self.writes.latency_ms[op.kind].append((sample.done - sent) * 1e3)

    def recovery_command(self, directory: str) -> dict:
        columns_of = self.cycle.columns_of
        return {
            "cmd": "recover",
            "dir": directory,
            "expect_columns": self.writes.last_indexed_columns,
            "live": [
                f"{SNAPSHOT_DATABASE}.{table}.{column}"
                for table in sorted(self.writes.live)
                for column in columns_of[table]
            ],
            "dropped": [
                f"{SNAPSHOT_DATABASE}.{table}.{column}"
                for table in sorted(self.writes.dropped_tables)
                for column in columns_of[table]
            ],
        }

    def close(self) -> None:
        self._write_connection.close()

    @property
    def stream_wrapped(self) -> bool:
        return any(stream.wrapped for stream in self.plan.streams)


def search_metrics(samples: list[SearchSample], start: float, window_s: float) -> dict:
    """Slice-median throughput and latency of the verified searches."""
    verified = [s for s in samples if s.failure is None and s.done >= start]
    slice_s = window_s / N_SLICES
    slices = slice_samples(((s.done, s.latency * 1e3) for s in verified), start, slice_s, N_SLICES)
    summary = summarize_slices(slices, slice_s)
    in_window = [s for s in verified if s.done < start + window_s]
    return {
        "qps": summary["per_s"],
        "p50_ms": summary["p50"],
        "p95_ms": summary["tail"],
        "p99_ms": percentile((s.latency * 1e3 for s in in_window), 99),
        "tail_eligible": summary["tail_eligible"],
        "min_slice_samples": summary["min_slice_samples"],
        "samples": in_window,
    }


# -- one workload ---------------------------------------------------------------


@dataclass
class Outcome:
    workload: str
    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    notes: list[str]


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before, after = before[key], after[key]
    return after - before


def _hit_rate(before: dict, after: dict, cache: str) -> float:
    hits = _delta(before, after, "caches", cache, "hits")
    misses = _delta(before, after, "caches", cache, "misses")
    return hits / (hits + misses) if hits + misses else 0.0


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool
) -> Outcome:
    workload = WORKLOADS[name]
    sizes = SMOKE if smoke else FULL
    scratch = OUT / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        return (_run_traced if trace else _run_end_to_end)(
            workload, sizes, seed, seconds, smoke, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _spec(workload: Workload, seed: int, smoke: bool, store: Path, **extra) -> dict:
    return {
        "mode": "serve",
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "durable_dir": str(store),
        **extra,
    }


def _notes(ready: dict, calib: tuple[float, float], found: dict, driver: Driver) -> list[str]:
    notes = [
        f"bench.corpus_digest {ready['setup']['corpus_digest']}",
        f"host.calib_ms before {calib[0]:.2f} after {calib[1]:.2f}"
        + ("  noisy: true" if is_noisy(*calib) else ""),
    ]
    if not found["tail_eligible"]:
        notes.append(
            f"p95 not eligible: smallest slice holds {found['min_slice_samples']:.0f} samples"
        )
    if driver.stream_wrapped:
        notes.append("client.stream_wrapped 1: a stream ran out and repeated; run invalid")
    if driver.tally.failures:
        notes.append(f"failures by class: {driver.tally.failures}")
    return notes


def _run_end_to_end(
    workload: Workload, sizes: Sizes, seed: int, seconds: float, smoke: bool, scratch: Path
) -> Outcome:
    store = scratch / "store-a"
    with Child(_spec(workload, seed, smoke, store)) as server:
        ready = server.event("ready")
        driver = Driver(ready["port"], ready, workload, sizes, seed)
        # No collector pause in the client threads while latencies are taken.
        gc.collect()
        gc.disable()
        try:
            agreement, source_hit = driver.probe()
            readers = [driver.reader(client) for client in range(workload.readers)]
            calib_before = calibrate_ms()
            start, samples, _before, _after = driver.window(
                readers, WARM_UP_S, seconds, writer=workload.writer_in_window
            )
            calib_after = calibrate_ms()
            if not workload.writer_in_window:
                driver.burst()
        finally:
            gc.enable()
            driver.close()
        sheds = get_json(ready["port"], "/stats")["admission"]["sheds"]
        peak_rss_mb = server.peak_rss_mb()
        server.kill()
    # The second child gives a second set-up sample, then recovers the store
    # the first one was killed on (its model is loaded, so recover_s is
    # replay + index rebuild, not model training).
    with Child(_spec(workload, seed, smoke, scratch / "store-b")) as second:
        ready_again = second.event("ready")
        recovered = second.command(driver.recovery_command(str(store)), "recovered")
        second.quit()

    found = search_metrics(samples, start, seconds)
    setups = [ready, ready_again]
    metrics = {
        "setup_s": median(r["elapsed_s"] for r in setups),
        "index_cols_per_s": median(
            r["setup"]["columns_indexed"] / r["setup"]["open_s"] for r in setups
        ),
        "search_qps": found["qps"],
        "search_p50_ms": found["p50_ms"],
        "search_p95_ms": found["p95_ms"],
        "ok_rate": 1.0 - driver.tally.failed / driver.tally.attempted,
        "oracle_agreement_at_10": agreement,
        "source_hit_at_10": source_hit,
        "add_table_p50_ms": median(driver.writes.latency_ms["add"]),
        "refresh_p50_ms": median(driver.writes.latency_ms["refresh"]),
        "recover_s": recovered["recover_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    notes = _notes(ready, (calib_before, calib_after), found, driver)
    notes += [f"recovery: {problem}" for problem in recovered["problems"]]
    if sheds:
        notes.append(f"service.sheds {sheds}: admission control refused connections")
    correct = (
        driver.tally.failed == 0
        and not recovered["problems"]
        and agreement >= ORACLE_FLOOR
        and not driver.stream_wrapped
        and sheds == 0
    )
    return Outcome(
        workload.name, metrics, driver.tally.attempted, driver.tally.failed, correct, notes
    )


def _run_traced(
    workload: Workload, sizes: Sizes, seed: int, seconds: float, smoke: bool, scratch: Path
) -> Outcome:
    """Per-layer metrics: HTTP-side counters here, spans from a traced child."""
    two_s, one_s = seconds, 0.5 * seconds
    with Child(_spec(workload, seed, smoke, scratch / "store-a")) as server:
        ready = server.event("ready")
        port = ready["port"]
        driver = Driver(port, ready, workload, sizes, seed)
        try:
            driver.probe()
            readers = [driver.reader(client) for client in range(workload.readers)]
            calib_before = calibrate_ms()
            start, samples, before, after = driver.window(
                readers, WARM_UP_S, two_s, writer=workload.writer_in_window
            )
            calib_after = calibrate_ms()
            loaded = search_metrics(samples, start, two_s)
            alone = driver.reader(0)
            alone_start, alone_samples, _b, _a = driver.window([alone], 0.0, one_s, writer=False)
            single = search_metrics(alone_samples, alone_start, one_s)
            if not workload.writer_in_window:
                driver.burst()
            final = get_json(port, "/stats")
        finally:
            driver.close()
        server.quit()

    trace_path = OUT / f"trace-{workload.name}.jsonl"
    spec = _spec(
        workload,
        seed,
        smoke,
        scratch / "store-t",
        mode="trace",
        per_slice=max(32, int(30 * seconds)),
        trace_path=str(trace_path),
        scratch_dir=str(scratch / "wal-scratch"),
    )
    with Child(spec) as tracer:
        traced = tracer.event("trace")
        tracer.process.wait(timeout=30)
    # The 1-client HTTP round trips are spans too: same file, ids continue.
    with trace_path.open("a", encoding="utf-8") as handle:
        for offset, sample in enumerate(single["samples"]):
            handle.write(
                json.dumps(
                    {
                        "id": traced["spans"] + offset,
                        "parent": None,
                        "request": offset,
                        "phase": "http-1-client",
                        "name": "http.search",
                        "t0": sample.sent,
                        "t1": sample.done,
                    }
                )
                + "\n"
            )

    layer = traced["metrics"]
    timing = [s.timing for s in loaded["samples"] if s.timing]
    coalescer_requests = _delta(before, after, "caches", "coalescer", "requests")
    batches = _delta(before, after, "caches", "coalescer", "batches")
    http_p50 = single["p50_ms"]
    miss_share = layer.pop("service.trace_miss_share")
    http_overhead = http_p50 - layer["service.search_ms_p50"]
    accounted = (
        layer["warehouse.scan_ms_p50"]
        + layer["embedding.encode_ms_p50"]
        + miss_share * (layer["index.probe_ms_p50"] + layer["core.search_self_ms_p50"])
        + layer["service.search_self_ms_p50"]
        + http_overhead
    )
    metrics = {
        **layer,
        "embedding.token_cache_hit_rate": _hit_rate(before, after, "token_cache"),
        "embedding.value_cache_hit_rate": _hit_rate(before, after, "value_vectors"),
        "service.http_overhead_ms_p50": http_overhead,
        "service.qps_1c": single["qps"],
        "service.scaling_2c": loaded["qps"] / single["qps"],
        "service.qcache_hit_rate": _hit_rate(before, after, "query_cache"),
        "service.coalesce_mean_batch": (
            _delta(before, after, "caches", "coalescer", "coalesced_requests") / batches
            if batches
            else 0.0
        ),
        "service.coalesce_fastpath_share": (
            _delta(before, after, "caches", "coalescer", "fastpath") / coalescer_requests
            if coalescer_requests
            else 0.0
        ),
        "service.queue_wait_mean_ms": float(after["admission"]["queue_wait_mean_ms"]),
        "service.sheds": float(final["admission"]["sheds"]),
        "service.reported_load_ms_p50": median(t["load_s"] * 1e3 for t in timing),
        "service.reported_embed_ms_p50": median(t["embed_s"] * 1e3 for t in timing),
        "service.reported_lookup_ms_p50": median(t["lookup_s"] * 1e3 for t in timing),
        "service.unaccounted_ms_p50": median(
            s.latency * 1e3 - s.timing["response_time_s"] * 1e3
            for s in loaded["samples"]
            if s.timing
        ),
        "client.search_1c_p50_ms": http_p50,
        "client.search_p99_ms": loaded["p99_ms"],
        "client.drop_p50_ms": median(driver.writes.latency_ms["drop"]),
        "client.writer_late_ms_max": driver.writes.late_ms_max,
        "client.stream_wrapped": float(driver.stream_wrapped),
        "durability.checkpoints": float(
            final["durability"]["manifest_seq"] - before["durability"]["manifest_seq"]
        ),
        "bench.corpus_gen_s": ready["setup"]["corpus_gen_s"],
        "bench.oracle_s": ready["setup"]["oracle_s"],
        "host.calib_ms_before": calib_before,
        "host.calib_ms_after": calib_after,
        "trace.coverage": accounted / http_p50,
    }
    notes = _notes(ready, (calib_before, calib_after), loaded, driver)
    notes.append(f"trace: {traced['spans'] + len(single['samples'])} spans in {trace_path}")
    correct = driver.tally.failed == 0 and not driver.stream_wrapped
    return Outcome(
        workload.name, metrics, driver.tally.attempted, driver.tally.failed, correct, notes
    )


# -- reporting ------------------------------------------------------------------


def report(outcome: Outcome, declared: list[dict], *, comparable: bool) -> dict:
    """Print every metric by name with its unit; return the contract's result."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(outcome.metrics):
        raise RuntimeError(
            "metrics measured and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(units) ^ set(outcome.metrics))}"
        )
    label = "" if comparable else "  [smoke sizes: not comparable]"
    print(f"== {outcome.workload}{label}")
    for name in units:
        print(f"{name:38s} {outcome.metrics[name]:14.4f} {units[name]}")
    for note in outcome.notes:
        print(f"   {note}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]} for name in units
        },
    }


def run_suite(names: list[str], args, contract: dict) -> dict[str, dict]:
    declared = contract["per_layer" if args.trace else "end_to_end"]
    results = {}
    for name in names:
        outcome = run_workload(
            name, seed=args.seed, seconds=args.seconds, trace=bool(args.trace), smoke=args.smoke
        )
        results[name] = report(outcome, declared, comparable=not args.smoke)
        print(json.dumps(results[name]), flush=True)
    return results


def compare_aa(first: dict[str, dict], second: dict[str, dict], contract: dict) -> bool:
    """Print both runs side by side against each metric's bound; True if all pass."""
    passed = True
    print("== A/A: the same tree twice")
    for workload in first:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            gap = max(
                relative_gap(a, b, metric["better"]), relative_gap(b, a, metric["better"])
            )
            failed = regressed(a, b, metric["better"], metric["bound"]) or regressed(
                b, a, metric["better"], metric["bound"]
            )
            passed &= not failed
            print(
                f"{workload:11s} {name:24s} {a:12.4f} {b:12.4f} {metric['unit']:6s}"
                f" gap {gap:7.2%} bound {metric['bound']:.1%} {'FAIL' if failed else 'ok'}"
            )
    return passed


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="timed window (default: BENCHMARK.json run_seconds)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics and write bench/out/trace-<workload>.jsonl",
    )
    parser.add_argument("--aa", action="store_true", help="run twice, compare within bounds")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny corpora, 2 s windows; numbers not comparable"
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(contract["run_seconds"])
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]

    if args.aa and args.trace:
        parser.error("--aa compares end-to-end metrics; run it without --trace")
    first = run_suite(names, args, contract)
    if not args.aa:
        return 0
    second = run_suite(names, args, contract)
    return 0 if compare_aa(first, second, contract) else 1


if __name__ == "__main__":
    sys.exit(main())
