"""Run one workload of the layered benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wgpb-ring --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reruns the same op sequence on a fresh system with the
tracing wrappers installed and reports the per-layer metrics, plus the
tracing overhead against an untraced pass over the same ops.  Every
answer is checked by an oracle outside the timed regions; a wrong
answer, a failed op or a failed durability check prints
``"correct": false`` and exits 1.  Times are reported at a reference
host's speed, from a calibration pass run after every op (NOTES.md).
The last stdout line is the JSON result; a fuller record (host, sizes,
sample counts) goes to ``.perfbench/results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
#: Calibration passes run right before and right after each set-up, so
#: the set-up is scaled by the host speed of its own moment.
SETUP_CALIBRATIONS = 10
#: A run measures whole passes over its workload's log, but stops mid-pass
#: once op time reaches this multiple of ``--seconds`` (a slow regression
#: must still finish inside the benchmark's time limit).
PASS_CAP = 3.0
#: A traced window stops after this multiple of ``--seconds`` of op time
#: even if its untraced twin ran more ops (tracing costs several x).
TRACED_BUSY_CAP = 6.0
KERNELS = (
    "bits.rank1_many", "bits.select1_many", "bits.access_many",
    "wavelet.rank_many", "wavelet.extract_at", "ring.decode_range",
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class Window:
    """What one closed-loop measurement window saw, op by op."""

    def __init__(self, ref_state: dict) -> None:
        self.ref_state = ref_state
        # Per op, in order: seconds as measured, CPU seconds, and "query"
        # or "write" (None for a failed op).
        self.op_latencies: list[float] = []
        self.op_cpu_s: list[float] = []
        self.op_kinds: list[Optional[str]] = []
        #: One calibration pass per op, in a calibrated window.
        self.calibration_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.queries = 0
        self.ok_queries = 0
        self.query_keys: list[int] = []
        self.footprint_mb = 0.0
        self.rows = 0
        self.busy_s = 0.0
        self.overshoot_ms = float("-inf")
        self.problems: list[str] = []

    def scales(self) -> list[float]:
        """Per-op factor to the reference host's speed (1 when the window
        was not calibrated)."""
        from perfbench.measure import local_scales

        if not self.calibration_s:
            return [1.0] * len(self.op_latencies)
        return local_scales(self.calibration_s)

    def latencies(self, kind: str, scales: list[float]) -> list[float]:
        """Scaled latencies of the successful ops of ``kind``."""
        return [t * s for t, s, k in zip(self.op_latencies, scales, self.op_kinds)
                if k == kind]


def run_window(workload, system, ref, ops, *, seconds=None, pass_ops=1,
               busy_cap=None, tracer=None):
    """Closed loop over ``ops``: time each op, then check it untimed.

    With ``seconds``, the window ends at the first pass boundary (every
    ``pass_ops`` ops) after ``seconds`` of op time.  A failed op (typed
    error, timeout, interrupted partial) is a problem of the run, and its
    latency stays out of the percentiles.  An untraced window also runs
    a calibration pass and takes a memory reading after every op.
    """
    from repro.core.interface import QueryError
    from repro.perf.counters import KERNEL_COUNTERS
    from perfbench.measure import calibration_s, cpu_seconds, footprint_mb
    from perfbench.workloads import TIMEOUT_S

    win = Window(ref)
    perf = time.perf_counter
    for op in ops:
        if seconds is not None and win.busy_s >= seconds and (
            win.attempted % pass_ops == 0 or win.busy_s >= PASS_CAP * seconds
        ):
            break
        if busy_cap is not None and win.busy_s >= busy_cap:
            break
        if tracer is not None:
            tracer.query_id = win.attempted
        win.attempted += 1
        is_query = op[0] == "query"
        cpu0 = cpu_seconds()
        start = perf()
        try:
            outcome = workload.execute(system, op)
            error = None
        except QueryError as exc:
            outcome, error = None, exc
        elapsed = perf() - start
        win.op_cpu_s.append(cpu_seconds() - cpu0)
        win.busy_s += elapsed
        win.op_latencies.append(elapsed)
        win.op_kinds.append(None)
        if tracer is None:
            win.footprint_mb = max(win.footprint_mb, footprint_mb())
            win.calibration_s.append(calibration_s())
        if is_query:
            win.queries += 1
            win.overshoot_ms = max(win.overshoot_ms, (elapsed - TIMEOUT_S) * 1e3)
        # A limit-cut answer is complete; only an interrupted one (timeout,
        # cancellation, lost shard) is a partial result.
        interrupted = getattr(outcome, "interrupted_by", None)
        if error is not None or interrupted:
            win.failed += 1
            win.problems.append(
                f"op {win.attempted - 1} ({op[0]}) failed: {error or interrupted}")
            continue
        win.op_kinds[-1] = "query" if is_query else "write"
        if is_query:
            win.ok_queries += 1
            win.rows += len(outcome)
            win.query_keys.append(op[2])
        counting = KERNEL_COUNTERS.enabled
        KERNEL_COUNTERS.enabled = False
        try:
            if tracer is not None:
                with tracer.suspended():
                    problem = workload.check(system, ref, op, outcome)
            else:
                problem = workload.check(system, ref, op, outcome)
        finally:
            KERNEL_COUNTERS.enabled = counting
        if problem is not None:
            win.problems.append(f"op {win.attempted - 1} ({op[0]}): {problem}")
    return win


def _query_ops(ops, n_queries):
    """The prefix of ``ops`` holding ``n_queries`` queries."""
    seen = 0
    for op in ops:
        if op[0] == "query":
            if seen == n_queries:
                return
            seen += 1
        yield op


def install_class_patches(tracer) -> None:
    """Wrap the library's classes at the layer boundaries this process
    calls through (restored by ``tracer.unpatch_all``)."""
    from repro.bits.bitvector import BitVector
    from repro.core.dynamic import DynamicRingIndex
    from repro.core.iterators import RingIterator
    from repro.core.system import BaseQuerySystem
    from repro.reliability.wal import DurableDynamicRing, WriteAheadLog
    from repro.sequences.wavelet_matrix import WaveletMatrix
    from perfbench.workloads import ShardJoin

    tracer.patch(BaseQuerySystem, "evaluate", "core.ltj", span=True)
    tracer.patch(RingIterator, "bind", "core.iterators.bind")
    tracer.patch(RingIterator, "leap", "core.iterators.leap")
    tracer.patch(WaveletMatrix, "rank", "sequences.wm_rank")
    # rank0 calls rank1, so wrapping rank1 alone counts every scalar rank.
    tracer.patch(BitVector, "rank1", "bits.rank")
    tracer.patch(WriteAheadLog, "append", "reliability.wal.append", span=True)
    tracer.patch(DurableDynamicRing, "checkpoint", "reliability.wal.checkpoint", span=True)
    tracer.patch(DynamicRingIndex, "_compact", "core.dynamic.compact", span=True)
    ShardJoin.class_patches(tracer)


def layer_metrics(workload, system, before, memo0, win, tracer, kernels) -> dict:
    """Per-layer metrics of a traced window (0 where a layer is bypassed)."""
    from perfbench.measure import p50, p90

    totals = tracer.totals()

    def t(name, key):
        return totals.get(name, {}).get(key, 0)

    hits = misses = 0
    for rid, (h, m) in _memo_now(workload, system).items():
        h0, m0 = memo0.get(rid, (0, 0))
        hits += h - h0
        misses += m - m0
    writes = win.latencies("write", win.scales())
    out = {
        "bits.rank_calls": t("bits.rank", "calls"),
        "bits.rank_self_s": t("bits.rank", "self_s"),
        "sequences.wm_rank_calls": t("sequences.wm_rank", "calls"),
        "sequences.wm_rank_self_s": t("sequences.wm_rank", "self_s"),
        "core.ring.leap_memo_hit_ratio": hits / max(hits + misses, 1),
        "core.iterators.bind_calls": t("core.iterators.bind", "calls"),
        "core.iterators.bind_self_s": t("core.iterators.bind", "self_s"),
        "core.iterators.leap_calls": t("core.iterators.leap", "calls"),
        "core.iterators.leap_self_s": t("core.iterators.leap", "self_s"),
        "core.ltj.self_s": t("core.ltj", "self_s"),
        "core.ltj.rows_per_bind":
            win.rows / binds if (binds := t("core.iterators.bind", "calls")) else 0.0,
        "graph.bulkload.build_s": 0.0,
        "core.frozen.load_s": 0.0,
        "parallel.busy_s": 0.0,
        "parallel.slices_per_query": 0.0,
        "parallel.busy_over_serial": 0.0,
        "parallel.rescues": 0,
        "serving.coordinator.self_s": t("serving.coordinator", "self_s"),
        "serving.coordinator.gather_wait_s": t("serving.gather_wait", "total_s"),
        "serving.coordinator.local_join_s": t("serving.local_join", "total_s"),
        "serving.coordinator.gathered_triples_per_row": 0.0,
        "serving.coordinator.retries": 0,
        "serving.endpoint.calls": t("serving.endpoint", "calls"),
        "serving.endpoint.busy_s": t("serving.endpoint", "total_s"),
        "reliability.budget.overshoot_max_ms": win.overshoot_ms,
        "cache.hit_ratio": 0.0,
        "cache.invalidated": 0,
        "cache.self_s": t("cache", "self_s"),
        "cache.planner_hit_ratio": 0.0,
        "reliability.broker.queue_wait_s": t("broker.queue_wait", "total_s"),
        "reliability.broker.rejected": 0,
        "reliability.wal.append_calls": t("reliability.wal.append", "calls"),
        "reliability.wal.append_self_s": t("reliability.wal.append", "self_s"),
        "reliability.wal.checkpoint_s": t("reliability.wal.checkpoint", "total_s"),
        "reliability.wal.write_p50_ms": p50(writes) * 1e3 if writes else 0.0,
        "reliability.wal.write_p90_ms": p90(writes) * 1e3 if writes else 0.0,
        "reliability.wal.recover_s": 0.0,
        "core.dynamic.compactions": t("core.dynamic.compact", "calls"),
        "core.dynamic.compact_s": t("core.dynamic.compact", "total_s"),
        "core.dynamic.components_max": 0,
    }
    for kernel in KERNELS:
        k = kernels.get(kernel, {})
        prefix = f"sequences.kernel.{kernel}"
        out[f"{prefix}.calls"] = k.get("calls", 0)
        out[f"{prefix}.ops_per_call"] = k.get("ops_per_call", 0.0)
        out[f"{prefix}.total_s"] = k.get("seconds", 0.0)
    out.update(workload.layer_metrics(system, before, win))
    return out


def _memo_now(workload, system) -> dict:
    """``{id(ring): (hits, misses)}`` of the workload's leap memos."""
    out = {}
    for ring in workload.rings(system):
        stats = ring.leap_memo_stats()
        out[id(ring)] = (stats["hits"], stats["misses"])
    return out


def _setup(workload, inputs_seed, workdir, tracer=None):
    """Generate + build + load once; returns ``(inputs, system, seconds)``."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    start = time.perf_counter()
    inputs = workload.generate(inputs_seed)
    system = workload.open(inputs, workdir, tracer)
    return inputs, system, time.perf_counter() - start


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from repro.perf.counters import measuring
    from perfbench.measure import calibration_s, host_scale, p50, p90
    from perfbench.trace import Tracer

    record = {"problems": [], "metrics": {}, "extra": {}}
    # The oracle is ready before the first set-up and from inputs of its own.
    ref = workload.reference(workload.generate(seed))
    # -- untraced: setup_s is the median of SETUP_REPS full setups ------------
    reps = SETUP_REPS if not trace else 1
    setups, setup_scaled, system = [], [], None
    for rep in range(reps):
        if system is not None:
            workload.close(system)
        cal = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
        inputs, system, took = _setup(workload, seed, os.path.join(workdir, f"u{rep}"))
        cal += [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
        setups.append(took)
        setup_scaled.append(took * host_scale(cal))
    try:
        bpt = workload.bytes_per_triple(system)
        workload.warm(system, inputs)
        ops = workload.ops(inputs, seed)
        if trace:
            ops = _query_ops(ops, workload.traced_queries)
            win = run_window(workload, system, ref, ops)
        else:
            win = run_window(workload, system, ref, ops, seconds=seconds,
                             pass_ops=workload.pass_ops(inputs))
        problems, extra = workload.finish(system, ref)
    finally:
        workload.close(system)
    record["problems"] += win.problems + problems
    record["attempted"], record["failed"] = win.attempted, win.failed

    def timings(scales: list[float], setup_s: list[float]) -> dict:
        lat = win.latencies("query", scales)
        busy = sum(t * s for t, s in zip(win.op_latencies, scales))
        cpu = sum(c * s for c, s in zip(win.op_cpu_s, scales))
        return {
            # No successful query leaves no latency (the run already fails).
            "query_p50_ms": p50(lat) * 1e3 if lat else 0.0,
            "query_p90_ms": p90(lat) * 1e3 if lat else 0.0,
            "throughput_qps": win.ok_queries / max(busy, 1e-9),
            "cpu_s_per_query": cpu / max(win.queries, 1),
            "setup_s": statistics.median(setup_s),
        }

    # Times at the reference host's speed (see NOTES.md, "Host speed").
    scales = win.scales()
    writes = win.latencies("write", scales)
    record["extra"].update(extra)
    record["extra"].update(
        fail_frac=win.failed / max(win.attempted, 1),
        queries=win.queries,
        writes=len(writes),
        write_p50_ms=p50(writes) * 1e3 if writes else None,
        write_p90_ms=p90(writes) * 1e3 if writes else None,
        busy_s=win.busy_s,
        passes=win.attempted / workload.pass_ops(inputs),
        setup_reps=setups,
        host_scale=statistics.median(scales),
        raw=timings([1.0] * len(scales), setups),
    )
    n = win.ok_queries
    record["metrics"] = {
        name: (value, len(setups) if name == "setup_s" else n)
        for name, value in timings(scales, setup_scaled).items()
    }
    record["metrics"].update(
        peak_rss_mb=(win.footprint_mb, win.attempted),
        index_bytes_per_triple=(bpt, 1),
    )
    if not trace:
        return record

    # -- traced twin: fresh system, same op prefix, wrappers installed --------
    tracer = Tracer()
    twin_dir = os.path.join(workdir, "traced")
    ref = workload.reference(workload.generate(seed))
    inputs, system, _took = _setup(workload, seed, twin_dir, tracer)
    install_class_patches(tracer)
    try:
        workload.warm(system, inputs)
        before = workload.layer_snapshot(system)
        memo0 = _memo_now(workload, system)
        tracer.enabled = True
        with measuring() as counters:
            twin = run_window(
                workload, system, ref, _query_ops(workload.ops(inputs, seed), win.queries),
                busy_cap=TRACED_BUSY_CAP * seconds, tracer=tracer,
            )
            kernels = counters.snapshot()
        tracer.enabled = False
        layers = layer_metrics(workload, system, before, memo0, twin, tracer, kernels)
        problems, extra = workload.finish(system, ref)
        layers.update(extra)
    finally:
        tracer.enabled = False
        tracer.unpatch_all()
        workload.close(system)
    record["problems"] += twin.problems + problems
    record["attempted"] += twin.attempted
    record["failed"] += twin.failed
    n = len(twin.op_latencies)
    base = sum(win.op_latencies[:n])
    layers["trace.overhead_ratio"] = sum(twin.op_latencies) / max(base, 1e-9)
    spans = tracer.spans()
    layers["trace.spans"] = len(spans)
    record["layers"] = layers
    record["layer_ops"] = n
    record["spans"] = spans
    return record


def _run_all(spec: dict, args) -> int:
    """Each workload in its own process (so peak RSS stays per workload);
    nonzero when any of them fails."""
    worst = 0
    for entry in spec["workloads"]:
        done = subprocess.run([
            sys.executable, __file__, "--workload", entry["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no library sources at {ROOT / 'src' / 'repro'}")
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read {spec_path}: {exc}")
    if args.workload == "all":
        return _run_all(spec, args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.perf.hostmeta import host_metadata
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if workload is None or args.workload not in whys:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(whys)}")
    why = whys[args.workload]
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    state = ROOT / ".perfbench"
    workdir = state / f"run-{os.getpid()}"
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["layers"] if args.trace else {
        k: v[0] for k, v in record["metrics"].items()}
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        return _fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = not record["problems"]

    stamp = time.strftime("%Y%m%dT%H%M%S")
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}__seed{args.seed}__trace{args.trace}__{stamp}_{os.getpid()}"
    full = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "sizes": workload.sizes(),
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "problems": record["problems"][:20],
        "end_to_end": {k: {"value": v, "samples": n}
                       for k, (v, n) in record["metrics"].items()},
        "extra": record["extra"],
    }
    if args.trace:
        full["per_layer"] = record["layers"]
        full["per_layer_ops"] = record["layer_ops"]
        (results / f"{stem}__spans.json").write_text(json.dumps(record["spans"]))
    (results / f"{stem}.json").write_text(json.dumps(full, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {why}")
    print(f"# sizes {json.dumps(workload.sizes())}")
    if not args.trace:
        for name, (value, n) in record["metrics"].items():
            unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == name)
            print(f"{name:<28} {value:>14.6g} {unit:<8} n={n}")
        ex = record["extra"]
        print(f"{'fail_frac':<28} {ex['fail_frac']:>14.6g} {'ratio':<8} n={record['attempted']}")
        if ex["writes"]:
            for key in ("write_p50_ms", "write_p90_ms"):
                print(f"{key:<28} {ex[key]:>14.6g} {'ms':<8} n={ex['writes']}")
    else:
        for name, value in record["layers"].items():
            print(f"{name:<52} {value:>14.6g}")
    for problem in record["problems"][:5]:
        print(f"# PROBLEM: {problem}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
