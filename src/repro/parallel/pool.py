"""The slice-executing worker pool: budgets, cancellation, degradation.

Each worker process attaches the shared ring once
(:func:`~repro.parallel.shm.attach_ring`, zero-copy) and then serves
slice tasks from its own queue: ``(bgp, var_order, first_range,
budget spec)`` → the worker runs the *standard serial engine*
(:class:`~repro.core.ltj.LeapfrogTrieJoin`) restricted to its slice and
ships the solution rows back.  The driver merges blocks in slice order
(:func:`merge_blocks`), which makes the parallel output byte-identical
to the serial enumeration — LTJ emits the first variable in increasing
order, and the slices tile its domain in increasing order.

Budget propagation (ISSUE: identical semantics to the serial path):

- **deadline** — forwarded as remaining wall-clock seconds at dispatch
  time; each worker builds its own :class:`ResourceBudget` against it;
- **op cap** — the parent's remaining ``max_ops`` is split evenly into
  per-slice sub-budgets (op exhaustion in any slice surfaces as the
  same :class:`~repro.core.interface.QueryTimeout`);
- **cancellation** — one shared ``multiprocessing.Value`` flag, polled
  by workers through a duck-typed token at every budget check (the
  engine polls every ``tick_mask + 1`` ops, exactly as the serial
  path polls a :class:`CancellationToken`).

Degradation: a worker that dies mid-query (OOM-kill, crash, injected
``parallel.spawn`` fault at respawn) never loses or corrupts answers —
the driver detects the dead process, re-executes its unfinished slices
*serially in the parent* via the caller-supplied fallback, and respawns
the worker after the query.  A fully unspawnable pool raises
:class:`PoolUnavailable` and the system layer runs the query serially.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
from typing import Callable, Optional, Sequence

from repro.core.interface import QueryCancelled, QueryTimeout
from repro.core.iterators import RingIterator
from repro.core.ltj import LeapfrogTrieJoin
from repro.graph.model import BasicGraphPattern, Var
from repro.parallel.shm import RingHandle, attach_ring

#: Environment override for the multiprocessing start method; ``fork``
#: is the default (workers inherit the parent's imports, so attach is
#: milliseconds; ``spawn``/``forkserver`` also work, just slower).
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: ``(status, rows, stats, ops)`` of one slice, in slice order.
Block = tuple[str, list, dict, int]

#: Parent-side re-execution of one slice: ``(first_range) -> Block``.
SerialFallback = Callable[[tuple[int, int]], Block]


class PoolUnavailable(RuntimeError):
    """No live worker can take tasks; callers degrade to serial."""


class _FlagToken:
    """Duck-typed cancellation token over a shared ``mp.Value``.

    :class:`ResourceBudget` only reads ``token.cancelled``, so a plain
    property over the cross-process flag slots straight in.
    """

    __slots__ = ("_flag",)

    def __init__(self, flag) -> None:
        self._flag = flag

    @property
    def cancelled(self) -> bool:
        return self._flag.value != 0


def _worker_main(
    worker_id: int,
    handle: RingHandle,
    engine_opts: dict,
    task_q,
    result_q,
    cancel_flag,
    own_tracker: bool,
) -> None:
    """Worker entry point: attach once, serve slice tasks forever."""
    from repro.reliability.budget import ResourceBudget

    try:
        # spawn/forkserver workers run their own resource tracker, which
        # must forget the segment or it unlinks it on worker exit; fork
        # workers share the parent's tracker and must leave it alone.
        ring = attach_ring(handle, untrack=own_tracker)
    except Exception:  # parent sees the dead process and rescues
        return
    engine = LeapfrogTrieJoin(
        lambda pattern: RingIterator(ring, pattern), ring.n, **engine_opts
    )
    token = _FlagToken(cancel_flag)
    while True:
        task = task_q.get()
        if task is None:
            return
        task_id, bgp, var_order, first_range, spec = task
        started = time.monotonic()
        budget = ResourceBudget(
            timeout=spec["timeout"],
            max_ops=spec["max_ops"],
            token=token,
            tick_mask=spec["tick_mask"],
        )
        rows: list[dict[Var, int]] = []
        stats: dict = {}
        status, error = "ok", None
        max_rows = spec.get("max_solutions")
        # Dynamic variable-selection policies: the driver pins only the
        # sliced first variable and lets every deeper depth re-rank, so
        # this worker's subtree enumeration matches the serial policy
        # search node for node.
        pin_first = spec.get("pin_first", False)
        try:
            if max_rows is None or max_rows > 0:
                for solution in engine.evaluate(
                    bgp,
                    timeout=budget,
                    var_order=None if pin_first else var_order,
                    stats=stats,
                    first_range=first_range,
                    first_var=var_order[0] if pin_first else None,
                ):
                    rows.append(solution)
                    # A capped block keeps status "ok": the parent never
                    # consumes more than max_rows rows in total, so it
                    # cannot need the tail this break abandons.
                    if max_rows is not None and len(rows) >= max_rows:
                        break
        except QueryTimeout:
            status = "timeout"
        except QueryCancelled:
            status = "cancelled"
        except BaseException as exc:  # ship the failure, keep serving
            status, error = "error", f"{type(exc).__name__}: {exc}"
        result_q.put(
            (
                worker_id,
                task_id,
                status,
                rows,
                stats,
                budget.ops,
                time.monotonic() - started,
                error,
            )
        )


def _spawn_worker(ctx, worker_id, handle, engine_opts, task_q, result_q, cancel_flag):
    """Start one worker process (chaos site ``parallel.spawn``)."""
    forked = ctx.get_start_method() == "fork"
    proc = ctx.Process(
        target=_worker_main,
        args=(
            worker_id,
            handle,
            engine_opts,
            task_q,
            result_q,
            cancel_flag,
            not forked,  # own_tracker
        ),
        name=f"ring-worker-{worker_id}",
        daemon=True,
    )
    # A forked child shares the parent's heap copy-on-write; frozen objects
    # escape its collector, whose first full pass would copy every page.
    if forked:
        gc.freeze()
    try:
        proc.start()
    finally:
        if forked:
            gc.unfreeze()
    return proc


def merge_blocks(blocks: Sequence[Block]) -> tuple[list, Optional[str], dict, int]:
    """Deterministic slice merge (chaos site ``parallel.slice_merge``).

    Blocks arrive in slice (= ascending first-value) order.  The merged
    output is every complete block before the first non-``ok`` slice,
    plus that slice's partial rows — i.e. a *prefix* of the serial
    enumeration, matching what a serial run interrupted at the same
    point would have produced.  Later blocks are dropped: including
    them would yield a non-contiguous (silently misleading) result.

    Returns ``(rows, first_bad_status_or_None, summed stats, summed ops)``.
    """
    rows: list = []
    stats: dict = {}
    ops = 0
    for status, block, block_stats, block_ops in blocks:
        ops += block_ops
        for key, value in block_stats.items():
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0) + value
            else:  # e.g. the "error" message of a failed slice
                stats.setdefault(key, value)
        if status == "error":
            return rows, status, stats, ops
        rows.extend(block)
        if status != "ok":
            return rows, status, stats, ops
    return rows, None, stats, ops


class WorkerPool:
    """A fixed set of ring workers serving range-partitioned queries.

    One parallel query runs at a time (guarded by an internal lock);
    concurrent callers queue up, which matches the broker's admission
    model one layer above.  Workers are long-lived: the attach cost is
    paid once per worker, not per query.
    """

    def __init__(
        self,
        handle: RingHandle,
        workers: int = 2,
        engine_opts: Optional[dict] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        method = start_method or os.environ.get(START_METHOD_ENV, "fork")
        self._ctx = mp.get_context(method)
        self._handle = handle
        self._engine_opts = dict(engine_opts or {})
        self._cancel = self._ctx.Value("i", 0)
        # Per-worker queue pairs: a process killed mid-get/mid-put can
        # leave a queue's internal lock held forever, so queues are never
        # shared across workers and a respawned worker gets fresh ones —
        # a crash can only poison queues that die with it.
        self._result_qs = [self._ctx.Queue() for _ in range(workers)]
        self._task_qs = [self._ctx.Queue() for _ in range(workers)]
        self._procs: list = [None] * workers
        self._busy = [0.0] * workers
        self._lock = threading.Lock()
        self._task_counter = itertools.count()
        self._counters = {
            "queries": 0,
            "dispatched": 0,
            "completed": 0,
            "respawns": 0,
            "serial_rescues": 0,
            "spawn_failures": 0,
        }
        #: Test hook: worker id to ``kill()`` right after dispatch —
        #: deterministically exercises the dead-worker rescue path.
        self._kill_after_dispatch: Optional[int] = None
        self._closed = False
        for wid in range(workers):
            self._try_spawn(wid)
        if not any(p is not None for p in self._procs):
            self.close()
            raise PoolUnavailable("no worker process could be spawned")

    # -- lifecycle -----------------------------------------------------------

    def _try_spawn(self, wid: int) -> None:
        try:
            self._procs[wid] = _spawn_worker(
                self._ctx,
                wid,
                self._handle,
                self._engine_opts,
                self._task_qs[wid],
                self._result_qs[wid],
                self._cancel,
            )
        except Exception:
            self._procs[wid] = None
            self._counters["spawn_failures"] += 1

    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p is not None and p.is_alive())

    @property
    def alive(self) -> bool:
        return not self._closed and self.alive_workers > 0

    def close(self) -> None:
        """Stop every worker and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._cancel.value = 1
        for tq, proc in zip(self._task_qs, self._procs):
            if proc is not None and proc.is_alive():
                try:
                    tq.put_nowait(None)
                except Exception:
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for q in [*self._result_qs, *self._task_qs]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- execution -----------------------------------------------------------

    def run_slices(
        self,
        bgp: BasicGraphPattern,
        var_order: Sequence[Var],
        slices: Sequence[tuple[int, int]],
        budget,
        serial_fallback: SerialFallback,
        pin_first: bool = False,
    ) -> list[Block]:
        """Execute one task per slice; blocks return in slice order.

        ``budget`` is the parent query's :class:`ResourceBudget`: its
        remaining wall clock and an even split of its remaining op cap
        parameterise each worker-side sub-budget, and its expiry (or
        its token's cancellation) trips the shared flag so workers stop
        within one check interval.  ``serial_fallback(first_range)``
        re-executes a slice in the calling process when its worker died
        before answering.  With ``pin_first`` (dynamic variable-selection
        policies) workers pin only ``var_order[0]`` — the sliced
        variable — and re-rank every deeper depth themselves.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        with self._lock:
            return self._run_slices_locked(
                bgp, var_order, list(slices), budget, serial_fallback, pin_first
            )

    def _run_slices_locked(
        self, bgp, var_order, slices, budget, serial_fallback, pin_first=False
    ):
        alive = [
            wid
            for wid, p in enumerate(self._procs)
            if p is not None and p.is_alive()
        ]
        if not alive:
            raise PoolUnavailable("no live workers")
        self._counters["queries"] += 1
        self._cancel.value = 0
        for rq in self._result_qs:  # stale results from a prior query
            self._drain(rq)

        if budget.max_ops is not None:
            remaining_ops = max(budget.max_ops - budget.ops, 1)
            sub_ops = max(remaining_ops // len(slices), 1)
        else:
            sub_ops = None
        row_demand = getattr(budget, "row_demand", None)
        if row_demand is not None:
            # The parent consumes at most L raw rows total, so it can
            # never need more than L rows from any single block: capping
            # each worker at the remaining L preserves first-L-rows
            # identity while sparing workers the (possibly huge) slice
            # tail.  row_demand is only set when no dedup sits between
            # the stream and the consumer (see BaseQuerySystem.evaluate).
            sub_solutions = max(row_demand - budget.solutions, 0)
        else:
            sub_solutions = None
        spec = {
            "timeout": budget.remaining_time(),
            "max_ops": sub_ops,
            "tick_mask": budget.tick_mask,
            "max_solutions": sub_solutions,
            "pin_first": pin_first,
        }

        task_ids = [next(self._task_counter) for _ in slices]
        index_of = {tid: i for i, tid in enumerate(task_ids)}
        assignment: dict[int, int] = {}
        for i, (tid, slc) in enumerate(zip(task_ids, slices)):
            wid = alive[i % len(alive)]
            self._task_qs[wid].put((tid, bgp, var_order, slc, spec))
            assignment[tid] = wid
            self._counters["dispatched"] += 1

        if self._kill_after_dispatch is not None:
            wid, self._kill_after_dispatch = self._kill_after_dispatch, None
            proc = self._procs[wid]
            if proc is not None:
                proc.kill()
                proc.join(timeout=1.0)

        results: dict[int, Block] = {}
        flag_set = False
        while len(results) < len(slices):
            progressed = False
            for rq in list(self._result_qs):
                while True:
                    try:
                        msg = rq.get_nowait()
                    except (queue_mod.Empty, OSError, ValueError):
                        break
                    progressed = True
                    (wid, tid, status, rows, stats, ops, elapsed, error) = msg
                    if tid not in index_of or tid in results:
                        continue  # stale or already rescued
                    if status == "error" and error:
                        stats = dict(stats)
                        stats["error"] = error
                    results[tid] = (status, rows, stats, ops)
                    self._busy[wid] += elapsed
                    self._counters["completed"] += 1
            if len(results) >= len(slices):
                break
            if not progressed:
                if not flag_set and budget.expired():
                    # Mirror the parent's exhaustion into every worker;
                    # they observe it at their next budget check.
                    self._cancel.value = 1
                    flag_set = True
                self._rescue_dead(
                    assignment, results, index_of, slices, serial_fallback
                )
                time.sleep(0.005)

        self._respawn_dead()
        return [results[tid] for tid in task_ids]

    def _rescue_dead(self, assignment, results, index_of, slices, serial_fallback):
        """Serially re-execute unfinished slices of dead workers."""
        for tid, wid in assignment.items():
            if tid in results:
                continue
            proc = self._procs[wid]
            if proc is not None and proc.is_alive():
                continue
            results[tid] = serial_fallback(slices[index_of[tid]])
            self._counters["serial_rescues"] += 1

    def _respawn_dead(self) -> None:
        """Replace dead workers after the query (keeps drills observable:
        the degraded query ran short-handed; the next one is whole).

        The dead worker's queues are *discarded*, never reused: a
        process killed inside ``Queue.get`` leaves the queue's internal
        lock acquired forever, so a replacement sharing it would hang on
        its first read.  Fresh queues also obsolete any undelivered
        tasks the parent already rescued.
        """
        for wid, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():
                continue
            if proc is not None:
                proc.join(timeout=0.5)
            for old in (self._task_qs[wid], self._result_qs[wid]):
                try:
                    old.close()
                    old.cancel_join_thread()
                except Exception:
                    pass
            self._task_qs[wid] = self._ctx.Queue()
            self._result_qs[wid] = self._ctx.Queue()
            self._try_spawn(wid)
            if self._procs[wid] is not None:
                self._counters["respawns"] += 1

    @staticmethod
    def _drain(q) -> None:
        while True:
            try:
                q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Pool telemetry: worker liveness, throughput, busy seconds."""
        return {
            "workers": len(self._procs),
            "alive_workers": self.alive_workers,
            "busy_seconds": list(self._busy),
            **self._counters,
        }


# -- generic task pool -------------------------------------------------------


class TaskError(RuntimeError):
    """A :class:`TaskPool` task raised in its worker (message attached)."""


def _task_worker_main(worker_id: int, executor: str, task_q, result_q) -> None:
    """Generic worker loop: resolve the executor, serve tasks forever.

    The executor is re-resolved from its module **per task**, not
    captured at spawn: fault injection (:mod:`repro.reliability.faults`)
    patches module attributes, and fork-started workers inherit the
    patched module — so a site armed around the executor fires inside
    workers exactly as it does inline.
    """
    mod_name, _, attr = executor.partition(":")
    while True:
        task = task_q.get()
        if task is None:
            return
        task_id, payload = task
        try:
            fn = getattr(importlib.import_module(mod_name), attr)
            result = fn(payload)
            status, error = "ok", None
        except BaseException as exc:  # ship the failure, keep serving
            result, status = None, "error"
            error = f"{type(exc).__name__}: {exc}"
        result_q.put((worker_id, task_id, status, result, error))


class TaskPool:
    """A fixed set of generic task workers with WorkerPool's failure model.

    Where :class:`WorkerPool` is specialised to ring slices, this pool
    runs arbitrary picklable payloads through one module-level executor
    (``"package.module:function"``) — the bulk builder's partition and
    wavelet tasks are its first client.  It keeps the battle-tested
    idioms of the slice pool:

    - **per-worker queue pairs** — a process killed mid-``get``/``put``
      can leave a queue's internal lock held forever, so queues are
      never shared and a respawned worker gets fresh ones;
    - **inline rescue** — tasks of a dead worker are re-executed in the
      calling process (through the same module attribute, so injected
      faults apply there too), never silently dropped;
    - **respawn after the batch** — the degraded batch ran
      short-handed; the next one is whole;
    - a ``_kill_after_dispatch`` test hook and the same counter set,
      so chaos drills can assert the rescue path deterministically.

    A task that *raises* (rather than dies) surfaces as
    :class:`TaskError` after the whole batch has settled — callers get
    deterministic all-or-error semantics, and file outputs written with
    ``"wb"`` truncation make re-execution idempotent.
    """

    def __init__(
        self,
        executor: str,
        workers: int = 2,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if ":" not in executor:
            raise ValueError("executor must be 'package.module:function'")
        method = start_method or os.environ.get(START_METHOD_ENV, "fork")
        self._ctx = mp.get_context(method)
        self._executor = executor
        self._result_qs = [self._ctx.Queue() for _ in range(workers)]
        self._task_qs = [self._ctx.Queue() for _ in range(workers)]
        self._procs: list = [None] * workers
        self._task_counter = itertools.count()
        self._counters = {
            "batches": 0,
            "dispatched": 0,
            "completed": 0,
            "respawns": 0,
            "serial_rescues": 0,
            "spawn_failures": 0,
        }
        #: Test/chaos hook: worker id to ``kill()`` right after dispatch.
        self._kill_after_dispatch: Optional[int] = None
        self._closed = False
        for wid in range(workers):
            self._try_spawn(wid)
        if not any(p is not None for p in self._procs):
            self.close()
            raise PoolUnavailable("no task worker could be spawned")

    # -- lifecycle -----------------------------------------------------------

    def _try_spawn(self, wid: int) -> None:
        try:
            proc = self._ctx.Process(
                target=_task_worker_main,
                args=(
                    wid,
                    self._executor,
                    self._task_qs[wid],
                    self._result_qs[wid],
                ),
                name=f"task-worker-{wid}",
                daemon=True,
            )
            proc.start()
            self._procs[wid] = proc
        except Exception:
            self._procs[wid] = None
            self._counters["spawn_failures"] += 1

    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def alive_workers(self) -> int:
        return sum(1 for p in self._procs if p is not None and p.is_alive())

    def close(self) -> None:
        """Stop every worker and release the queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for tq, proc in zip(self._task_qs, self._procs):
            if proc is not None and proc.is_alive():
                try:
                    tq.put_nowait(None)
                except Exception:
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for q in [*self._result_qs, *self._task_qs]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- execution -----------------------------------------------------------

    def _resolve(self):
        mod_name, _, attr = self._executor.partition(":")
        return getattr(importlib.import_module(mod_name), attr)

    def run(self, payloads: Sequence) -> list:
        """Execute one task per payload; results return in payload order.

        Dead workers' unfinished tasks are rescued inline; a task that
        raised (in a worker or during rescue) makes the whole call raise
        :class:`TaskError` — after every other task has settled, so
        callers never leave orphan work running.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        alive = [
            wid
            for wid, p in enumerate(self._procs)
            if p is not None and p.is_alive()
        ]
        if not alive:
            raise PoolUnavailable("no live workers")
        self._counters["batches"] += 1
        for rq in self._result_qs:  # stale results from a prior batch
            self._drain(rq)

        payloads = list(payloads)
        task_ids = [next(self._task_counter) for _ in payloads]
        index_of = {tid: i for i, tid in enumerate(task_ids)}
        assignment: dict[int, int] = {}
        for i, (tid, payload) in enumerate(zip(task_ids, payloads)):
            wid = alive[i % len(alive)]
            self._task_qs[wid].put((tid, payload))
            assignment[tid] = wid
            self._counters["dispatched"] += 1

        if self._kill_after_dispatch is not None:
            wid, self._kill_after_dispatch = self._kill_after_dispatch, None
            proc = self._procs[wid]
            if proc is not None:
                proc.kill()
                proc.join(timeout=1.0)

        results: dict[int, object] = {}
        errors: dict[int, str] = {}
        while len(results) < len(payloads):
            progressed = False
            for rq in list(self._result_qs):
                while True:
                    try:
                        msg = rq.get_nowait()
                    except (queue_mod.Empty, OSError, ValueError):
                        break
                    progressed = True
                    wid, tid, status, result, error = msg
                    if tid not in index_of or tid in results:
                        continue  # stale or already rescued
                    results[tid] = result
                    if status != "ok":
                        errors[tid] = error or "unknown worker error"
                    self._counters["completed"] += 1
            if len(results) >= len(payloads):
                break
            if not progressed:
                self._rescue_dead(assignment, results, errors, index_of, payloads)
                time.sleep(0.005)

        self._respawn_dead()
        if errors:
            tid = min(errors)  # deterministic: lowest task id first
            raise TaskError(
                f"task {index_of[tid]} failed: {errors[tid]}"
            )
        return [results[tid] for tid in task_ids]

    def _rescue_dead(self, assignment, results, errors, index_of, payloads):
        """Inline re-execution of unfinished tasks of dead workers."""
        fn = None
        for tid, wid in assignment.items():
            if tid in results:
                continue
            proc = self._procs[wid]
            if proc is not None and proc.is_alive():
                continue
            if fn is None:
                fn = self._resolve()
            try:
                results[tid] = fn(payloads[index_of[tid]])
            except BaseException as exc:
                results[tid] = None
                errors[tid] = f"{type(exc).__name__}: {exc}"
            self._counters["serial_rescues"] += 1

    def _respawn_dead(self) -> None:
        """Replace dead workers after the batch (fresh queues, same
        reasoning as :meth:`WorkerPool._respawn_dead`)."""
        for wid, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():
                continue
            if proc is not None:
                proc.join(timeout=0.5)
            for old in (self._task_qs[wid], self._result_qs[wid]):
                try:
                    old.close()
                    old.cancel_join_thread()
                except Exception:
                    pass
            self._task_qs[wid] = self._ctx.Queue()
            self._result_qs[wid] = self._ctx.Queue()
            self._try_spawn(wid)
            if self._procs[wid] is not None:
                self._counters["respawns"] += 1

    @staticmethod
    def _drain(q) -> None:
        while True:
            try:
                q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Pool telemetry: worker liveness plus the batch counters."""
        return {
            "workers": len(self._procs),
            "alive_workers": self.alive_workers,
            **self._counters,
        }
