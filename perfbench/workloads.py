"""The four workloads: what each builds, runs and checks.

Every workload is a closed loop from one client in one process.  Like
the paper's protocol, each has a fixed dataset: a synthetic graph and a
query log generated from :data:`DATASET_SEED`.  The run's seed draws the
traffic over it: the order the log is replayed in and, for
``rw-serve``, which triples are written.  A run measures whole passes
over its log, so two seeds measure the same queries and differ in order
and interleaving, not in which instances happened to be drawn.
``NOTES.md`` says why each workload exists and which layers it
exercises or bypasses.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterator, Optional

import numpy as np

from repro.bench.wgpb import generate_wgpb_queries
from repro.bench.workloads import generate_realworld_queries
from repro.cache import CachedQuerySystem
from repro.core.system import RingIndex
from repro.graph.bulkload import bulk_build
from repro.graph.generators import wikidata_like
from repro.parallel.system import ParallelRingIndex
from repro.reliability.broker import QueryBroker
from repro.reliability.wal import DurableDynamicRing
from repro.serving import coordinator as coordinator_module
from repro.serving.coordinator import ShardCoordinator
from repro.serving.sharding import ShardedRingIndex

from perfbench.measure import check_rows, row_multiset

#: The Table-1 protocol: every query runs with a result limit and a timeout.
LIMIT = 1000
#: Far above the slowest query seen at these sizes, so a timeout means a
#: regression, not noise; any timeout counts toward ``failed``.
TIMEOUT_S = 30.0
#: Seed of every workload's dataset (graph and query log).
DATASET_SEED = 0


def _triple_set(graph) -> set:
    return set(map(tuple, graph.triples.tolist()))


def _round_robin(by_shape: dict) -> list:
    """One query of every shape, then the next of every shape, ...: any
    prefix of the list keeps the 17-shape mix."""
    lists = [qs for qs in by_shape.values() if qs]
    out = []
    for i in range(max(len(qs) for qs in lists)):
        out.extend(qs[i] for qs in lists if i < len(qs))
    return out


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: Queries in the traced window (and its untraced twin).
    traced_queries = 100

    def sizes(self) -> dict:
        raise NotImplementedError

    def generate(self, seed: int):
        """Inputs from the seed (part of ``setup_s``)."""
        raise NotImplementedError

    def open(self, inputs, workdir: str, tracer=None):
        """Build and load the system (part of ``setup_s``).  With a
        tracer, wire the proxies that must exist before the system's
        own components capture their collaborators."""
        raise NotImplementedError

    def close(self, system) -> None:
        raise NotImplementedError

    def reference(self, inputs):
        """Oracle state, built once per run before the first set-up and
        outside every timing, from inputs of its own generation."""
        raise NotImplementedError

    def pass_ops(self, inputs) -> int:
        """Ops in one pass over the workload's log: a run measures whole
        passes, so every run sees the same mix."""
        raise NotImplementedError

    def ops(self, inputs, seed: int) -> Iterator[tuple]:
        """The op sequence: ``("query", bgp, key)`` with ``key`` the
        query's position in the log, or ``("insert"|"delete", t)``."""
        raise NotImplementedError

    def warm(self, system, inputs) -> None:
        """Untimed warm-up: page in the index, start lazy machinery."""

    def execute(self, system, op):
        raise NotImplementedError

    def check(self, system, ref, op, outcome) -> Optional[str]:
        raise NotImplementedError

    def rings(self, system) -> list:
        """The rings whose leap memos serve this workload's queries."""
        return []

    def bytes_per_triple(self, system) -> float:
        raise NotImplementedError

    def layer_snapshot(self, system) -> dict:
        return {}

    def layer_metrics(self, system, before: dict, window) -> dict:
        return {}

    def finish(self, system, ref) -> tuple[list[str], dict]:
        """End-of-run checks: ``(problems, extra_metrics)``."""
        return [], {}


# -- WGPB workloads -------------------------------------------------------------


class _WGPB(Workload):
    """WGPB shapes at limit 1000 against a static graph."""

    n_triples = 1000
    queries_per_shape = 5
    graph_options: dict = {}

    def sizes(self) -> dict:
        return {
            "n_triples": self.n_triples,
            "queries_per_shape": self.queries_per_shape,
            "shapes": 17,
            "limit": LIMIT,
            "timeout_s": TIMEOUT_S,
            **self.graph_options,
        }

    def generate(self, seed: int):
        graph = wikidata_like(self.n_triples, seed=DATASET_SEED, **self.graph_options)
        by_shape = generate_wgpb_queries(
            graph, self.queries_per_shape + 1, seed=DATASET_SEED
        )
        rng = np.random.default_rng(seed)
        log, warm = {}, []
        for shape, queries in by_shape.items():
            if queries:
                warm.append(queries[-1])
                log[shape] = [queries[i] for i in rng.permutation(len(queries) - 1)]
        return {"graph": graph, "queries": _round_robin(log), "warm": warm}

    def reference(self, inputs):
        """The triple set, and each logged query's row count and serial
        time on a bare in-memory ring.  The ring is dropped here, so it
        is not resident while the system runs."""
        index = RingIndex(inputs["graph"])
        expected = []
        for bgp in inputs["queries"]:
            start = time.perf_counter()
            rows = len(index.evaluate(bgp, limit=LIMIT))
            expected.append((rows, time.perf_counter() - start))
        return {"triples": _triple_set(inputs["graph"]), "expected": expected}

    def pass_ops(self, inputs) -> int:
        return len(inputs["queries"])

    def ops(self, inputs, seed: int):
        queries = inputs["queries"]
        i = 0
        while True:
            key = i % len(queries)
            yield ("query", queries[key], key)
            i += 1

    def warm(self, system, inputs) -> None:
        deadline = time.perf_counter() + 2.0
        for bgp in inputs["warm"]:
            if time.perf_counter() > deadline:
                break
            self.execute(system, ("query", bgp))

    def execute(self, system, op):
        return system["index"].evaluate(op[1], limit=LIMIT, timeout=TIMEOUT_S)

    def check(self, system, ref, op, outcome) -> Optional[str]:
        _kind, bgp, key = op
        problem = check_rows(bgp, outcome, ref["triples"], LIMIT)
        if problem is not None:
            return problem
        expected = ref["expected"][key][0]
        if len(outcome) != expected:
            return f"{len(outcome)} rows, reference has {expected}"
        return None

    def bytes_per_triple(self, system) -> float:
        return system["index"].bytes_per_triple()


class _PackBacked(_WGPB):
    """Built with the streaming bulk loader into a frozen pack, then
    opened memory-mapped."""

    def _load(self, path: str):
        raise NotImplementedError

    def open(self, inputs, workdir: str, tracer=None):
        path = os.path.join(workdir, "graph.ring")
        start = time.perf_counter()
        bulk_build(inputs["graph"], path)
        built = time.perf_counter()
        index = self._load(path)
        loaded = time.perf_counter()
        return {"index": index, "build_s": built - start, "load_s": loaded - built}

    def rings(self, system) -> list:
        return [system["index"].ring]

    def layer_metrics(self, system, before, window) -> dict:
        return {"graph.bulkload.build_s": system["build_s"],
                "core.frozen.load_s": system["load_s"]}


class WgpbRing(_PackBacked):
    name = "wgpb-ring"

    def _load(self, path):
        return RingIndex.load(path, mmap=True)

    def close(self, system) -> None:
        pass


class WgpbParallel(_PackBacked):
    name = "wgpb-parallel"
    n_triples = 700
    queries_per_shape = 4
    workers = 2

    def sizes(self) -> dict:
        return {**super().sizes(), "workers": self.workers}

    def _load(self, path):
        return ParallelRingIndex.load(path, mmap=True, workers=self.workers)

    def close(self, system) -> None:
        system["index"].close()

    def layer_snapshot(self, system) -> dict:
        return system["index"].pool_stats()

    def layer_metrics(self, system, before, window) -> dict:
        after = system["index"].pool_stats()
        busy = sum(after.get("busy_seconds", [])) - sum(before.get("busy_seconds", []))
        queries = max(window.queries, 1)
        expected = window.ref_state["expected"]
        serial = sum(expected[key][1] for key in window.query_keys) or 1e-9
        return {
            **super().layer_metrics(system, before, window),
            "parallel.busy_s": busy,
            "parallel.slices_per_query":
                (after.get("dispatched", 0) - before.get("dispatched", 0)) / queries,
            "parallel.busy_over_serial": busy / serial,
            "parallel.rescues":
                after.get("serial_rescues", 0) - before.get("serial_rescues", 0),
        }


class _EndpointProxy:
    """Times one shard endpoint from the coordinator's side: each
    dispatch from ``submit`` to its future's completion."""

    def __init__(self, inner, tracer, tally: dict) -> None:
        self._inner = inner
        self._tracer = tracer
        self._tally = tally

    def submit(self, query, **kwargs):
        start = time.perf_counter()
        future = self._inner.submit(query, **kwargs)
        tracer, tally = self._tracer, self._tally

        def done(fut) -> None:
            tracer.record("serving.endpoint", start, time.perf_counter())
            if tracer.enabled and not fut.cancelled() and fut.exception() is None:
                with tally["lock"]:
                    tally["gathered"] += len(fut.result())

        future.add_done_callback(done)
        return future

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ShardJoin(_WGPB):
    name = "shard-join"
    n_triples = 400
    queries_per_shape = 5
    n_shards = 4
    # Flatter node degrees than the default keep the coordinator's
    # full (unlimited) local join under a second per query.
    graph_options = {"node_exponent": 0.3}

    def sizes(self) -> dict:
        return {**super().sizes(), "shards": self.n_shards}

    def open(self, inputs, workdir: str, tracer=None):
        shards = ShardedRingIndex.from_graph(inputs["graph"], self.n_shards)
        system = {"shards": shards, "index": ShardCoordinator(shards)}
        if tracer is not None:
            tally = {"lock": threading.Lock(), "gathered": 0}
            shards.endpoints[:] = [
                _EndpointProxy(ep, tracer, tally) for ep in shards.endpoints
            ]
            system["tally"] = tally
        return system

    def close(self, system) -> None:
        system["shards"].shutdown(checkpoint=False)

    def rings(self, system) -> list:
        return [r for ep in system["shards"].endpoints
                for r in ep.engine.snapshot().rings]

    def bytes_per_triple(self, system) -> float:
        bits = sum(ep.engine.size_in_bits() for ep in system["shards"].endpoints)
        return bits / 8 / max(system["shards"].n_triples, 1)

    def layer_snapshot(self, system) -> dict:
        return dict(system["index"].stats())

    def layer_metrics(self, system, before, window) -> dict:
        after = system["index"].stats()
        tally = system.get("tally", {"gathered": 0})
        return {
            "serving.coordinator.gathered_triples_per_row":
                tally["gathered"] / max(window.rows, 1),
            "serving.coordinator.retries": after["retries"] - before["retries"],
        }

    @staticmethod
    def class_patches(tracer) -> None:
        tracer.patch(ShardCoordinator, "evaluate", "serving.coordinator", span=True)
        tracer.patch(ShardCoordinator, "_local_join", "serving.local_join", span=True)
        tracer.patch(coordinator_module, "gather_block", "serving.gather_wait", span=True)


# -- read/write serving ---------------------------------------------------------------


class _StoreProxy:
    """The inner engine handed to CachedQuerySystem: times its
    evaluations and forwards everything else (including the private
    attributes the cache uses to find the LTJ engine)."""

    def __init__(self, inner, tracer) -> None:
        self._inner = inner
        self.evaluate = tracer.wrap("cache.inner", inner.evaluate, span=True)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class RwServe(Workload):
    name = "rw-serve"
    n_triples = 4000
    n_pool = 200
    zipf = 2.0
    # Enough writes (~22) for a buffer freeze and a tombstone compaction.
    traced_queries = 200
    write_share = 0.1
    #: Ops per replay of the traffic log (about one run's worth).
    log_ops = 110
    buffer_threshold = 8
    broker_workers = 2
    #: Every k-th query is re-run on the uncached store.
    recheck_every = 5

    def sizes(self) -> dict:
        return {
            "n_triples": self.n_triples, "query_pool": self.n_pool,
            "zipf_exponent": self.zipf, "write_share": self.write_share,
            "log_ops": self.log_ops,
            "buffer_threshold": self.buffer_threshold,
            "broker_workers": self.broker_workers, "limit": LIMIT,
            "timeout_s": TIMEOUT_S, "recheck_every": self.recheck_every,
        }

    def generate(self, seed: int):
        graph = wikidata_like(self.n_triples, seed=DATASET_SEED)
        pool = generate_realworld_queries(graph, self.n_pool, seed=DATASET_SEED)
        return {"graph": graph, "pool": pool}

    def open(self, inputs, workdir: str, tracer=None):
        store = DurableDynamicRing.create(
            os.path.join(workdir, "store"), inputs["graph"],
            buffer_threshold=self.buffer_threshold,
        )
        engine = store if tracer is None else _StoreProxy(store, tracer)
        cached = CachedQuerySystem(engine)
        system = {"store": store, "dir": store.directory,
                  "components_max": store.n_components}
        if tracer is not None:
            evaluate = tracer.wrap("cache", cached.evaluate, span=True)

            def timed_evaluate(query, **kwargs):
                submitted = system.get("submitted_at")
                if submitted is not None:
                    tracer.record("broker.queue_wait", submitted, time.perf_counter())
                    system["submitted_at"] = None
                return evaluate(query, **kwargs)

            cached.evaluate = timed_evaluate
            cached.cache_probe = tracer.wrap("cache", cached.cache_probe, span=True)
        # The broker captures cache_probe here: wrap before this line.
        system["broker"] = QueryBroker(cached, workers=self.broker_workers).start()
        return system

    def close(self, system) -> None:
        system["broker"].stop()
        system["store"].close(checkpoint=False)

    def reference(self, inputs):
        return {"model": _triple_set(inputs["graph"]), "queries": 0}

    def pass_ops(self, inputs) -> int:
        return self.log_ops

    def ops(self, inputs, seed: int):
        """Replays of a fixed traffic log in seeded, evenly spread orders.

        The log holds ``log_ops`` ops: Zipf-weighted query repeats
        (largest-remainder rounding) and ``write_share`` writes that
        alternate insert and delete.  Each replay spreads the ``c``
        occurrences of an entry evenly, at positions ``(k + u) / c`` with
        a seeded offset ``u``, so every prefix of a replay keeps the log's
        mix; a uniform shuffle let the prefix a run reached decide how
        many slow queries it saw.  The seed also picks the inserted
        triples and the deleted victims.
        """
        graph = inputs["graph"]
        rng = np.random.default_rng(seed)
        n_writes = round(self.log_ops * self.write_share)
        n_queries = self.log_ops - n_writes
        weights = 1.0 / np.arange(1, self.n_pool + 1) ** self.zipf
        share = weights / weights.sum() * n_queries
        counts = np.floor(share).astype(int)
        for i in np.argsort(counts - share)[: n_queries - counts.sum()]:
            counts[i] += 1
        entries = [(q, int(c)) for q, c in enumerate(counts) if c] + [(-1, n_writes)]
        live = sorted(_triple_set(graph))
        where = {t: i for i, t in enumerate(live)}
        inserting = True
        while True:
            offsets = rng.random(len(entries))
            replay = sorted(
                ((k + u) / c, q)
                for (q, c), u in zip(entries, offsets) for k in range(c)
            )
            for _position, q in replay:
                if q >= 0:
                    yield ("query", inputs["pool"][q], q)
                    continue
                if not inserting and live:
                    i = int(rng.integers(len(live)))
                    victim, last = live[i], live[-1]
                    live[i] = last
                    where[last] = i
                    live.pop()
                    del where[victim]
                    yield ("delete", victim)
                else:
                    t = (int(rng.integers(graph.n_nodes)),
                         int(rng.integers(graph.n_predicates)),
                         int(rng.integers(graph.n_nodes)))
                    if t not in where:
                        where[t] = len(live)
                        live.append(t)
                    yield ("insert", t)
                inserting = not inserting

    def warm(self, system, inputs) -> None:
        for bgp in inputs["pool"][:5]:
            system["broker"].evaluate(bgp, limit=LIMIT, timeout=TIMEOUT_S)

    def execute(self, system, op):
        kind = op[0]
        store = system["store"]
        if kind == "query":
            system["submitted_at"] = time.perf_counter()
            out = system["broker"].evaluate(op[1], limit=LIMIT, timeout=TIMEOUT_S)
        elif kind == "insert":
            out = store.insert(*op[1])
        else:
            out = store.delete(*op[1])
        system["components_max"] = max(system["components_max"], store.n_components)
        return out

    def check(self, system, ref, op, outcome) -> Optional[str]:
        kind, arg = op[0], op[1]
        model = ref["model"]
        if kind == "insert":
            if outcome != (arg not in model):
                return f"insert {arg} acked {outcome}"
            model.add(arg)
            return None
        if kind == "delete":
            if outcome != (arg in model):
                return f"delete {arg} acked {outcome}"
            model.discard(arg)
            return None
        problem = check_rows(arg, outcome, model, LIMIT)
        if problem is not None:
            return problem
        ref["queries"] += 1
        if ref["queries"] % self.recheck_every == 0:
            store = system["store"]
            generation = store.cache_generation()
            fresh = store.evaluate(arg, limit=LIMIT, timeout=TIMEOUT_S)
            if store.cache_generation() == generation and (
                row_multiset(arg, fresh) != row_multiset(arg, outcome)
            ):
                return "served answer differs from the uncached store"
        return None

    def rings(self, system) -> list:
        return list(system["store"].index.snapshot().rings)

    def bytes_per_triple(self, system) -> float:
        store = system["store"]
        return store.size_in_bits() / 8 / max(store.n_triples, 1)

    def layer_snapshot(self, system) -> dict:
        return system["broker"].stats()

    def layer_metrics(self, system, before, window) -> dict:
        after = system["broker"].stats()
        results = after["cache"]["results"]
        base = before["cache"]["results"]
        hits = results["hits"] - base["hits"]
        misses = results["misses"] - base["misses"]
        planner = after["cache"].get("planner", {})
        planner0 = before["cache"].get("planner", {})
        p_hits = planner.get("hits", 0) - planner0.get("hits", 0)
        p_miss = planner.get("misses", 0) - planner0.get("misses", 0)
        return {
            "cache.hit_ratio": hits / max(hits + misses, 1),
            "cache.invalidated": results["invalidated"] - base["invalidated"],
            "cache.planner_hit_ratio": p_hits / max(p_hits + p_miss, 1),
            "reliability.broker.rejected": after["rejected"] - before["rejected"],
            "core.dynamic.components_max": system["components_max"],
        }

    def finish(self, system, ref) -> tuple[list[str], dict]:
        """Crash and recover: drop the store without a final checkpoint,
        recover from disk, and compare with the acknowledged writes."""
        system["broker"].stop()
        system["store"].close(checkpoint=False)
        start = time.perf_counter()
        recovered, _report = DurableDynamicRing.recover(system["dir"])
        recover_s = time.perf_counter() - start
        try:
            live = _triple_set(recovered.to_graph())
        finally:
            recovered.close(checkpoint=False)
        problems = []
        if live != ref["model"]:
            problems.append(
                f"recovered {len(live)} triples, {len(live ^ ref['model'])} "
                "differ from the acknowledged writes"
            )
        return problems, {"reliability.wal.recover_s": recover_s}


WORKLOADS = {w.name: w for w in (WgpbRing(), WgpbParallel(), ShardJoin(), RwServe())}

