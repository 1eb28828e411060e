"""The three closed-loop workloads of the admission-path benchmark.

Each workload is one caller driving a :class:`PlacementBackend` through
its public API on the simulated (manual) clock, one operation at a time:
the next request goes out only after the previous reply.  Inputs come
from ``--seed``; the platform (topology) and the set-up are fixed, so
two seeds differ only in the timed request stream.  Every run attempts
whole rounds of the same operations, and the simulated clock moves by
exact binary fractions, so the program makes identical decisions on
every run with one seed and only its speed varies.

- ``service-churn``: one :class:`SelectionService` over ~1000 hosts;
  the selection kernel and route lookups dominate.
- ``router-durable``: an in-process :class:`ShardRouter` with the WAL
  on; local jobs answered by the selection memo, 1 job in 5 cross-shard
  with a trunk claim, and a simulated mid-commit crash and rebuild at
  the end of every round.
- ``process-batch``: ``ShardRouter(executor="process")`` fed
  ``admit_batch`` waves; worker RPC dominates.
"""

from __future__ import annotations

import gc
import os
import shutil
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from oracles import (
    ClientRecord,
    Told,
    TreeRoutes,
    drained_problems,
    expiry_problems,
    objective_problem,
    recovery_problems,
    reference_objective,
    replay_capacity,
    residual_from_claims,
)
from repro.core import ApplicationSpec, NoFeasibleSelection
from repro.service import BatchRequest, SelectionService
from repro.service.sharding import ShardRouter
from repro.topology import random_tree
from repro.units import Mbps


def platform(hosts: int, *, min_mbps: float, seed: int = 0):
    """A contended random tree: ``hosts`` compute nodes under
    ``hosts // 5`` switches, link availability uniform in
    ``[min_mbps, 100]`` Mbps per direction, host load in ``[0, 0.5]``."""
    rng = np.random.default_rng(seed)
    g = random_tree(hosts, max(1, hosts // 5), rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(min_mbps, 100)) * Mbps
        link.available_rev = float(rng.uniform(min_mbps, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


@dataclass
class Measure:
    """What the loop measured (seconds) and the operation counts."""

    request_s: list = field(default_factory=list)
    release_s: list = field(default_factory=list)
    cross_s: list = field(default_factory=list)
    batch_s: list = field(default_factory=list)
    recovery_s: list = field(default_factory=list)
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    #: Oracle violations (any entry makes the run incorrect).
    problems: list = field(default_factory=list)
    #: Request rate of each round (requests per second).
    round_rates: list = field(default_factory=list)
    #: Time the benchmark's own checks took inside rounds; the round
    #: clock leaves it out.
    aside_s: float = 0.0

    @contextmanager
    def aside(self):
        """Time a block of the benchmark's own work, not the program's."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.aside_s += perf_counter() - t0


class SimulatedCrash(Exception):
    """Raised from inside ``TrunkLedger.reserve`` to model the router
    process dying mid-commit."""


def _crash(*_args, **_kwargs):
    raise SimulatedCrash("router died inside TrunkLedger.reserve")


def service_counters(snap: dict, dump: dict) -> dict:
    """Per-service program counters from ``metrics_snapshot()`` and the
    registry dump (summed across shards by the caller)."""
    stages = snap.get("stages", {})
    return {
        "memo_hits": snap["select_memo_hits"],
        "select_attempts": stages.get("select", {}).get("count", 0),
        "sweeps": snap.get("snapshot_sweeps", 0),
        "view_rebuilds": snap["view_rebuilds"],
        "route_misses": dump.get("repro_kernel_route_cache_misses_total", 0.0),
        "schedule_builds": dump.get(
            "repro_kernel_peel_schedule_builds_total", 0.0),
        "stage_s": sum(
            s["count"] * s["mean_us"] for s in stages.values()) * 1e-6,
        "routed_cross": snap["routed_cross"],
    }


def add_counters(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def _local_counters(services) -> dict:
    total: dict = {}
    for svc in services:
        total = add_counters(
            total, service_counters(svc.metrics_snapshot(), svc.registry.dump())
        )
    return total


#: Seed-sequence entropy of the set-up draws (no ``--seed`` is this large).
SETUP_KEY = 2**63


class Workload:
    """Shared set-up/teardown protocol; subclasses define the rounds."""

    name = ""
    #: Fixed platform; the seed shapes only the request stream.
    TOPO_SEED = 0
    #: Set during traced rounds: harvest the counters of a backend
    #: before abandoning it, so per-layer deltas survive a restart.
    keep_counters = False

    def __init__(self, seed: int, state_root: str) -> None:
        self.seed = int(seed)
        self.state_root = state_root
        self.graph = self.build_graph()
        self.routes: Optional[TreeRoutes] = None

    def build_graph(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    @staticmethod
    def setup_rng(*key) -> np.random.Generator:
        """Draws for the set-up.  They do not depend on the seed, so every
        run sets up the same state and ``setup_s`` times the same work."""
        return np.random.default_rng([SETUP_KEY, *key])

    def setup(self, m: Measure):  # pragma: no cover - abstract
        raise NotImplementedError

    def round(self, st, m: Measure) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def teardown(self, st) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self, st, m: Measure) -> None:
        """Release everything, run the oracles, stop the backend."""
        raise NotImplementedError  # pragma: no cover - abstract

    def counters(self, st) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def worker_pids(self, st) -> list[int]:
        return []

    def check_capacity(self, st, m: Measure, on_grant=None) -> None:
        if self.routes is None:
            self.routes = TreeRoutes(self.graph)
        m.problems += replay_capacity(
            st.record, self.graph, self.routes, on_grant=on_grant
        )


# -- service-churn ------------------------------------------------------------


@dataclass
class _ChurnState:
    svc: SelectionService
    record: ClientRecord = field(default_factory=ClientRecord)
    now: float = 0.0
    round: int = 0
    window: deque = field(default_factory=deque)
    lapsing: dict = field(default_factory=dict)
    #: ``record index -> (app, granted objective)`` checked by the
    #: reference oracle after the loop.
    samples: dict = field(default_factory=dict)


class ServiceChurn(Workload):
    name = "service-churn"
    HOSTS = 1000
    ROUND = 16             # requests per round
    FILL_ROUNDS = 4        # set-up rounds: fill the lease window
    WINDOW = 48            # explicitly released leases kept live
    DT = 0.25              # simulated seconds between requests (exact)
    LEASE = 30.0           # lease length (120 requests)
    TTL = 16.0             # snapshot TTL (a sweep every 64 requests)
    #: Bandwidth tenants per round.  Fewer than half, so the median
    #: request sits inside the CPU-only mode instead of on the gap
    #: between the two modes, where it would jump from run to run.
    BW_POSITIONS = frozenset({0, 3, 6, 9, 12, 13})
    #: Objective-oracle samples: the first bandwidth tenant of every
    #: third round (up to this many) and the first CPU-only tenant of
    #: the first timed round (the CPU reference costs seconds per call).
    BW_SAMPLES = 12

    def build_graph(self):
        return platform(self.HOSTS, min_mbps=5, seed=self.TOPO_SEED)

    def stream(self, rnd: int) -> list[tuple]:
        """Round ``rnd``: 16 tenants, four each of 3, 4, 5 and 6 nodes in
        a seeded order; positions 0, 3, 6, 9, 12 and 13 claim bandwidth
        (6 of 16), the rest CPU only; positions 7 and 15 are left to
        expire.  Claim sizes are seeded; the set-up rounds' are fixed."""
        rng = self.rng(rnd) if rnd >= self.FILL_ROUNDS else self.setup_rng(rnd)
        sizes = rng.permutation([3, 4, 5, 6] * 4)
        out = []
        for i in range(self.ROUND):
            if i in self.BW_POSITIONS:
                cpu = float(rng.uniform(0.02, 0.06))
                bw = float(rng.uniform(0.5, 2.0)) * Mbps
            else:
                cpu = float(rng.uniform(0.03, 0.10))
                bw = 0.0
            out.append((f"t{rnd}-{i}", ApplicationSpec(num_nodes=int(sizes[i])),
                        cpu, bw, i % 8 == 7))
        return out

    def setup(self, m: Measure) -> _ChurnState:
        st = _ChurnState(svc=SelectionService(
            self.graph, snapshot_ttl=self.TTL, lease_s=self.LEASE,
            queue_limit=0,
        ))
        for _ in range(self.FILL_ROUNDS):
            self.round(st, m)
        return st

    def _sample(self, st: _ChurnState, i: int, bw: float) -> bool:
        timed = st.round - self.FILL_ROUNDS
        if timed < 0:
            return False
        if bw > 0:
            return i == 0 and timed % 3 == 0 and timed // 3 < self.BW_SAMPLES
        return i == 1 and timed == 0

    def round(self, st: _ChurnState, m: Measure) -> None:
        svc = st.svc
        for i, (app, spec, cpu, bw, lapse) in enumerate(self.stream(st.round)):
            t0 = perf_counter()
            grant = svc.request(app, spec, cpu_fraction=cpu, bw_bps=bw)
            m.request_s.append(perf_counter() - t0)
            m.requests += 1
            m.attempted += 1
            if not grant.admitted:
                m.failed += 1
            else:
                idx = st.record.grant(Told(
                    app, tuple(grant.selection.nodes), cpu, bw,
                    st.now + self.LEASE,
                ))
                if self._sample(st, i, bw):
                    st.samples[idx] = (app, grant.selection.objective)
                if lapse:
                    st.lapsing[app] = st.now + self.LEASE
                else:
                    st.window.append(app)
            if len(st.window) > self.WINDOW:
                old = st.window.popleft()
                t0 = perf_counter()
                svc.release(old)
                m.release_s.append(perf_counter() - t0)
                m.attempted += 1
                st.record.release(old)
            svc.advance(self.DT)
            st.now += self.DT
            with m.aside():
                self._check_expiry(st, m)
        st.round += 1

    def _check_expiry(self, st: _ChurnState, m: Measure) -> None:
        live = st.record.live
        problems = expiry_problems(
            st.now, {a: t.expires_at for a, t in live.items()},
            st.svc.active_apps(),
        )
        if problems:
            m.problems += problems
        for app in [a for a, t in st.lapsing.items() if t <= st.now]:
            del st.lapsing[app]
            st.record.release(app)

    def teardown(self, st: _ChurnState) -> None:
        st.svc.close()

    def counters(self, st: _ChurnState) -> dict:
        return _local_counters([st.svc])

    def finish(self, st: _ChurnState, m: Measure) -> None:
        svc = st.svc
        for app in list(st.record.live):
            svc.release(app)
            st.record.release(app)
        m.problems += drained_problems(
            svc.ledger.active, svc.ledger.node_claims(),
            svc.ledger.edge_claims(), {},
        )
        svc.check_invariants()
        svc.close()

        def on_grant(index, told, node_claims, edge_claims):
            sample = st.samples.get(index)
            if sample is None:
                return
            app, granted = sample
            residual = residual_from_claims(self.graph, node_claims, edge_claims)
            try:
                ref = reference_objective(
                    residual, len(told.nodes), told.cpu, told.bw)
            except NoFeasibleSelection as exc:
                m.problems.append(f"{app}: reference failed: {exc}")
                return
            problem = objective_problem(app, granted, ref)
            if problem:
                m.problems.append(problem)

        self.check_capacity(st, m, on_grant=on_grant)


# -- router-durable -----------------------------------------------------------


@dataclass
class _DurableState:
    router: Optional[ShardRouter]
    state_dir: str
    record: ClientRecord = field(default_factory=ClientRecord)
    now: float = 0.0
    round: int = 0
    #: Standing composites: ``app -> (spec, cpu, bw, spread)``.
    standing: dict = field(default_factory=dict)
    #: What each standing client was told, as the recovery oracle's tuple.
    told: dict = field(default_factory=dict)
    #: Counters of routers abandoned mid-run (traced runs only).
    retired: dict = field(default_factory=dict)


def _trunk_claims(grant) -> frozenset:
    t = grant.trunk
    return frozenset((e, t.bw_bps) for e in t.edges) if t is not None else frozenset()


class RouterDurable(Workload):
    name = "router-durable"
    HOSTS = 2000
    SHARDS = 4
    ROUND_JOBS = 200
    CROSS_EVERY = 5        # job j is cross-shard when j % 5 == 4
    DT = 0.0625            # simulated seconds per job (exact)
    LEASE = 60.0           # standing leases are renewed every round
    TTL = 1e6              # no snapshot refresh: the memo stays warm
    STANDING_LOCAL = 96
    STANDING_CROSS = 12
    #: Local job shapes, one block of 8 per 10 jobs: 6 without and 2 with
    #: a bandwidth claim, so the median release and request sit inside
    #: the no-bandwidth mode, clear of the gap between modes.
    LOCAL_SHAPES = (
        (3, 0.04, 0.0), (3, 0.04, 0.0), (3, 0.04, 0.0),
        (5, 0.02, 0.0), (5, 0.02, 0.0), (5, 0.02, 0.0),
        (4, 0.03, 0.5 * Mbps), (2, 0.05, 0.3 * Mbps),
    )
    CROSS_SHAPES = ((4, 0.03, 0.4 * Mbps), (6, 0.02, 0.3 * Mbps))
    SPECS = {mm: ApplicationSpec(num_nodes=mm) for mm in range(1, 8)}
    #: The crash job does not depend on the seed.
    CRASH_SHAPE = (4, 0.03, 0.4 * Mbps)

    def build_graph(self):
        return platform(self.HOSTS, min_mbps=20, seed=self.TOPO_SEED)

    def _router(self, state_dir: str) -> ShardRouter:
        return ShardRouter(
            self.graph, shards=self.SHARDS, state_dir=state_dir,
            snapshot_ttl=self.TTL, lease_s=self.LEASE,
        )

    def _fresh_dir(self) -> str:
        n = 0
        while os.path.exists(os.path.join(self.state_root, f"durable-{n}")):
            n += 1
        path = os.path.join(self.state_root, f"durable-{n}")
        os.makedirs(path)
        return path

    def setup(self, m: Measure) -> _DurableState:
        state_dir = self._fresh_dir()
        st = _DurableState(router=self._router(state_dir), state_dir=state_dir)
        rng = self.setup_rng()  # the standing population
        for i in range(self.STANDING_LOCAL + self.STANDING_CROSS):
            if i < self.STANDING_LOCAL:
                mm = int(rng.integers(2, 6))
                cpu = float(rng.uniform(0.02, 0.05))
                bw = float(rng.uniform(0.2, 0.6)) * Mbps if i % 2 == 0 else 0.0
                spread = 1
            else:
                mm, cpu, spread = 4, 0.03, 2
                bw = float(rng.uniform(0.2, 0.5)) * Mbps
            app = f"s{i}"
            spec = ApplicationSpec(num_nodes=mm)
            grant = st.router.request(
                app, spec, cpu_fraction=cpu, bw_bps=bw, spread=spread)
            m.attempted += 1
            if not grant.admitted:
                m.failed += 1
                continue
            st.record.grant(Told(app, tuple(grant.selection.nodes), cpu, bw,
                                 self.LEASE, _trunk_claims(grant)))
            st.standing[app] = (spec, cpu, bw, spread)
            st.told[app] = (frozenset(grant.selection.nodes), cpu, bw,
                            _trunk_claims(grant))
        return st

    def round(self, st: _DurableState, m: Measure) -> None:
        r = st.router
        for app in st.standing:
            r.renew(app)
            m.attempted += 1
        rng = self.rng(st.round)
        n_cross = self.ROUND_JOBS // self.CROSS_EVERY
        n_local = self.ROUND_JOBS - n_cross
        local = iter(rng.permutation(
            np.resize(np.arange(len(self.LOCAL_SHAPES)), n_local)))
        cross_picks = iter(rng.permutation(
            np.resize(np.arange(len(self.CROSS_SHAPES)), n_cross)))
        specs = self.SPECS
        for j in range(self.ROUND_JOBS):
            app = f"j{st.round}-{j}"
            cross = j % self.CROSS_EVERY == self.CROSS_EVERY - 1
            if cross:
                mm, cpu, bw = self.CROSS_SHAPES[int(next(cross_picks))]
            else:
                mm, cpu, bw = self.LOCAL_SHAPES[int(next(local))]
            t0 = perf_counter()
            grant = r.request(app, specs[mm], cpu_fraction=cpu, bw_bps=bw,
                              spread=2 if cross else 1)
            dt = perf_counter() - t0
            m.request_s.append(dt)
            if cross:
                m.cross_s.append(dt)
            m.requests += 1
            m.attempted += 1
            if not grant.admitted:
                m.failed += 1
            else:
                st.record.grant(Told(app, tuple(grant.selection.nodes), cpu,
                                     bw, 0.0))
                t0 = perf_counter()
                r.release(app)
                m.release_s.append(perf_counter() - t0)
                m.attempted += 1
                st.record.release(app)
            r.advance(self.DT)
            st.now += self.DT
        self._crash_and_recover(st, m)
        st.round += 1

    def _crash_and_recover(self, st: _DurableState, m: Measure) -> None:
        """The named fault: the router dies inside ``TrunkLedger.reserve``
        after the shard sub-grants of a cross-shard commit; the client is
        told nothing.  Rebuild from the state dir and compare."""
        app = f"crash-{st.round}"
        mm, cpu, bw = self.CRASH_SHAPE
        r = st.router
        r.trunk.reserve = _crash
        m.attempted += 1
        try:
            r.request(app, self.SPECS[mm], cpu_fraction=cpu, bw_bps=bw,
                      spread=2)
        except SimulatedCrash:
            pass
        else:
            m.problems.append(f"{app}: the injected crash did not fire")
        with m.aside():
            if self.keep_counters:
                st.retired = add_counters(st.retired, self.counters(st))
            st.router = r = None
            gc.collect()  # the abandoned router's WAL files close here
        t0 = perf_counter()
        r = self._router(st.state_dir)
        if r.now < st.now:
            r.advance(st.now - r.now)
        m.recovery_s.append(perf_counter() - t0)
        st.router = r
        with m.aside():
            recovered = self._recovered(r)
            problems = recovery_problems(st.told, recovered)
        if app in recovered:
            # The fault shows: the client was told nothing, yet the
            # composite came back admitted.  Count it, then release it
            # so later rounds start from what clients were told.
            m.failed += 1
            r.release(app)
            with m.aside():
                problems = recovery_problems(st.told, self._recovered(r))
        m.problems += problems
        if r.now != st.now:
            m.problems.append(f"rebuilt router clock {r.now!r} != {st.now!r}")

    @staticmethod
    def _recovered(r: ShardRouter) -> dict:
        out = {}
        for app in r.active_apps():
            grant = r.status(app)
            subs = [
                r.services[shard].ledger.reservations[sub]
                for shard, sub in grant.parts.items()
            ]
            cpus = {res.cpu_fraction for res in subs}
            bws = {res.bw_bps for res in subs}
            out[app] = (
                frozenset(grant.selection.nodes),
                cpus.pop() if len(cpus) == 1 else tuple(sorted(cpus)),
                bws.pop() if len(bws) == 1 else tuple(sorted(bws)),
                _trunk_claims(grant),
            )
        return out

    def teardown(self, st: _DurableState) -> None:
        if st.router is not None:
            st.router.close()
        shutil.rmtree(st.state_dir, ignore_errors=True)

    def counters(self, st: _DurableState) -> dict:
        c = _local_counters(st.router.services)
        c["routed_cross"] = st.router.metrics.routed_cross
        return c

    def finish(self, st: _DurableState, m: Measure) -> None:
        r = st.router
        for app in list(st.standing):
            r.release(app)
            st.record.release(app)
        services = r.services
        node_claims = {}
        edge_claims = {}
        for svc in services:
            node_claims.update(svc.ledger.node_claims())
            edge_claims.update(svc.ledger.edge_claims())
        m.problems += drained_problems(
            sum(svc.ledger.active for svc in services) + r.trunk.active,
            node_claims, edge_claims, r.trunk.edge_claims(),
        )
        r.check_invariants()
        self.teardown(st)
        self.check_capacity(st, m)


# -- process-batch ------------------------------------------------------------


@dataclass
class _BatchState:
    router: ShardRouter
    record: ClientRecord = field(default_factory=ClientRecord)
    round: int = 0
    window: deque = field(default_factory=deque)


class ProcessBatch(Workload):
    name = "process-batch"
    HOSTS = 2000
    SHARDS = 4
    WORKERS = 2
    WAVE = 16
    WINDOW_WAVES = 4       # waves kept live; the oldest is released
    SETUP_WAVES = 12       # set-up: fill the window, then warm up
    TTL = 1e6
    LEASE = 1e9

    def __init__(self, seed: int, state_root: str) -> None:
        super().__init__(seed, state_root)
        #: The caller's CPUs before any pinning; set-up pins from this
        #: set and teardown gives the caller all of it back, so workers
        #: forked by a later set-up are not confined to one CPU.
        self.cpus = sorted(os.sched_getaffinity(0))

    def build_graph(self):
        return platform(self.HOSTS, min_mbps=20, seed=self.TOPO_SEED)

    def wave(self, rnd: int) -> list[BatchRequest]:
        """16 tenants: node counts 2-6 (three of each, one extra 4) in a
        seeded order; 6 of 16 claim bandwidth.  Claim sizes are seeded;
        the set-up waves' are fixed."""
        rng = self.rng(rnd) if rnd >= self.SETUP_WAVES else self.setup_rng(rnd)
        sizes = rng.permutation([2, 3, 4, 5, 6] * 3 + [4])
        out = []
        for i in range(self.WAVE):
            cpu = float(rng.uniform(0.02, 0.06))
            bw = float(rng.uniform(0.3, 1.0)) * Mbps if i % 8 in (0, 3, 6) else 0.0
            out.append(BatchRequest(
                app_id=f"b{rnd}-{i}",
                spec=ApplicationSpec(num_nodes=int(sizes[i])),
                cpu_fraction=cpu, bw_bps=bw,
            ))
        return out

    def setup(self, m: Measure) -> _BatchState:
        st = _BatchState(router=ShardRouter(
            self.graph, shards=self.SHARDS, executor="process",
            workers=self.WORKERS, snapshot_ttl=self.TTL, lease_s=self.LEASE,
        ))
        pin_workers(st.router.pool.pids(), self.cpus)
        for _ in range(self.SETUP_WAVES):
            self.round(st, m)
        return st

    def round(self, st: _BatchState, m: Measure) -> None:
        r = st.router
        if len(st.window) >= self.WINDOW_WAVES:
            for app in st.window.popleft():
                t0 = perf_counter()
                r.release(app)
                m.release_s.append(perf_counter() - t0)
                m.attempted += 1
                st.record.release(app)
        batch = self.wave(st.round)
        t0 = perf_counter()
        grants = r.admit_batch(batch)
        dt = perf_counter() - t0
        m.batch_s.append(dt)
        # Each element's caller waits for the whole batch.
        m.request_s += [dt] * len(batch)
        m.requests += len(batch)
        m.attempted += len(batch)
        admitted = []
        for b, g in zip(batch, grants):
            if not g.admitted:
                m.failed += 1
                continue
            st.record.grant(Told(b.app_id, tuple(g.selection.nodes),
                                 b.cpu_fraction, b.bw_bps, self.LEASE))
            admitted.append(b.app_id)
        st.window.append(admitted)
        st.round += 1

    def teardown(self, st: _BatchState) -> None:
        st.router.close()
        os.sched_setaffinity(0, self.cpus)

    def worker_pids(self, st: _BatchState) -> list[int]:
        return list(st.router.pool.pids().values())

    def counters(self, st: _BatchState) -> dict:
        pool = st.router.pool
        total: dict = {}
        for shard in range(self.SHARDS):
            dump = {
                e["name"]: e["value"]
                for e in pool.call(shard, "metrics_state")
                if e["kind"] in ("counter", "gauge") and not e["labels"]
            }
            total = add_counters(total, service_counters(
                pool.call(shard, "metrics_snapshot"), dump))
        total["routed_cross"] = st.router.metrics.routed_cross
        return total

    def finish(self, st: _BatchState, m: Measure) -> None:
        r = st.router
        for apps in st.window:
            for app in apps:
                r.release(app)
                st.record.release(app)
        pool = r.pool
        active = 0
        edge_claims: dict = {}
        node_claims: dict = {}
        for shard in range(self.SHARDS):
            active += pool.call(shard, "active")
            for e in pool.call(shard, "edge_claims"):
                edge_claims[e] = "claimed"
            snap = pool.call(shard, "metrics_snapshot")
            if snap.get("max_node_claim", 0.0) > 0.0:
                node_claims[f"shard-{shard}"] = snap["max_node_claim"]
        m.problems += drained_problems(
            active + r.trunk.active, node_claims, edge_claims,
            r.trunk.edge_claims(),
        )
        r.check_invariants()
        self.teardown(st)
        self.check_capacity(st, m)


def pin_workers(pids: dict, cpus: list) -> None:
    """Give each worker its own CPU of ``cpus``, the caller sharing
    worker 1's.

    Left to the scheduler, the two workers sometimes share a CPU for a
    whole run and sometimes not, and the request rate of a run jumps
    between two levels (about 260 and 400 requests/s on a 2-CPU box).
    """
    if len(cpus) < 2:
        return
    for worker, pid in pids.items():
        os.sched_setaffinity(pid, {cpus[(worker + 1) % 2]})
    os.sched_setaffinity(0, {cpus[0]})


WORKLOADS = {
    w.name: w for w in (ServiceChurn, RouterDurable, ProcessBatch)
}
