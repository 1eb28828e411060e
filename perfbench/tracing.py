"""Layer-boundary spans recorded from outside the program.

:class:`SpanRecorder` wraps the public entry point of each layer
(``install()``), keeps every call as an in-memory span (name, layer,
start, end, parent, request id) and restores the originals
(``uninstall()``).  Nothing inside ``src/`` is changed: the wrappers sit
on the classes and module functions the benchmark calls through.

A layer's self time is its spans' durations minus the time their child
spans cover, so the self times of all layers add up to the time spent
under the outermost spans.  Worker processes forked while the wrappers
are installed inherit them but record nothing (an after-fork hook turns
the copy off); their time is read from the program's own stage timers.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

#: (module path, owner attribute or None for a module function, method,
#: span name, layer).  The layer names follow the modules.
BOUNDARIES = (
    ("repro.core.selector", "NodeSelector", "select", "core.select", "core"),
    ("repro.topology.graph", "TopologyGraph", "path", "topology.path",
     "topology"),
    ("repro.service.residual_view", "ResidualView", "__init__",
     "residual_view.rebuild", "residual_view"),
    ("repro.service.residual_view", "ResidualView", "apply_delta",
     "residual_view.delta", "residual_view"),
    ("repro.service.ledger", "ReservationLedger", "reserve",
     "ledger.reserve", "ledger"),
    ("repro.service.ledger", "ReservationLedger", "release",
     "ledger.release", "ledger"),
    ("repro.service.ledger", "ReservationLedger", "expire",
     "ledger.expire", "ledger"),
    ("repro.service.ledger", "ReservationLedger", "recover",
     "wal.replay", "wal"),
    ("repro.service.wal", "LedgerWal", "append", "wal.append", "wal"),
    ("repro.service.wal", "LedgerWal", "snapshot", "wal.snapshot", "wal"),
    ("repro.service.service", "SelectionService", "request",
     "service.request", "service"),
    ("repro.service.service", "SelectionService", "probe",
     "service.probe", "service"),
    ("repro.service.service", "SelectionService", "release",
     "service.release", "service"),
    ("repro.service.service", "SelectionService", "admit_batch",
     "service.admit_batch", "service"),
    ("repro.service.service", "SelectionService", "renew",
     "service.renew", "service"),
    ("repro.service.service", "SelectionService", "tick",
     "service.tick", "service"),
    ("repro.service.service", "SelectionService", "__init__",
     "service.init", "service"),
    ("repro.service.sharding.router", "ShardRouter", "request",
     "router.request", "router"),
    ("repro.service.sharding.router", "ShardRouter", "release",
     "router.release", "router"),
    ("repro.service.sharding.router", "ShardRouter", "admit_batch",
     "router.admit_batch", "router"),
    ("repro.service.sharding.router", "ShardRouter", "renew",
     "router.renew", "router"),
    ("repro.service.sharding.router", "ShardRouter", "tick",
     "router.tick", "router"),
    ("repro.service.sharding.router", "ShardRouter", "__init__",
     "router.init", "router"),
    ("repro.service.sharding.trunk", "TrunkLedger", "reserve",
     "trunk.reserve", "trunk"),
    ("repro.service.sharding.workers", "ShardWorkerPool", "call",
     "workers.call", "workers"),
    ("repro.service.sharding.workers", "ShardWorkerPool", "call_many",
     "workers.call_many", "workers"),
    ("repro.service.sharding.workers", "ShardWorkerPool", "__init__",
     "workers.spawn", "workers"),
    ("repro.service.sharding.partition", None, "partition_topology",
     "partition", "partition"),
    # The router imports the partitioner by name; patch that binding too.
    ("repro.service.sharding.router", None, "partition_topology",
     "partition", "partition"),
)

LAYERS = (
    "core", "topology", "residual_view", "ledger", "wal", "service",
    "router", "trunk", "workers", "partition",
)

# Span record fields (a list per span keeps recording cheap).
NAME, LAYER, START, END, PARENT, REQ = range(6)


class SpanRecorder:
    """In-memory span store plus the install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: Request id: every outermost span starts a new one and the
        #: spans under it share it.
        self.req = -1
        #: Commands sent to workers (``call_many`` counts each command).
        self.rpc_commands = 0
        #: Bytes the WAL wrote, recomputed from each appended record.
        self.wal_bytes = 0
        #: Leases ``ReservationLedger.expire`` reclaimed.
        self.expired = 0
        self.active = True
        self._saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False
        self.spans = []
        self.stack = []

    def _wrap(self, fn, name: str, layer: str):
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            spans = rec.spans
            idx = len(spans)
            stack = rec.stack
            if not stack:
                rec.req += 1
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, rec.req]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if name == "workers.call_many":
                rec.rpc_commands += len(args[1])
            elif name == "workers.call":
                rec.rpc_commands += 1
            elif name == "wal.append":
                rec.wal_bytes += 1 + len(json.dumps(
                    {"seq": out, **args[1]}, separators=(",", ":")))
            elif name == "ledger.expire":
                rec.expired += len(out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        import importlib

        for module_name, owner_name, attr, name, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer))
            else:
                wrapped = self._wrap(raw, name, layer)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.rpc_commands = 0
        self.wal_bytes = 0
        self.expired = 0

    def write_jsonl(self, path: str, phase: str, mode: str = "a") -> None:
        """Append the spans as JSONL (times in seconds, perf_counter base)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, mode, encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "phase": phase, "id": i, "name": s[NAME],
                    "layer": s[LAYER], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "request": s[REQ],
                }) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-layer self time and per-name durations of a span list.

    Returns ``{"self_s": {layer: s}, "calls": {name: n},
    "total_s": {name: s}, "durations": {name: [s, ...]}}``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    durations: dict[str, list] = {}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        self_s[s[LAYER]] += dur - child[i]
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        durations.setdefault(name, []).append(dur)
    return {"self_s": self_s, "calls": calls, "total_s": total,
            "durations": durations}
