"""Each oracle accepts a right answer and rejects a deliberately wrong one.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py -q``
from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from oracles import (  # noqa: E402
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
from repro.core import ApplicationSpec  # noqa: E402
from repro.service import SelectionService  # noqa: E402
from repro.topology import dumbbell  # noqa: E402
from repro.units import Mbps  # noqa: E402


@pytest.fixture
def graph():
    g = dumbbell(4, 4)
    for i, node in enumerate(sorted(g.compute_nodes(), key=lambda n: n.name)):
        node.load_average = 0.1 * i
    return g


def test_routes_match_the_programs_on_a_tree(graph):
    routes = TreeRoutes(graph)
    nodes = [n.name for n in graph.compute_nodes()][:3]
    expected = set()
    for a in nodes:
        for b in nodes:
            if a != b:
                p = graph.path(a, b)
                expected |= {(frozenset(h), h[1]) for h in zip(p, p[1:])}
    assert routes.channels(nodes) == expected


def test_capacity_replay_rejects_an_oversubscribed_node(graph):
    name = graph.compute_nodes()[0].name
    cap = 1.0 / (1.0 + graph.node(name).load_average)
    record = ClientRecord()
    record.grant(Told("a", (name,), cap * 0.6, 0.0, 10.0))
    assert replay_capacity(record, graph, TreeRoutes(graph)) == []
    record.grant(Told("b", (name,), cap * 0.6, 0.0, 10.0))
    problems = replay_capacity(record, graph, TreeRoutes(graph))
    assert problems and "node" in problems[0]


def test_capacity_replay_rejects_an_oversubscribed_channel(graph):
    a, b = [n.name for n in graph.compute_nodes()][:2]
    path = graph.path(a, b)
    link = graph.link(path[0], path[1])
    bw = link.available_towards(path[1]) * 0.7
    record = ClientRecord()
    record.grant(Told("x", (a, b), 0.0, bw, 10.0))
    record.release("x")
    record.grant(Told("y", (a, b), 0.0, bw, 10.0))
    assert replay_capacity(record, graph, TreeRoutes(graph)) == []
    record.grant(Told("z", (a, b), 0.0, bw, 10.0))
    problems = replay_capacity(record, graph, TreeRoutes(graph))
    assert problems and "channel" in problems[0]


@pytest.mark.parametrize("cpu,bw", [(0.1, 0.0), (0.05, 1 * Mbps)])
def test_objective_oracle_accepts_the_service_and_rejects_a_wrong_value(
    graph, cpu, bw
):
    svc = SelectionService(graph, queue_limit=0)
    record = ClientRecord()
    first = svc.request("first", ApplicationSpec(num_nodes=3),
                        cpu_fraction=0.2, bw_bps=2 * Mbps)
    record.grant(Told("first", tuple(first.selection.nodes), 0.2, 2 * Mbps,
                      60.0))
    grant = svc.request("second", ApplicationSpec(num_nodes=2),
                        cpu_fraction=cpu, bw_bps=bw)
    seen = {}

    def on_grant(index, told, node_claims, edge_claims):
        if told.app_id == "second":
            residual = residual_from_claims(graph, node_claims, edge_claims)
            seen["ref"] = reference_objective(residual, 2, cpu, bw)

    record.grant(Told("second", tuple(grant.selection.nodes), cpu, bw, 60.0))
    replay_capacity(record, graph, TreeRoutes(graph), on_grant=on_grant)
    granted = grant.selection.objective
    assert objective_problem("second", granted, seen["ref"]) is None
    assert objective_problem("second", granted * 1.01, seen["ref"])
    assert objective_problem("second", granted, None)


def test_expiry_oracle_rejects_early_and_late_expiry():
    leases = {"a": 10.0, "b": 20.0}
    assert expiry_problems(10.0, leases, ["b"]) == []
    # "a" expires exactly at t=10: still holding it is wrong ...
    assert expiry_problems(10.0, leases, ["a", "b"])
    # ... and so is dropping "b" before its lease ends, or inventing one.
    assert expiry_problems(10.0, leases, [])
    assert expiry_problems(10.0, leases, ["b", "ghost"])


def test_recovery_oracle_rejects_stray_lost_and_changed_leases():
    chan = (frozenset(("s0", "s1")), "s1")
    told = {"a": (frozenset({"h1", "h2"}), 0.1, 1e6, frozenset({(chan, 1e6)}))}
    assert recovery_problems(told, dict(told)) == []
    stray = dict(told, crash=(frozenset({"h3"}), 0.1, 1e6, frozenset()))
    assert recovery_problems(told, stray)
    assert recovery_problems(told, {})
    no_trunk = {"a": told["a"][:3] + (frozenset(),)}
    assert recovery_problems(told, no_trunk)
    moved = {"a": (frozenset({"h1", "h9"}),) + told["a"][1:]}
    assert recovery_problems(told, moved)


def test_drained_oracle_rejects_leftovers():
    assert drained_problems(0, {}, {}, {}) == []
    chan = (frozenset(("s0", "s1")), "s1")
    assert drained_problems(1, {}, {}, {})
    assert drained_problems(0, {"h1": 1e-3}, {}, {})
    assert drained_problems(0, {}, {chan: 5.0}, {})
    assert drained_problems(0, {}, {}, {chan: 5.0})
