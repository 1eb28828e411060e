"""Correctness oracles for the admission-path benchmark.

Every check here works from the benchmark's own record of what each
client was told, never from the program's internal tallies:

- :class:`TreeRoutes` computes routes with networkx shortest paths on
  the *base* topology (not the program's ``RouteCache``);
- :func:`replay_capacity` replays the record and checks that no node or
  directed channel ever carries more claims than it has capacity;
- :func:`objective_problem` rebuilds a residual graph from the record
  and runs the paper-faithful ``repro.core.reference`` selection on it;
- :func:`expiry_problems`, :func:`recovery_problems` and
  :func:`drained_problems` compare lease sets the program reports with
  the ones the record says must exist.

Each function returns a list of human-readable problems (empty = pass),
so a workload can count them and the tests can show each check rejects
a deliberately wrong answer (``perfbench/test_oracles.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import networkx as nx

#: Relative slack for float claim sums: the program and the oracle add
#: the same claims in different orders, so totals may differ by ulps.
REL_TOL = 1e-9


def _over(total: float, cap: float) -> bool:
    return total > cap + REL_TOL * max(1.0, abs(cap))


class TreeRoutes:
    """Routes between compute nodes from networkx shortest paths.

    On a tree the path between two nodes is unique, so it is the join
    of their shortest paths from one root at the lowest common ancestor.
    Non-tree graphs fall back to one ``nx.shortest_path`` per pair.
    """

    def __init__(self, graph) -> None:
        g = nx.Graph()
        g.add_nodes_from(graph.node_names())
        g.add_edges_from((link.u, link.v) for link in graph.links())
        self.nx_graph = g
        self.is_tree = nx.is_tree(g)
        root = min(g.nodes)
        self._from_root = (
            nx.single_source_shortest_path(g, root) if self.is_tree else None
        )
        self._memo: dict[frozenset, frozenset] = {}

    def path(self, a: str, b: str) -> list[str]:
        if not self.is_tree:
            return nx.shortest_path(self.nx_graph, a, b)
        pa, pb = self._from_root[a], self._from_root[b]
        i = 0
        while i < len(pa) and i < len(pb) and pa[i] == pb[i]:
            i += 1
        return pa[i - 1:][::-1] + pb[i:]

    def channels(self, nodes: Iterable[str]) -> frozenset:
        """Directed channels ``(frozenset((u, v)), v)`` that traffic among
        ``nodes`` crosses: every ordered pair, every hop, towards the
        next node."""
        key = frozenset(nodes)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = set()
        for a, b in itertools.permutations(sorted(key), 2):
            p = self.path(a, b)
            for u, v in zip(p, p[1:]):
                out.add((frozenset((u, v)), v))
        hit = self._memo[key] = frozenset(out)
        return hit


@dataclass(frozen=True)
class Told:
    """What one client was told at admission."""

    app_id: str
    nodes: tuple
    cpu: float
    bw: float
    expires_at: float
    #: Trunk channels of a cross-shard grant (empty when none).
    trunk: frozenset = frozenset()


class ClientRecord:
    """The benchmark's log of grants and releases, in program order.

    The timed loop appends to it; the capacity, objective and drained
    checks replay it after the loop, while the lease-expiry and recovery
    checks read its live leases inside rounds, off the round clock.
    ``events`` holds ``("grant", Told)`` and ``("release", app_id)``.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.live: dict[str, Told] = {}

    def grant(self, told: Told) -> int:
        self.events.append(("grant", told))
        self.live[told.app_id] = told
        return len(self.events) - 1

    def release(self, app_id: str) -> None:
        self.events.append(("release", app_id))
        del self.live[app_id]


def node_capacity(graph) -> dict[str, float]:
    """Measured CPU fraction ``1/(1+load)`` of every compute node."""
    return {n.name: 1.0 / (1.0 + n.load_average) for n in graph.compute_nodes()}


def channel_capacity(graph, channel) -> float:
    key, dst = channel
    u, v = tuple(key)
    link = graph.link(u, v)
    return link.available_fwd if dst == link.v else link.available_rev


def replay_capacity(
    record: ClientRecord,
    graph,
    routes: TreeRoutes,
    *,
    on_grant=None,
) -> list[str]:
    """Replay ``record``; report any node or channel claimed past capacity.

    Capacity is what admission promises against: the node's measured CPU
    fraction and the channel's measured available bandwidth on the base
    snapshot.  ``on_grant(index, told, node_claims, edge_claims)`` runs
    *before* each grant is applied (the objective oracle hooks in here).
    """
    cpu_cap = node_capacity(graph)
    node_claims: dict[str, float] = {}
    edge_claims: dict[tuple, float] = {}
    live: dict[str, tuple[Told, frozenset]] = {}
    problems: list[str] = []
    for index, (kind, payload) in enumerate(record.events):
        if kind == "grant":
            told = payload
            if on_grant is not None:
                on_grant(index, told, node_claims, edge_claims)
            chans = routes.channels(told.nodes) if told.bw > 0 else frozenset()
            live[told.app_id] = (told, chans)
            for name in told.nodes:
                total = node_claims.get(name, 0.0) + told.cpu
                node_claims[name] = total
                if _over(total, cpu_cap[name]):
                    problems.append(
                        f"{told.app_id}: node {name} claimed {total:.6f} "
                        f"> capacity {cpu_cap[name]:.6f}"
                    )
            for ch in chans:
                total = edge_claims.get(ch, 0.0) + told.bw
                edge_claims[ch] = total
                cap = channel_capacity(graph, ch)
                if _over(total, cap):
                    u, v = sorted(ch[0])
                    problems.append(
                        f"{told.app_id}: channel {u}-{v} towards {ch[1]} "
                        f"claimed {total:.1f} > capacity {cap:.1f} bps"
                    )
        else:
            told, chans = live.pop(payload)
            for name in told.nodes:
                node_claims[name] -= told.cpu
            for ch in chans:
                edge_claims[ch] -= told.bw
    return problems


def residual_from_claims(graph, node_claims, edge_claims):
    """A copy of ``graph`` with the record's claims debited.

    CPU: residual fraction ``1/(1+load) - claim`` re-encoded as a load
    average; bandwidth: availability towards the channel's destination
    minus the claim, floored at zero.
    """
    g = graph.copy()
    for name, claim in node_claims.items():
        if claim <= 1e-9:  # released down to float residue
            continue
        node = g.node(name)
        left = max(1.0 / (1.0 + node.load_average) - claim, 1e-9)
        node.load_average = 1.0 / left - 1.0
    for (key, dst), claim in edge_claims.items():
        if claim <= 1.0:  # released down to float residue (bps)
            continue
        u, v = tuple(key)
        link = g.link(u, v)
        if dst == link.v:
            link.available_fwd = max(link.available_fwd - claim, 0.0)
        else:
            link.available_rev = max(link.available_rev - claim, 0.0)
    return g


def reference_objective(residual, m: int, cpu: float, bw: float) -> float:
    """The objective ``repro.core.reference`` reaches for one tenant.

    Mirrors the service's claim folding: a bandwidth claim becomes a
    pairwise bandwidth floor, otherwise a CPU claim becomes a per-node
    CPU floor (Figure 2 on the nodes that meet it).
    """
    from repro.core.reference import (
        reference_select_max_bandwidth,
        reference_select_with_bandwidth_floor,
    )

    def healthy(node) -> bool:
        return not (node.attrs.get("down") or node.attrs.get("unmonitorable"))

    if bw > 0:
        sel = reference_select_with_bandwidth_floor(
            residual, m, floor_bps=bw, eligible=healthy,
        )
    else:
        sel = reference_select_max_bandwidth(
            residual, m,
            eligible=lambda n: healthy(n) and 1.0 / (1.0 + n.load_average) >= cpu,
        )
    return float(sel.objective)


def objective_problem(
    app_id: str, granted: float, reference: Optional[float]
) -> Optional[str]:
    """Compare a grant's objective value with the reference's."""
    if reference is None:
        return f"{app_id}: reference finds no feasible selection"
    if not math.isclose(granted, reference, rel_tol=1e-9, abs_tol=1e-12):
        return (
            f"{app_id}: granted objective {granted!r} != "
            f"reference {reference!r}"
        )
    return None


def expiry_problems(
    now: float, leases: Mapping[str, float], reported: Iterable[str]
) -> list[str]:
    """Leases the program holds or dropped against the clock.

    ``leases`` maps every lease the record says was granted and not
    released to its ``expires_at``.  A lease is live iff ``now <
    expires_at``; ``reported`` is the program's live set.
    """
    reported = set(reported)
    problems = []
    for app_id, expires_at in leases.items():
        alive = now < expires_at
        if alive and app_id not in reported:
            problems.append(
                f"{app_id}: dropped at t={now!r}, lease runs to {expires_at!r}"
            )
        if not alive and app_id in reported:
            problems.append(
                f"{app_id}: still live at t={now!r}, lease ended {expires_at!r}"
            )
    for app_id in sorted(reported - set(leases)):
        problems.append(f"{app_id}: live in the program, never granted")
    return problems


def recovery_problems(
    told: Mapping[str, tuple], recovered: Mapping[str, tuple]
) -> list[str]:
    """Compare recovered leases with what their clients were told.

    Both map ``app_id -> (frozenset(nodes), cpu, bw, frozenset(trunk))``.
    """
    problems = []
    for app_id in sorted(set(told) | set(recovered)):
        if app_id not in recovered:
            problems.append(f"{app_id}: told admitted, not recovered")
        elif app_id not in told:
            problems.append(f"{app_id}: recovered, but its client was never told")
        elif told[app_id] != recovered[app_id]:
            problems.append(
                f"{app_id}: recovered {recovered[app_id]!r} != told "
                f"{told[app_id]!r}"
            )
    return problems


def drained_problems(
    active: int, node_claims: Mapping, edge_claims: Mapping, trunk_claims: Mapping
) -> list[str]:
    """After releasing everything, nothing may remain claimed."""
    problems = []
    if active:
        problems.append(f"{active} leases still live")
    problems += [f"node {n} still claims {c!r}" for n, c in node_claims.items()]
    problems += [
        f"channel {sorted(e[0])}->{e[1]} still claims {c!r}"
        for e, c in edge_claims.items()
    ]
    problems += [
        f"trunk channel {sorted(e[0])}->{e[1]} still claims {c!r}"
        for e, c in trunk_claims.items()
    ]
    return problems
