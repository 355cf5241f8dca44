"""Labeled multigraphs and Hamiltonian-cycle machinery.

Graphs here are the vertex links of triangle/lozenge complexes: small cubic
multigraphs whose edges carry angle labels in integer units of pi/3.  The
three labels are

    "t"  triangle corner        weight 1
    "l"  small lozenge corner   weight 1
    "L"  large lozenge corner   weight 2

The reference graph is the Moebius ladder on eight nodes: an 8-cycle rim with
labels alternating l,t and four rungs joining antipodal rim nodes, each
labeled L.  Everything in this module is exact integer combinatorics; node
identifiers are arbitrary hashable objects ordered by ``str`` for
determinism.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from enum import Enum

LABEL_WEIGHTS = {"t": 1, "l": 1, "L": 2}


def label_weight(label):
    """Integer angle (units of pi/3) for a corner label."""
    try:
        return LABEL_WEIGHTS[label]
    except KeyError:
        raise ValueError(f"unknown angle label {label!r}") from None


class GraphError(ValueError):
    pass


class LabeledGraph:
    """Undirected multigraph with optional angle labels on edges.

    Self-loops are rejected on construction: links of order-2 complexes made
    of triangles and lozenges never have them.  Edges keep an insertion
    index, which is the identity used to tell parallel edges apart.  An edge
    may carry an opaque ``tag`` (the complexes use (face id, corner index))
    for traceability.
    """

    def __init__(self):
        self._nodes = []
        self._node_set = set()
        self.edges = []  # list of (u, v, label_or_None, tag)
        self.rungs = set()  # frozensets {u, v}; only set for ladder-style graphs

    def add_node(self, n):
        if n not in self._node_set:
            self._node_set.add(n)
            self._nodes.append(n)

    def add_edge(self, u, v, label=None, tag=None):
        if u == v:
            raise GraphError(f"self-loop at {u!r} rejected")
        if label is not None and label not in LABEL_WEIGHTS:
            raise GraphError(f"unknown angle label {label!r}")
        self.add_node(u)
        self.add_node(v)
        self.edges.append((u, v, label, tag))
        return len(self.edges) - 1

    def mark_rung(self, u, v):
        self.rungs.add(frozenset((u, v)))

    @property
    def nodes(self):
        return list(self._nodes)

    def sorted_nodes(self):
        return sorted(self._nodes, key=str)

    def node_count(self):
        return len(self._nodes)

    def edge_count(self):
        return len(self.edges)

    def has_node(self, n):
        return n in self._node_set

    def adjacency(self):
        """node -> list of (neighbor, edge index), deterministic order."""
        adj = {n: [] for n in self._nodes}
        for idx, (u, v, _lbl, _tag) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        for n in adj:
            adj[n].sort(key=lambda p: (str(p[0]), p[1]))
        return adj

    def degree(self, n):
        return sum(1 for (u, v, _l, _t) in self.edges if u == n or v == n)

    def is_connected(self):
        adj = self.adjacency()
        return len(components(self._nodes, lambda n: (m for m, _ in adj[n]))) <= 1

    def label_signature(self, n):
        """Sorted multiset of labels incident to n (isomorphism invariant)."""
        sig = []
        for (u, v, lbl, _t) in self.edges:
            if u == n or v == n:
                sig.append("" if lbl is None else lbl)
        return tuple(sorted(sig))


def components(nodes, neighbours):
    """Connected components of the graph on ``nodes`` whose adjacency is
    ``neighbours(n)``, as node sets in the order of their first node."""
    seen, out = set(), []
    for start in nodes:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for m in neighbours(stack.pop()):
                if m not in comp:
                    comp.add(m)
                    stack.append(m)
        seen |= comp
        out.append(comp)
    return out


class CycleType(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"
    OTHER = "other"


@dataclass(frozen=True)
class HamCycle:
    """A Hamiltonian cycle, identified by its edge set.

    ``nodes`` is the canonical node sequence: lexicographically least (by
    ``str``) over all rotations and both directions, so equal cycles always
    canonicalize identically.  ``edge_indices`` is the identity used for
    duplicate elimination, which distinguishes cycles through parallel
    edges.
    """

    nodes: tuple
    edge_indices: frozenset
    labels: tuple
    rung_count: int

    @property
    def weight(self):
        """Total angular length in units of pi/3; None if any edge unlabeled."""
        if any(lbl == "" for lbl in self.labels):
            return None
        return sum(label_weight(lbl) for lbl in self.labels)


def _canonical_cycle(seq):
    """Lexicographically least rotation/reflection of a cyclic node sequence."""
    n = len(seq)
    best = None
    for base in (list(seq), list(reversed(seq))):
        for r in range(n):
            cand = tuple(base[r:] + base[:r])
            key = tuple(str(x) for x in cand)
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1]


def _make_cycle(graph, node_seq, edge_idx_seq):
    labels = []
    for idx in edge_idx_seq:
        lbl = graph.edges[idx][2]
        labels.append("" if lbl is None else lbl)
    rungs = 0
    for i, idx in enumerate(edge_idx_seq):
        u = node_seq[i]
        v = node_seq[(i + 1) % len(node_seq)]
        if frozenset((u, v)) in graph.rungs:
            rungs += 1
    if not graph.rungs:
        rungs = sum(1 for lbl in labels if lbl == "L")
    return HamCycle(
        nodes=_canonical_cycle(node_seq),
        edge_indices=frozenset(edge_idx_seq),
        labels=tuple(sorted(labels)),
        rung_count=rungs,
    )


def enumerate_hamiltonian_cycles(graph):
    """All Hamiltonian cycles of ``graph``, duplicate-free, sorted.

    Exhaustive backtracking from the least node over an integer-indexed
    copy of the graph.  Prunes a branch when some unvisited node retains
    fewer than two usable attachment points, when the start keeps no free
    closing slot, or when the unvisited region disconnects from the path
    end.  Cycles are deduped by edge set, so parallel edges yield distinct
    cycles.

    Raises GraphError on graphs with fewer than 3 nodes or disconnected
    graphs.
    """
    n = graph.node_count()
    if n < 3:
        raise GraphError("need at least 3 nodes for a Hamiltonian cycle")
    if not graph.is_connected():
        raise GraphError("graph is disconnected")

    order = graph.sorted_nodes()
    index = {node: i for i, node in enumerate(order)}
    adj = [[] for _ in range(n)]
    for idx, (u, v, _lbl, _tag) in enumerate(graph.edges):
        adj[index[u]].append((index[v], idx))
        adj[index[v]].append((index[u], idx))
    for row in adj:
        row.sort()

    start = 0
    found = {}
    visited = [False] * n
    visited[start] = True
    path = [start]
    edge_seq = []
    stack = [0] * n  # reusable DFS stack for the connectivity check

    def feasible(current):
        # every unvisited node needs two usable slots; start needs one
        for u in range(1, n):
            if visited[u]:
                continue
            slots = 0
            for v, _idx in adj[u]:
                if not visited[v] or v == current or v == start:
                    slots += 1
                    if slots == 2:
                        break
            if slots < 2:
                return False
        closing = 0
        for v, _idx in adj[start]:
            if not visited[v] or v == current:
                closing += 1
                break
        if closing == 0:
            return False
        # unvisited region must be one piece hanging off the path end
        first = -1
        for v, _idx in adj[current]:
            if not visited[v]:
                first = v
                break
        remaining = n - len(path)
        if first < 0:
            return False
        seen = [False] * n
        seen[first] = True
        stack[0] = first
        top = 1
        count = 1
        while top:
            top -= 1
            u = stack[top]
            for v, _idx in adj[u]:
                if not visited[v] and not seen[v]:
                    seen[v] = True
                    stack[top] = v
                    top += 1
                    count += 1
        return count == remaining

    def extend(current):
        if len(path) == n:
            for v, idx in adj[current]:
                if v == start:
                    seq = tuple(order[i] for i in path)
                    cyc = _make_cycle(graph, seq, tuple(edge_seq) + (idx,))
                    found.setdefault(cyc.edge_indices, cyc)
            return
        if not feasible(current):
            return
        for v, idx in adj[current]:
            if visited[v]:
                continue
            visited[v] = True
            path.append(v)
            edge_seq.append(idx)
            extend(v)
            edge_seq.pop()
            path.pop()
            visited[v] = False

    extend(start)
    return sorted(found.values(), key=lambda c: tuple(str(x) for x in c.nodes))


def moebius_ladder():
    """The labeled Moebius ladder on four rungs and eight nodes.

    Rim 8-cycle 0..7 with labels alternating l,t starting at edge (0,1);
    rungs (i, i+4) labeled L and designated as rungs.  Cubic and vertex
    transitive as an unlabeled graph.
    """
    g = LabeledGraph()
    for i in range(8):
        g.add_node(i)
    for i in range(8):
        g.add_edge(i, (i + 1) % 8, "l" if i % 2 == 0 else "t")
    for i in range(4):
        g.add_edge(i, i + 4, "L")
        g.mark_rung(i, i + 4)
    return g


_TYPE_MULTISETS = {
    CycleType.TYPE1: Counter({"t": 4, "l": 4}),
    CycleType.TYPE2: Counter({"t": 2, "l": 4, "L": 2}),
    CycleType.TYPE3: Counter({"t": 4, "l": 2, "L": 2}),
}


def label_type(labels):
    """Cycle type of a multiset of edge labels: type1 = {4t, 4l},
    type2 = {2t, 4l, 2L}, type3 = {4t, 2l, 2L}; anything else is OTHER."""
    counts = Counter(labels)
    for ctype, ref in _TYPE_MULTISETS.items():
        if counts == ref:
            return ctype
    return CycleType.OTHER


def classify_cycle(cycle):
    """Type of a labeled Hamiltonian cycle by its label multiset.

    As ``label_type``, except that type1 also needs no rungs.  Raises on
    unlabeled edges.
    """
    if any(lbl == "" for lbl in cycle.labels):
        raise GraphError("cycle has unlabeled edges; cannot classify")
    ctype = label_type(cycle.labels)
    if ctype is CycleType.TYPE1 and cycle.rung_count != 0:
        return CycleType.OTHER
    return ctype


def labeled_isomorphic(g1, g2, ignore_labels=False, pin=None):
    """Label-preserving graph isomorphism g1 -> g2, or None.

    Returns the first bijection found in canonical search order (nodes of g1
    processed in sorted order, candidate images in sorted order), so the
    output is deterministic.  ``pin`` optionally forces one assignment
    (node1, node2) before the search starts.  Parallel edges are matched by
    multiplicity per label.
    """
    found = labeled_isomorphisms(g1, g2, ignore_labels=ignore_labels, pin=pin, limit=1)
    return found[0] if found else None


def labeled_isomorphisms(g1, g2, ignore_labels=False, pin=None, limit=None):
    """All label-preserving isomorphisms g1 -> g2, in canonical order."""
    if g1.node_count() != g2.node_count() or g1.edge_count() != g2.edge_count():
        return []

    def edge_profile(g):
        # (u, v) -> Counter of labels, u/v in str order
        prof = {}
        for (u, v, lbl, _t) in g.edges:
            key = tuple(sorted((u, v), key=str))
            prof.setdefault(key, Counter())[
                "" if lbl is None or ignore_labels else lbl
            ] += 1
        return prof

    prof1 = edge_profile(g1)
    prof2 = edge_profile(g2)

    def sig(g, n):
        if ignore_labels:
            return (g.degree(n),)
        return (g.degree(n), g.label_signature(n))

    nodes1 = g1.sorted_nodes()
    nodes2 = g2.sorted_nodes()
    sigs2 = {n: sig(g2, n) for n in nodes2}

    mapping = {}
    used = set()
    results = []

    def compatible(n1, n2):
        if sig(g1, n1) != sigs2[n2]:
            return False
        for (u, v), labels in prof1.items():
            if u == n1 or v == n1:
                other = v if u == n1 else u
                if other in mapping:
                    key = tuple(sorted((n2, mapping[other]), key=str))
                    if prof2.get(key) != labels:
                        return False
        return True

    def assign(i):
        if limit is not None and len(results) >= limit:
            return
        if i == len(nodes1):
            results.append(dict(mapping))
            return
        n1 = nodes1[i]
        if n1 in mapping:
            assign(i + 1)
            return
        for n2 in nodes2:
            if n2 in used:
                continue
            if compatible(n1, n2):
                mapping[n1] = n2
                used.add(n2)
                assign(i + 1)
                del mapping[n1]
                used.remove(n2)
                if limit is not None and len(results) >= limit:
                    return

    if pin is not None:
        n1, n2 = pin
        if not g1.has_node(n1) or not g2.has_node(n2):
            return []
        if not compatible(n1, n2):
            return []
        mapping[n1] = n2
        used.add(n2)

    assign(0)
    return results


def is_vertex_transitive(graph):
    """True if the unlabeled graph has a node-transitive automorphism group."""
    nodes = graph.sorted_nodes()
    if not nodes:
        return True
    base = nodes[0]
    for target in nodes:
        if labeled_isomorphic(graph, graph, ignore_labels=True, pin=(base, target)) is None:
            return False
    return True


def angular_girth(graph):
    """Minimum total label weight over simple cycles, in units of pi/3.

    Computed as the shortest weighted cycle through each edge: remove the
    edge, run Dijkstra between its endpoints, add the edge weight back.
    Raises on unlabeled edges or acyclic graphs.
    """
    if any(lbl is None for (_u, _v, lbl, _t) in graph.edges):
        raise GraphError("angular girth needs all edges labeled")
    adj = graph.adjacency()
    best = None
    for skip_idx, (u, v, lbl, _tag) in enumerate(graph.edges):
        dist = {u: 0}
        heap = [(0, str(u), u)]
        while heap:
            d, _key, node = heapq.heappop(heap)
            if d > dist.get(node, d):
                continue
            if node == v:
                break
            for nbr, idx in adj[node]:
                if idx == skip_idx:
                    continue
                nd = d + label_weight(graph.edges[idx][2])
                if nbr not in dist or nd < dist[nbr]:
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, str(nbr), nbr))
        if v in dist:
            total = dist[v] + label_weight(lbl)
            if best is None or total < best:
                best = total
    if best is None:
        raise GraphError("graph has no cycle")
    return best


def parse_graph_file(text):
    """Parse the graph fixture format.

    Lines: ``node <id>``, ``edge <id1> <id2> [label]``, ``rung <id1> <id2>``;
    blank lines and ``#`` comments ignored.  Raises GraphError with the line
    number on malformed input.
    """
    g = LabeledGraph()
    rung_requests = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node" and len(parts) == 2:
            g.add_node(parts[1])
        elif kind == "edge" and len(parts) in (3, 4):
            label = parts[3] if len(parts) == 4 else None
            try:
                g.add_edge(parts[1], parts[2], label)
            except GraphError as exc:
                raise GraphError(f"line {lineno}: {exc}") from None
        elif kind == "rung" and len(parts) == 3:
            rung_requests.append((lineno, parts[1], parts[2]))
        else:
            raise GraphError(f"line {lineno}: malformed record {raw.strip()!r}")
    for lineno, u, v in rung_requests:
        if not (g.has_node(u) and g.has_node(v)):
            raise GraphError(f"line {lineno}: rung endpoints not declared")
        g.mark_rung(u, v)
    return g
