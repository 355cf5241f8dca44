"""Labeled multigraphs and Hamiltonian-cycle machinery.

Graphs here are the vertex links of triangle/lozenge complexes: small cubic
multigraphs whose edges carry angle labels in integer units of pi/3.  The
three labels are

    "t"  triangle corner        weight 1
    "l"  small lozenge corner   weight 1
    "L"  large lozenge corner   weight 2

The reference graph is the Moebius ladder on eight nodes: an 8-cycle rim with
labels alternating l,t and four rungs joining antipodal rim nodes, each
labeled L.  A rung is an L edge and nothing else: the ladder facts (the
rungs a cycle uses or omits, its type) are read from the labels, so any
graph carries them without extra marking.  Links are properly
3-edge-coloured, so an isomorphism between them is developed from one
node.  Everything in this module is exact integer combinatorics; node
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

    def add_node(self, n):
        if n not in self._node_set:
            self._node_set.add(n)
            self._nodes.append(n)

    def add_edge(self, u, v, label, tag=None):
        if u == v:
            raise GraphError(f"self-loop at {u!r} rejected")
        if label is not None and label not in LABEL_WEIGHTS:
            raise GraphError(f"unknown angle label {label!r}")
        self.add_node(u)
        self.add_node(v)
        self.edges.append((u, v, label, tag))
        return len(self.edges) - 1

    @property
    def nodes(self):
        return list(self._nodes)

    def sorted_nodes(self):
        return sorted(self._nodes, key=str)

    def node_count(self):
        return len(self._nodes)

    def adjacency(self):
        """node -> list of (neighbor, edge index), deterministic order."""
        adj = {n: [] for n in self._nodes}
        for idx, (u, v, _lbl, _tag) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        for n in adj:
            adj[n].sort(key=lambda p: (str(p[0]), p[1]))
        return adj


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
    edges.  ``labels`` is the sorted label multiset, "" for an unlabeled
    edge.
    """

    nodes: tuple
    edge_indices: frozenset
    labels: tuple

    @property
    def rung_count(self):
        """The number of rungs (L edges) the cycle uses."""
        return self.labels.count("L")


def _make_cycle(graph, node_seq, edge_idx_seq):
    """The HamCycle of a closed path that starts at the least node, whose
    canonical reading is the lesser of the path and its reversal."""
    back = node_seq[:1] + node_seq[:0:-1]
    labels = (graph.edges[idx][2] or "" for idx in edge_idx_seq)
    return HamCycle(nodes=min(node_seq, back, key=lambda seq: tuple(map(str, seq))),
                    edge_indices=frozenset(edge_idx_seq),
                    labels=tuple(sorted(labels)))


def enumerate_hamiltonian_cycles(graph):
    """All Hamiltonian cycles of ``graph``, duplicate-free, sorted.

    Depth-first search over edge decisions, IN or OUT, on an
    integer-indexed copy of the graph; every decision goes on a trail and
    is undone from it.  A Hamiltonian cycle puts exactly two edges IN at
    every node and closes no cycle before its n-th edge, so after each
    decision three rules force what no cycle can do otherwise:

    * a node with two IN edges puts its other edges OUT, as a third would
      give it degree 3;
    * a node with exactly two edges that are not OUT puts both IN, as it
      needs two (with fewer it is a dead end);
    * an undecided edge that joins the two ends of one path fragment goes
      OUT unless it would be the n-th IN edge, as it would close a cycle
      that misses a node.  ``other[u]`` is the far end of the fragment
      that ends at u (u itself while u has no IN edge).

    Forced values wait on one stack.  An IN fails at an end with two IN
    edges or when it closes a fragment early, an OUT when it leaves a
    node fewer than two edges not OUT.  A value popped for an edge
    already decided agrees with it and is skipped, as each rule's push
    makes the opposite value fail; only the early-closing test stops the
    IN of one of two parallel closing edges that the other's OUT forced.

    The search branches on an undecided edge at a node with fewer than
    two IN edges, the most IN edges and the fewest undecided ones; IN
    first.  A leaf has n IN edges, two at each node, and its walk from
    the least node checks that they visit every node and close (else
    AssertionError): a leaf is a Hamiltonian cycle, as a full edge set,
    whatever the stack's order.  Sibling branches differ on an edge, so
    each cycle is found once, and parallel edges give distinct cycles.
    On the 28-node Coxeter graph the search makes 98 branch decisions
    (the node-by-node path search it replaced made 4,168 steps).  The
    result is sorted by canonical node sequence, then by sorted edge
    indices.

    Raises GraphError on graphs with fewer than 3 nodes or disconnected
    graphs.
    """
    n = graph.node_count()
    if n < 3:
        raise GraphError("need at least 3 nodes for a Hamiltonian cycle")
    order = graph.sorted_nodes()
    index = {node: i for i, node in enumerate(order)}
    ends = [(index[u], index[v]) for u, v, _l, _t in graph.edges]
    inc = [[] for _ in range(n)]
    for e, (u, v) in enumerate(ends):
        inc[u].append(e)
        inc[v].append(e)
    if len(components(range(n), lambda x: (sum(ends[e]) - x for e in inc[x]))) > 1:
        raise GraphError("graph is disconnected")
    state = [None] * len(ends)  # None undecided, True IN, False OUT
    deg = [0] * n  # IN edges per node
    free = [len(es) for es in inc]  # edges that are not OUT, per node
    other = list(range(n))
    trail, cycles = [], []
    n_in = 0

    def settle(todo):
        """Apply the decisions in todo, e for IN and ~e for OUT, and all
        they force; False at a contradiction, the trail left for ``undo``."""
        nonlocal n_in
        while todo:
            e = todo.pop()
            take = e >= 0
            if not take:
                e = ~e
            if state[e] is not None:  # decided the same way (docstring)
                continue
            u, v = ends[e]
            if take:
                a, b = other[u], other[v]
                if deg[u] == 2 or deg[v] == 2 or (a == v and n_in + 1 < n):
                    return False
                state[e] = True
                trail.append((e, a, b))
                n_in += 1
                deg[u] += 1
                deg[v] += 1
                other[a], other[b] = b, a
                for x in (u, v):
                    if deg[x] == 2:
                        for f in inc[x]:
                            if state[f] is None:
                                todo.append(~f)
                if n_in < n - 1:
                    for f in inc[a]:
                        if state[f] is None and b in ends[f]:
                            todo.append(~f)
            else:
                state[e] = False
                trail.append((e, None, None))
                free[u] -= 1
                free[v] -= 1
                for x in (u, v):
                    if free[x] < 2:
                        return False
                    if free[x] == 2:
                        for f in inc[x]:
                            if state[f] is None:
                                todo.append(f)
        return True

    def undo(mark):
        nonlocal n_in
        while len(trail) > mark:
            e, a, b = trail.pop()
            u, v = ends[e]
            if state[e]:
                n_in -= 1
                deg[u] -= 1
                deg[v] -= 1
                other[a], other[b] = u, v
            else:
                free[u] += 1
                free[v] += 1
            state[e] = None

    def search():
        if n_in == n:
            cycles.append(closed_walk())
            return
        _deg, _free, x = min([(-deg[i], free[i], i) for i in range(n) if deg[i] < 2])
        e = next(f for f in inc[x] if state[f] is None)
        for decision in (e, ~e):
            mark = len(trail)
            if settle([decision]):
                search()
            undo(mark)

    def closed_walk():
        seq, edge_seq, x, e = [], [], 0, None
        for _ in range(n):
            f = next(f for f in inc[x] if state[f] and f != e)
            seq.append(order[x])
            edge_seq.append(f)
            u, v = ends[f]
            x, e = (v if u == x else u), f
        if x != 0 or len(set(seq)) != n:
            raise AssertionError("a leaf's IN edges are not one Hamiltonian cycle")
        return _make_cycle(graph, tuple(seq), edge_seq)

    if min(free) >= 2 and settle([e for es in inc if len(es) == 2 for e in es]):
        search()
    return sorted(cycles, key=lambda c: (tuple(str(x) for x in c.nodes),
                                         sorted(c.edge_indices)))


def moebius_ladder():
    """The labeled Moebius ladder on four rungs and eight nodes.

    Rim 8-cycle 0..7 with labels alternating l,t starting at edge (0,1);
    rungs (i, i+4) labeled L: one l, one t and one L edge at each node.  Its
    labeled automorphisms act transitively on the nodes.
    """
    g = LabeledGraph()
    for i in range(8):
        g.add_node(i)
    for i in range(8):
        g.add_edge(i, (i + 1) % 8, "l" if i % 2 == 0 else "t")
    for i in range(4):
        g.add_edge(i, i + 4, "L")
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
    """Type of a labeled Hamiltonian cycle: ``label_type`` of its labels.

    Rungs are the L edges, so a type-1 cycle ({4t, 4l}) uses no rung by its
    labels alone.  Raises on unlabeled edges.
    """
    if "" in cycle.labels:
        raise GraphError("cycle has unlabeled edges; cannot classify")
    return label_type(cycle.labels)


def labeled_isomorphic(g1, g2):
    """The first isomorphism of ``labeled_isomorphisms``, or None."""
    return next(labeled_isomorphisms(g1, g2), None)


def _label_table(g):
    """node -> {label: neighbour} of g, or None when an edge is unlabeled
    or a node has two edges of one label."""
    table = {n: {} for n in g.nodes}
    for u, v, lbl, _tag in g.edges:
        for a, b in ((u, v), (v, u)):
            if lbl is None or lbl in table[a]:
                return None
            table[a][lbl] = b
    return table


def _develop(table1, table2, start, image):
    """The isomorphism forced by start -> image, or None where label sets
    differ, two paths disagree, an image repeats or a node is missed."""
    mapping, stack = {start: image}, [start]
    while stack:
        node = stack.pop()
        here, there = table1[node], table2[mapping[node]]
        if here.keys() != there.keys():
            return None
        for lbl, nbr in here.items():
            if nbr not in mapping:
                mapping[nbr] = there[lbl]
                stack.append(nbr)
            elif mapping[nbr] != there[lbl]:
                return None
    complete = len(mapping) == len(table1) == len(set(mapping.values()))
    return mapping if complete else None


def labeled_isomorphisms(g1, g2):
    """Label-preserving isomorphisms g1 -> g2, generated lazily.

    The target must be connected and properly edge-coloured by its labels
    (every edge labeled, no node with two edges of one label), as the ladder
    and the links of V and of balls are; otherwise GraphError.  A source
    that is not properly coloured has no isomorphism onto it: none yielded.

    One edge per label at a node, so the image of g1's least node forces
    the rest.  ``_develop`` follows labels from it onto each node of g2 in
    sorted order, the output order (g onto g gives the identity first).  A
    complete development is one-to-one onto a node set closed under g2's
    edges, so onto g2, and sends edge (u, label) to edge (image of u,
    label), a bijection as label sets agree node by node.  Differing counts
    yield nothing; there is at most one development per node of g2.
    """
    table1, table2 = _label_table(g1), _label_table(g2)
    if table2 is None or len(components(g2.nodes, lambda n: table2[n].values())) != 1:
        raise GraphError("target must be connected and properly edge-coloured")
    if not table1:  # not properly coloured, or empty while g2 is not
        return
    start = g1.sorted_nodes()[0]
    for image in g2.sorted_nodes():
        mapping = _develop(table1, table2, start, image)
        if mapping is not None:
            yield mapping


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

    Lines: ``node <id>`` and ``edge <id1> <id2> [label]``; blank lines and
    ``#`` comments ignored.  A rung is an edge labeled L.  Raises GraphError
    with the line number on malformed input.
    """
    g = LabeledGraph()
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
        else:
            raise GraphError(f"line {lineno}: malformed record {raw.strip()!r}")
    return g
