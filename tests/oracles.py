"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: Hamiltonian cycles by
raw permutation search and by networkx's simple-cycle search,
orientability by trying all face orientation assignments, weighted girth
by enumerating simple cycles, isomorphism and automorphism orbits via
networkx VF2.
"""

from itertools import permutations, product


def degree(g, n):
    """Number of edge ends of the LabeledGraph g at node n."""
    return sum((u == n) + (v == n) for (u, v, _l, _t) in g.edges)


def naive_hamiltonian_cycles(g):
    """All Hamiltonian cycles as frozensets of edge indices, brute force."""
    nodes = g.sorted_nodes()
    n = len(nodes)
    pairs = {}
    for idx, (u, v, _l, _t) in enumerate(g.edges):
        pairs.setdefault(frozenset((u, v)), []).append(idx)
    out = set()
    if n < 3:
        return out
    first = nodes[0]
    for perm in permutations(nodes[1:]):
        seq = [first] + list(perm)
        keys = [frozenset((seq[i], seq[(i + 1) % n])) for i in range(n)]
        if any(k not in pairs for k in keys):
            continue
        for combo in product(*(pairs[k] for k in keys)):
            out.add(frozenset(combo))
    return out


def networkx_hamiltonian_count(g):
    """The number of Hamiltonian cycles of the simple LabeledGraph g: its
    cycles through all n nodes among networkx's simple cycles of length at
    most n.  networkx reports node cycles, so parallel edges are refused."""
    import networkx as nx

    G = nx.Graph(to_networkx(g, labeled=False))
    if G.number_of_edges() != len(g.edges):
        raise ValueError("parallel edges: networkx counts node cycles")
    n = G.number_of_nodes()
    return sum(len(c) == n for c in nx.simple_cycles(G, length_bound=n))


def networkx_vertex_transitive(g):
    """Whether the unlabeled g has one orbit: the images of its first node
    under every automorphism that networkx's GraphMatcher lists."""
    from networkx.algorithms.isomorphism import GraphMatcher

    G = to_networkx(g, labeled=False)
    first = next(iter(G.nodes))
    images = {m[first] for m in GraphMatcher(G, G).isomorphisms_iter()}
    return len(images) == G.number_of_nodes()


def brute_orientable(cx):
    """Try all 2^F orientation flips; None when some edge is not 2-sided."""
    fids = cx.face_ids()
    sides = {}
    for sym in cx.edges:
        s = cx.edge_sides(sym)
        if len(s) != 2:
            return None
        sides[sym] = s
    for bits in product((0, 1), repeat=len(fids)):
        flip = dict(zip(fids, bits))
        good = True
        for sym, ((f1, _i1, s1), (f2, _i2, s2)) in sides.items():
            d1 = s1 * (-1 if flip[f1] else 1)
            d2 = s2 * (-1 if flip[f2] else 1)
            if d1 == d2:
                good = False
                break
        if good:
            return True
    return False


def brute_weighted_girth(g, weights):
    """Minimum cycle weight by enumerating all simple cycles."""
    adj = {n: [] for n in g.nodes}
    for idx, (u, v, _l, _t) in enumerate(g.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    best = [None]

    def walk(start, node, used_edges, used_nodes, total):
        for nbr, idx in adj[node]:
            if idx in used_edges:
                continue
            w = total + weights[g.edges[idx][2]]
            if best[0] is not None and w >= best[0]:
                continue
            if nbr == start and len(used_edges) >= 1:
                best[0] = w if best[0] is None or w < best[0] else best[0]
                continue
            if nbr in used_nodes:
                continue
            walk(start, nbr, used_edges | {idx}, used_nodes | {nbr}, w)

    for start in g.sorted_nodes():
        walk(start, start, frozenset(), frozenset((start,)), 0)
    return best[0]


def networkx_connected(g):
    import networkx as nx

    return nx.is_connected(to_networkx(g))


def to_networkx(g, labeled=True):
    import networkx as nx

    G = nx.MultiGraph()
    for n in g.nodes:
        G.add_node(n)
    for (u, v, lbl, _t) in g.edges:
        G.add_edge(u, v, label=lbl if labeled else None)
    return G


def _same_labels(a, b):
    """Whether two networkx multi-edge bundles carry one label multiset."""
    return (sorted(d["label"] or "" for d in a.values())
            == sorted(d["label"] or "" for d in b.values()))


def networkx_isomorphic(g1, g2):
    import networkx as nx

    return nx.is_isomorphic(to_networkx(g1), to_networkx(g2), edge_match=_same_labels)


def networkx_isomorphisms(g1, g2):
    """Every label-preserving isomorphism g1 -> g2 as a node dict, listed by
    networkx's MultiGraphMatcher with edges matched on label multisets."""
    from networkx.algorithms.isomorphism import MultiGraphMatcher

    matcher = MultiGraphMatcher(to_networkx(g1), to_networkx(g2), edge_match=_same_labels)
    return list(matcher.isomorphisms_iter())


def brute_surfaces(ball):
    """All nonempty face sets of the ball with coverage 2 on every interior
    edge and one cycle through all germs at every interior vertex, as
    sorted id tuples, by trying every subset of the constrained faces.

    Corners and germs are read off the face words and the edge table here,
    not through the complex's indexes or the library's trace code.
    """
    cx = ball.complex
    corners = {v: [] for v in ball.interior_vertices}
    germs = {v: set() for v in ball.interior_vertices}
    for sym, (s, t) in cx.edges.items():
        germs.get(s, set()).add((sym, 1))
        germs.get(t, set()).add((sym, -1))
    for fid, face in cx.faces.items():
        for i, (sym, sign) in enumerate(face.word):
            # corner i sits where letter i leaves, between the reversed
            # letter i-1 and letter i
            v = cx.edges[sym][0 if sign > 0 else 1]
            if v in corners:
                prev_sym, prev_sign = face.word[i - 1]
                corners[v].append((fid, (prev_sym, -prev_sign), (sym, sign)))
    sides = [[fid for fid, face in cx.faces.items() for s, _ in face.word if s == sym]
             for sym in ball.interior_edges]
    faces = sorted({f for cs in corners.values() for f, _a, _b in cs}
                   | {f for fs in sides for f in fs})
    out = []
    for bits in product((False, True), repeat=len(faces)):
        members = {f for f, b in zip(faces, bits) if b}
        if (members and all(sum(f in members for f in fs) == 2 for fs in sides)
                and all(_one_cycle(germs[v], [(a, b) for f, a, b in cs if f in members])
                        for v, cs in corners.items())):
            out.append(tuple(sorted(members)))
    return sorted(out)


def _one_cycle(nodes, links):
    """Whether the links, pairs of nodes, form one cycle through every node:
    each node on two link ends, and a walk from one node comes back only
    after crossing every link."""
    at = {n: [] for n in nodes}
    for j, (a, b) in enumerate(links):
        at[a].append(j)
        at[b].append(j)
    if not nodes or any(len(js) != 2 for js in at.values()):
        return False
    start = node = next(iter(nodes))
    came, steps = None, 0
    while node != start or came is None:
        came = at[node][1] if at[node][0] == came else at[node][0]
        a, b = links[came]
        node = b if a == node else a
        steps += 1
    return steps == len(links)


def naive_corner_lift(ball, v):
    """``Ball.corner_lift`` by sorted lists: v's germ images sorted against
    its image p's germs, its corner images sorted against p's corners, then
    each corner's two germ images against its image corner's, read from V."""
    cx, V, p = ball.complex, ball.v_complex, ball.vertex_image[v]
    germs = sorted((ball.edge_image[e], s) for e, s in cx.germs_at(v))
    if p not in V.vertices or germs != sorted(V.germs_at(p)):
        return None
    lift = {(f, i): (ball.face_image[f], i) for f, i in cx.corners_at(v)}
    if sorted(lift.values()) != sorted(V.corners_at(p)):
        return None
    for (f, i), image in lift.items():
        (e1, s1), (e2, s2) = cx.corner_germs(f, i)
        if ((ball.edge_image[e1], s1), (ball.edge_image[e2], s2)) != V.corner_germs(*image):
            return None
    return lift
