"""Exhaustive surface census on a ball: the independent oracle.

Depth-first search over in/out assignments of the constrained faces (those
with a corner at an interior vertex or a side on an interior edge), in a
fixed order along face adjacency, with local pruning only:

* an interior edge never carries more than two member sides and must keep
  two reachable;
* a vertex trace never branches (degree <= 2 per germ) and never closes a
  cycle early;
* once every face at an interior vertex is decided, the trace must be one
  spanning cycle.

Every germ of an interior vertex also keeps two usable corners among member
and undecided faces, with no rule of its own: a germ is the end of an edge
at the vertex, its corners are exactly the face-sides of that edge, and the
edge is interior because its end vertex is, so the edge rule already keeps
two of them reachable.

Full assignments are kept when every interior edge has coverage exactly 2,
every interior vertex carries one spanning trace cycle, and the member set
is nonempty.  The members need not be connected: a surface cut down to a
ball need not stay connected, so a census that demanded it could miss a
local solution.  Without the test it returns a superset of the connected
solutions, and its agreement with propagation's pair (whose connectivity
``surfaces.is_enveloping`` checks) says at least as much as before.
Nothing here knows about cycle types or the ladder, and the module imports
nothing else from the package: agreement with the propagation engine is
the point of the module.

The search is incremental.  Faces, interior edges and the germs (link
nodes) of interior vertices are numbered once per call, and deciding a
face updates only the counters of its own cells:

* per edge, the member sides and the undecided sides;
* per germ, the degree (member corners through it), and a union-find over
  the germs joined by member corners, by size and without path compression;
* per vertex, the member corners and the undecided faces.

Backtracking undoes a decision by reversing its counter updates and
popping the unions it made off a stack.
"""

from __future__ import annotations


class BudgetExceeded(RuntimeError):
    pass


def _face_order(ball, rel):
    """The faces of rel in decision order: breadth first through the edges
    of the ball from the shallowest face, so that the local checks
    constrain every new decision immediately."""
    if not rel:
        return []
    cx = ball.complex

    def key(f):
        return (ball.face_depth(f), int(f[1:]))

    neighbors = {f: set() for f in rel}
    for sym in cx.edges:
        inc = [fid for fid, _i, _s in cx.edge_sides(sym) if fid in rel]
        for a in inc:
            for b in inc:
                if a != b:
                    neighbors[a].add(b)
    start = min(rel, key=key)
    order = [start]
    placed = {start}
    frontier = sorted(neighbors[start], key=key)
    while len(order) < len(rel):
        if not frontier:
            frontier = sorted(rel - placed, key=key)[:1]
        f = frontier.pop(0)
        if f in placed:
            continue
        order.append(f)
        placed.add(f)
        frontier.extend(g for g in sorted(neighbors[f], key=key) if g not in placed)
    return order


def count_surfaces_exhaustive(ball, budget=10**8):
    """All nonempty face sets of the ball with coverage 2 on every interior
    edge and one spanning trace cycle at every interior vertex, connected
    or not, as sorted id tuples, and the number of search nodes visited.

    Raises BudgetExceeded when the number of explored assignments passes
    the budget.

    The prune rules are those of a search that re-checks every edge and
    vertex of a decided face from scratch; stated on the counters they
    reject exactly the same partial assignments, so the node counts are
    the same.  Since the checks of a cell can only change when one of its
    faces is decided, it is enough to re-check what that decision changed:

    * Member sides and germ degrees only grow, and open sides only
      shrink, so only the counters just moved can newly pass a bound.
    * With every germ degree at most 2, a member corner whose two germs
      already share a component closes a cycle.  A closed cycle is a
      component that no later corner can join without a degree above 2,
      so the trace is spoiled exactly when a cycle closes with fewer germs
      than the link has.
    * A decided vertex passes when its member corners are as many as its
      germs: with no degree above 2 and no short cycle, that is one
      spanning cycle.
    * A germ with fewer than two corners, or an interior edge with fewer
      than two sides, fails whatever is decided, so every face on one
      prunes both ways; those faces are found once, before the search.
    """
    cx = ball.complex
    vertices = sorted(ball.interior_vertices, key=lambda v: (ball.depth[v], int(v[1:])))
    edges = sorted(ball.interior_edges, key=str)

    # corners of each interior vertex by face, as pairs of link nodes
    corners = {}
    for v in vertices:
        by_face = {}
        for (u, w, _lbl, tag) in cx.vertex_link(v).edges:
            by_face.setdefault(tag[0], []).append((u, w))
        corners[v] = by_face
    edge_faces = {sym: [fid for fid, _i, _s in cx.edge_sides(sym)] for sym in edges}
    rel = set().union(*corners.values(), *edge_faces.values())
    order = _face_order(ball, rel)
    pos = {f: k for k, f in enumerate(order)}
    n = len(order)

    # number every cell once; per face k, the cells its decision touches
    edges_of = [[] for _ in range(n)]
    sides = []
    for e, sym in enumerate(edges):
        sides.append(len(edge_faces[sym]))
        for f in edge_faces[sym]:
            edges_of[pos[f]].append(e)
    pairs_of = [[] for _ in range(n)]
    verts_of = [[] for _ in range(n)]
    germ_corners = []  # per germ, all its corners
    germs_at = []      # per vertex, its germ count
    for x, v in enumerate(vertices):
        germ_index = {}
        for f, pairs in corners[v].items():
            verts_of[pos[f]].append(x)
            for ends in pairs:
                for node in ends:
                    if node not in germ_index:
                        germ_index[node] = len(germ_corners)
                        germ_corners.append(0)
                    germ_corners[germ_index[node]] += 1
                pairs_of[pos[f]].append((x, germ_index[ends[0]], germ_index[ends[1]]))
        germs_at.append(len(germ_index))
    # a face on a germ or an edge that is short from the start prunes both ways
    short = {x for k in range(n) for (x, a, b) in pairs_of[k]
             if germ_corners[a] < 2 or germ_corners[b] < 2}
    doomed = [any(sides[e] < 2 for e in edges_of[k]) or any(x in short for x in verts_of[k])
              for k in range(n)]

    member_sides = [0] * len(edges)
    open_sides = list(sides)
    degree = [0] * len(germ_corners)
    parent = list(range(len(germ_corners)))
    size = [1] * len(germ_corners)
    unions = []
    kept = [0] * len(vertices)
    undecided = [len(corners[v]) for v in vertices]

    def find(g):
        while parent[g] != g:
            g = parent[g]
        return g

    def spanned(xs):
        ok = True
        for x in xs:
            undecided[x] -= 1
            if not undecided[x] and kept[x] != germs_at[x]:
                ok = False
        return ok

    def keep(k):
        ok = True
        for e in edges_of[k]:
            member_sides[e] += 1
            open_sides[e] -= 1
            if member_sides[e] > 2:
                ok = False
        for (x, a, b) in pairs_of[k]:
            kept[x] += 1
            degree[a] += 1
            degree[b] += 1
            if degree[a] > 2 or degree[b] > 2:
                ok = False
            ra, rb = find(a), find(b)
            if ra == rb:
                if size[ra] != germs_at[x]:
                    ok = False
            else:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
                unions.append(rb)
        return spanned(verts_of[k]) and ok

    def unkeep(k, mark):
        for x in verts_of[k]:
            undecided[x] += 1
        while len(unions) > mark:
            rb = unions.pop()
            size[parent[rb]] -= size[rb]
            parent[rb] = rb
        for (x, a, b) in pairs_of[k]:
            kept[x] -= 1
            degree[a] -= 1
            degree[b] -= 1
        for e in edges_of[k]:
            member_sides[e] -= 1
            open_sides[e] += 1

    def drop(k):
        ok = True
        for e in edges_of[k]:
            open_sides[e] -= 1
            if member_sides[e] + open_sides[e] < 2:
                ok = False
        return spanned(verts_of[k]) and ok

    def undrop(k):
        for x in verts_of[k]:
            undecided[x] += 1
        for e in edges_of[k]:
            open_sides[e] += 1

    solutions = []
    tried = [0] * n  # values tried at each level: 0, 1 (kept), 2 (dropped)
    marks = [0] * n
    nodes = 1
    if nodes > budget:
        raise BudgetExceeded(f"census exceeded {budget} nodes")
    k = 0
    while k >= 0:
        if k == n:
            members = [order[j] for j in range(n) if tried[j] == 1]
            if members and all(m == 2 for m in member_sides):
                solutions.append(tuple(sorted(members)))
            k -= 1
            continue
        t = tried[k]
        if t == 1:
            unkeep(k, marks[k])
        elif t == 2:
            undrop(k)
        if t == 2 or doomed[k]:
            tried[k] = 0
            k -= 1
            continue
        tried[k] = t + 1
        if t == 0:
            marks[k] = len(unions)
            ok = keep(k)
        else:
            ok = drop(k)
        if ok:
            k += 1
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"census exceeded {budget} nodes")
    return sorted(set(solutions)), nodes
