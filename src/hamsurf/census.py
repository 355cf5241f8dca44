"""Exhaustive surface census on a ball: the independent oracle.

Depth-first search over in/out assignments of the constrained faces, in a
fixed order along face adjacency, with two local rules:

* the edge rule: a constrained edge never carries more than two member
  sides and keeps two reachable among member and undecided sides;
* the cycle rule: a member corner at an interior vertex never closes a
  trace cycle through fewer germs than the vertex has.

The constrained edges are the interior edges and every edge at an
interior vertex; the constrained faces are those with a side on one of
them, which include every face with a corner at an interior vertex.

The lemma that makes two rules enough: a germ of a vertex is one end of
an edge, and its corners are exactly that edge's face-sides, since each
side (f, i) on an edge gives one corner at each of its two germs.  So the
trace degree of a germ always equals the member sides of its edge, and
the edge rule on the edges at an interior vertex is the rule that no germ
has trace degree above 2 and that every germ keeps two usable corners.
Once every face at an interior vertex is decided, its germs all have
degree 2; the trace is then a union of cycles through every germ, each
checked by the cycle rule when it closed, so it is one spanning cycle.

The edge rule also forces, as unit propagation does in DPLL (Davis,
Logemann and Loveland, CACM 1962).  An edge with two member sides admits
no further member, so its undecided faces are forced out; an edge whose
member and undecided sides number exactly two admits no further drop, so
its undecided faces are forced in.  A forced value is the only value the
edge rule admits, so forcing removes only branches that a search which
merely rejected would prune later, and the solution set is unchanged.
The cycle rule only rejects.

Full assignments are kept when every constrained edge has coverage
exactly 2 (so every interior vertex carries one spanning trace cycle) and
the member set is nonempty.  The first needs no test at a leaf: the edge
rule checks each constrained edge after its last face is assigned, when
no undecided side is left, and then admits exactly two member sides.  The
second rejects the empty leaf of a ball with no constrained edge.  The
members need not be connected: a surface cut down to a ball need not stay
connected, so a census that demanded it could miss a local solution.
Without the test it returns a superset of the connected solutions, and
its agreement with propagation's pair (whose connectivity
``surfaces.is_enveloping`` checks) says at least as much as before.
Nothing here knows about cycle types or the ladder, and the module
imports nothing else from the package: agreement with the propagation
engine is the point of the module.

The fixed order is breadth first through shared edges (``_face_order``):
it starts at the least constrained face by (face depth, face number),
and each face placed reads its neighbours off its own edges' sides and
queues those not yet placed in that key order.  It is built from sets, so
the tests pin it by digest.

The search is incremental.  Faces, constrained edges and the germs of
interior vertices are numbered once per call, and assigning a face
updates only the state of its own cells: per edge, the member sides and
the undecided sides; per germ, a union-find over the germs joined by
member corners, by size and without path compression.  Every assigned
face, decided or forced, goes on a trail; backtracking pops the trail
back to the decision's mark, reversing each face's counter updates, and
pops the unions made since then off a stack.
"""

from __future__ import annotations

from collections import deque


NODE_LIMIT = 10**4  # from P on the shipped chart: 32 to 1,067 nodes at r=2-5


class BudgetExceeded(RuntimeError):
    pass


def _face_order(ball, rel):
    """The faces of rel in decision order: breadth first through the edges
    of the ball from the shallowest face, so that the local checks
    constrain every new decision immediately.

    A face's neighbours are the other faces of rel with a side on one of
    its own edges, read from its word when it is placed; those not yet
    placed join the frontier in key order.  When the frontier runs dry,
    the least unplaced face starts the next component."""
    if not rel:
        return []
    faces, sides = ball.complex.faces, ball.complex.edge_sides
    key = {f: (ball.face_depth(f), int(f[1:])) for f in rel}.__getitem__
    order = []
    placed = set()
    frontier = deque([min(rel, key=key)])
    while len(order) < len(rel):
        if not frontier:
            frontier.append(min(rel - placed, key=key))
        f = frontier.popleft()
        if f in placed:
            continue
        order.append(f)
        placed.add(f)
        frontier.extend(sorted({g for sym, _sign in faces[f].word for g, _i, _s in sides(sym)
                                if g in rel and g not in placed}, key=key))
    return order


def count_surfaces_exhaustive(ball):
    """All nonempty face sets of the ball with coverage 2 on every interior
    edge and one spanning trace cycle at every interior vertex, connected
    or not, as sorted id tuples, and the number of search nodes visited:
    the root and every decision whose propagation met no contradiction.
    Forced assignments are not nodes.

    Raises BudgetExceeded when the number of nodes passes NODE_LIMIT, a
    safety bound against bad charts that no census of the shipped one nears.

    Lemma: each face-side on an edge gives one corner at each of the
    edge's two germs, so a germ's trace degree is the number of member
    sides of its edge.  The edge rule on the edges at an interior vertex
    is therefore also the rule that no germ branches and every germ keeps
    two usable corners, and the two rules reject exactly the partial
    assignments that a search re-checking every edge, germ and vertex of
    an assigned face from scratch rejects.  Since the checks of a cell can
    only change when one of its faces is assigned, it is enough to
    re-check what that assignment changed:

    * Member sides only grow and undecided sides only shrink, so only the
      counters just moved can newly pass a bound, or newly force.
    * With every germ degree at most 2, a member corner whose two germs
      already share a component closes a cycle.  A closed cycle is a
      component that no later corner can join without a degree above 2,
      so the trace is spoiled exactly when a cycle closes with fewer germs
      than the vertex has.
    * A decided vertex needs no check of its own: its edges have no
      undecided sides left, so the edge rule holds each germ at degree
      exactly 2, and every cycle of the trace passed the cycle rule.
    * An edge with fewer than two sides fails whatever is decided.  On a
      ball over V it cannot occur, since interior edges have three sides;
      on a damaged ball the search finds it at its root, and visits
      nothing else.

    Soundness of forcing: a face is forced only when its other value
    would break the edge rule on that edge at once (a third member side,
    or fewer than two reachable sides).  Member sides only grow and
    undecided sides only shrink along a branch, so no leaf below carries
    the other value: forcing removes only branches that a search which
    merely rejects prunes later, and the solutions are the same.  Forced
    faces arrive out of the fixed order, which the cycle rule allows: with
    germ degrees at most 2 a component that holds a cycle is that cycle,
    whichever corner closed it.  After each decision the forcing runs to a
    fixpoint; the next decision is the first undecided face in the fixed
    order.
    """
    cx = ball.complex
    vertices = [v for v in cx.vertices if v in ball.interior_vertices]
    edges = sorted(ball.interior_edges | {sym for v in vertices for sym, _ in cx.germs_at(v)},
                   key=str)
    edge_faces = [[fid for fid, _i, _s in cx.edge_sides(sym)] for sym in edges]
    order = _face_order(ball, set().union(*edge_faces))
    pos = {f: k for k, f in enumerate(order)}
    n = len(order)

    # number every cell once; per edge, the faces of its sides; per face k,
    # the edges its assignment touches
    faces_on = [[pos[f] for f in faces] for faces in edge_faces]
    edges_of = [[] for _ in range(n)]
    for e, faces in enumerate(faces_on):
        for k in faces:
            edges_of[k].append(e)
    # per face, its corners as pairs of germs, numbered on first sight; per
    # germ, the number of germs at its vertex
    pairs_of = [[] for _ in range(n)]
    span = []
    for v in vertices:
        germ = {}
        for f, i in cx.corners_at(v):
            a, b = (germ.setdefault(g, len(span) + len(germ)) for g in cx.corner_germs(f, i))
            pairs_of[pos[f]].append((a, b))
        span += [len(germ)] * len(germ)

    value = [None] * n  # per face: None undecided, True member, False out
    trail = []          # assigned faces, in the order they were assigned
    member_sides = [0] * len(edges)
    open_sides = [len(faces) for faces in faces_on]
    parent = list(range(len(span)))
    size = [1] * len(span)
    unions = []

    def find(g):
        while parent[g] != g:
            g = parent[g]
        return g

    def assign(k, keep):
        # the face's counter updates and unions; False when a member corner
        # closes a cycle short of its vertex's germs
        value[k] = keep
        trail.append(k)
        for e in edges_of[k]:
            open_sides[e] -= 1
            if keep:
                member_sides[e] += 1
        ok = True
        if keep:
            for a, b in pairs_of[k]:
                ra, rb = find(a), find(b)
                if ra == rb:
                    if size[ra] != span[a]:
                        ok = False
                else:
                    if size[ra] < size[rb]:
                        ra, rb = rb, ra
                    parent[rb] = ra
                    size[ra] += size[rb]
                    unions.append(rb)
        return ok

    def propagate(mark, todo):
        # the edge rule on the edges in todo, then on every edge of the faces
        # assigned since the mark, including those this forcing assigns, up
        # to a fixpoint: False when it fails on an edge, else each undecided
        # face of an edge is assigned the one value the rule leaves it
        i = mark
        while True:
            for e in todo:
                m, o = member_sides[e], open_sides[e]
                if m > 2 or m + o < 2:
                    return False
                if o and (m == 2 or m + o == 2):
                    keep = m < 2
                    for k in faces_on[e]:
                        if value[k] is None and not assign(k, keep):
                            return False
            if i == len(trail):
                return True
            todo = edges_of[trail[i]]
            i += 1

    def undo(mark, union_mark):
        while len(unions) > union_mark:
            rb = unions.pop()
            size[parent[rb]] -= size[rb]
            parent[rb] = rb
        while len(trail) > mark:
            k = trail.pop()
            for e in edges_of[k]:
                open_sides[e] += 1
                if value[k]:
                    member_sides[e] -= 1
            value[k] = None

    solutions = []
    decisions = []  # per decision: its face, trail mark and union mark
    nodes = 1
    # the edge rule at the root: an edge with fewer than two sides fails
    # whatever is decided, and an edge with exactly two forces them in
    ok = propagate(0, range(len(edges)))
    k = 0
    while True:
        if ok:
            while k < n and value[k] is not None:
                k += 1
            if k == n:
                members = [order[j] for j in range(n) if value[j]]
                if members:
                    solutions.append(tuple(sorted(members)))
                ok = False
                continue
            mark = len(trail)
            decisions.append((k, mark, len(unions)))
            keep = True
        else:
            # back to the last decision still to be tried out
            while decisions and not value[decisions[-1][0]]:
                decisions.pop()
            if not decisions:
                break
            k, mark, union_mark = decisions[-1]
            undo(mark, union_mark)
            keep = False
        ok = assign(k, keep) and propagate(mark, ())
        if ok:
            nodes += 1
            if nodes > NODE_LIMIT:
                raise BudgetExceeded(f"census exceeded {NODE_LIMIT} nodes")
    return sorted(solutions), nodes
