import pytest

from hamsurf.cellmap import theta_maps
from hamsurf.census import BudgetExceeded, count_surfaces_exhaustive
from hamsurf.corecomplex import Complex2, LOZENGE, TRIANGLE, trace_status
from hamsurf.cover import Ball, expand_ball, expand_to_radius
from hamsurf.hamgraph import (CycleType, angular_girth, classify_cycle,
                              enumerate_hamiltonian_cycles, labeled_isomorphic)
from hamsurf.surfaces import (Contradiction, FaceSet, SurfaceError, is_enveloping,
                              is_hamiltonian, lifted_cycles, periodicity_check,
                              propagate_surface, vertex_trace_types)


def interior_lozenge_seeds(ball):
    cx = ball.complex
    return [f for f in cx.face_ids() if cx.faces[f].kind == LOZENGE
            and any(cx.src(oe) in ball.interior_vertices for oe in cx.faces[f].word)]


def interior_triangles(ball):
    cx = ball.complex
    return {f for f in cx.face_ids() if cx.faces[f].kind == TRIANGLE
            and all(cx.src(oe) in ball.interior_vertices for oe in cx.faces[f].word)}


# --- predicates on the quotient --------------------------------------------

def test_s_is_enveloping_and_hamiltonian(V, chartdata):
    fs = FaceSet(V, chartdata.surface_faces("S"))
    assert is_enveloping(fs)[0]
    ok, witness = is_hamiltonian(fs)
    assert ok, witness
    assert set(vertex_trace_types(fs).values()) == {CycleType.TYPE3}


def test_sprime_is_hamiltonian(V, chartdata):
    fs = FaceSet(V, chartdata.surface_faces("S'"))
    assert is_hamiltonian(fs)[0]


def test_all_faces_overcover(V):
    fs = FaceSet(V, V.face_ids())
    ok, witness = is_enveloping(fs)
    assert not ok
    assert witness["reason"] == "edge coverage"
    assert witness["coverage"] == 3


def test_missing_lozenge_uncovers_edges(V, chartdata):
    members = set(chartdata.surface_faces("S")) - {"x"}
    ok, witness = is_enveloping(FaceSet(V, members))
    assert not ok and witness["reason"] == "edge coverage"


def test_two_disjoint_cycles_is_a_violation(V):
    lozenges = [f for f in V.face_ids() if V.faces[f].kind == LOZENGE]
    fs = FaceSet(V, lozenges)
    for v in V.vertices:
        status, _detail = trace_status(V.vertex_link(v), fs.members)
        assert status == "violation"
    ok, witness = is_hamiltonian(fs)
    assert not ok


def test_empty_and_partial_traces(V):
    fs = FaceSet(V, ["a"])
    status, _ = trace_status(V.vertex_link("P"), fs.members)
    assert status == "paths"
    fs0 = FaceSet(V, [])
    assert trace_status(V.vertex_link("P"), fs0.members)[0] == "empty"
    assert not is_enveloping(fs0)[0]


def test_face_set_rejects_unknown_faces(V):
    with pytest.raises(SurfaceError):
        FaceSet(V, ["nope"])


# --- link facts lifted from V ---------------------------------------------------

def test_lifted_cycles_match_direct_enumeration(V):
    """At every interior vertex the type-3 cycles carried over from V's link
    are exactly those enumerated on the vertex's own link, and the link is
    labeled-isomorphic to its image with angular girth six."""
    balls = []
    for base in V.vertices:
        b2 = expand_to_radius(V, base, 2)
        balls += [b2, expand_ball(b2)]
    checked = 0
    for ball in balls:
        cycles_at = lifted_cycles(ball)
        for v in sorted(ball.interior_vertices, key=str):
            link = ball.complex.vertex_link(v)
            direct = {frozenset(link.edges[i][3] for i in cyc.edge_indices)
                      for cyc in enumerate_hamiltonian_cycles(link)
                      if classify_cycle(cyc) is CycleType.TYPE3}
            cycles, corners = cycles_at(v)
            assert len(direct) == 2
            assert set(cycles) == direct and len(cycles) == len(direct), v
            assert corners == {tag for _u, _w, _lbl, tag in link.edges}
            image_link = V.vertex_link(ball.vertex_image[v])
            assert labeled_isomorphic(link, image_link) is not None
            assert angular_girth(link) == 6
            checked += 1
    assert checked == 3 * (9 + 49)


# --- propagation -------------------------------------------------------------

def test_two_choices_two_surfaces(ball2):
    seed = interior_lozenge_seeds(ball2)[0]
    fs_with = propagate_surface(ball2, seed, "with")
    fs_other = propagate_surface(ball2, seed, "other")
    assert seed in fs_with.members
    assert seed not in fs_other.members
    assert fs_with.members != fs_other.members
    for fs in (fs_with, fs_other):
        ok, witness = is_hamiltonian(fs)
        assert ok, witness
        assert set(vertex_trace_types(fs).values()) == {CycleType.TYPE3}


def test_all_seeds_give_the_same_two_surfaces(ball2):
    surfaces = set()
    for seed in interior_lozenge_seeds(ball2):
        for choice in ("with", "other"):
            surfaces.add(propagate_surface(ball2, seed, choice).members)
    assert len(surfaces) == 2


def test_interior_triangles_lie_on_both_surfaces(ball2):
    seed = interior_lozenge_seeds(ball2)[0]
    tris = interior_triangles(ball2)
    assert tris
    for choice in ("with", "other"):
        assert tris <= propagate_surface(ball2, seed, choice).members


def test_propagation_confluence(ball2):
    seed = interior_lozenge_seeds(ball2)[5]
    reference = propagate_surface(ball2, seed, "with").members
    for order_seed in range(8):
        got = propagate_surface(ball2, seed, "with", order_seed=order_seed).members
        assert got == reference


def test_propagation_deterministic(ball2):
    seed = interior_lozenge_seeds(ball2)[3]
    a = propagate_surface(ball2, seed, "with").members
    b = propagate_surface(ball2, seed, "with").members
    assert a == b


def test_bad_seed_and_choice_rejected(ball2):
    tri = sorted(interior_triangles(ball2))[0]
    with pytest.raises(SurfaceError):
        propagate_surface(ball2, tri, "with")
    seed = interior_lozenge_seeds(ball2)[0]
    with pytest.raises(SurfaceError):
        propagate_surface(ball2, seed, "sideways")


def _delete_face(ball, fid):
    cx = ball.complex
    faces = [cx.faces[f] for f in cx.face_ids() if f != fid]
    cx2 = Complex2(cx.vertices, dict(cx.edges), faces)
    imgs = {f: ball.face_image[f] for f in cx2.faces}
    return Ball(cx2, ball.v_complex, ball.base, ball.radius,
                ball.vertex_image, ball.edge_image, imgs,
                interior_vertices=ball.interior_vertices,
                interior_edges=ball.interior_edges)


def test_propagation_contradiction_on_damaged_ball(ball2):
    cx = ball2.complex
    base_lozenges = [f for f, _i in cx.corners_at(ball2.base)
                     if cx.faces[f].kind == LOZENGE]
    broken = _delete_face(ball2, base_lozenges[0])
    seeds = interior_lozenge_seeds(broken)
    hit = 0
    for seed in seeds:
        try:
            for choice in ("with", "other"):
                propagate_surface(broken, seed, choice)
        except (Contradiction, SurfaceError):
            hit += 1
    assert hit > 0


# --- census -------------------------------------------------------------------

def test_census_matches_propagation(ball2):
    seed = interior_lozenge_seeds(ball2)[0]
    expected = {tuple(sorted(propagate_surface(ball2, seed, c).members))
                for c in ("with", "other")}
    sols, nodes = count_surfaces_exhaustive(ball2, budget=10**8)
    assert set(sols) == expected
    assert len(sols) == 2
    assert nodes < 10**5


def test_census_radius_one(ball1):
    # only the base vertex is interior at radius 1, so every Hamiltonian
    # link cycle yields a valid local face set: five raw solutions, two of
    # which are the admissible type-3 germs that propagation picks
    sols, _nodes = count_surfaces_exhaustive(ball1, budget=10**7)
    assert len(sols) == 5
    seed = interior_lozenge_seeds(ball1)[0]
    germs = {tuple(sorted(propagate_surface(ball1, seed, c).members))
             for c in ("with", "other")}
    assert len(germs) == 2
    assert germs <= set(sols)


def test_census_budget_guard(ball2):
    with pytest.raises(BudgetExceeded):
        count_surfaces_exhaustive(ball2, budget=10)


def test_census_with_deleted_cells(ball2):
    # a lozenge lies on exactly one of the two surfaces, so removing it
    # kills that one and leaves the sibling; removing a triangle (which
    # lies on both) leaves nothing
    cx = ball2.complex
    seed = interior_lozenge_seeds(ball2)[0]
    survivors = {c: propagate_surface(ball2, seed, c).members
                 for c in ("with", "other")}
    star_loz = [f for f, _i in cx.corners_at(ball2.base)
                if cx.faces[f].kind == LOZENGE][0]
    broken = _delete_face(ball2, star_loz)
    sols, _nodes = count_surfaces_exhaustive(broken, budget=10**7)
    assert len(sols) == 1
    keeper = next(m for m in survivors.values() if star_loz not in m)
    assert sols[0] == tuple(sorted(keeper))

    tri = sorted(interior_triangles(ball2))[0]
    no_tri = _delete_face(ball2, tri)
    sols2, _nodes2 = count_surfaces_exhaustive(no_tri, budget=10**7)
    assert sols2 == []


# --- periodicity ----------------------------------------------------------------

def test_projection_hits_s_and_sprime(ball2):
    seed = interior_lozenge_seeds(ball2)[0]
    projections = {periodicity_check(ball2, propagate_surface(ball2, seed, c))
                   for c in ("with", "other")}
    assert projections == {"S", "S'"}


def test_projection_of_everything_is_neither(ball2):
    fs = FaceSet(ball2, ball2.complex.face_ids())
    assert periodicity_check(ball2, fs) == "neither"


def test_twisted_projection_swaps_surfaces(V, ball2):
    th2 = theta_maps(V)["theta2"]
    seed = interior_lozenge_seeds(ball2)[0]
    for choice in ("with", "other"):
        fs = propagate_surface(ball2, seed, choice)
        plain = periodicity_check(ball2, fs)
        twisted = periodicity_check(ball2, fs, face_twist=th2.face_map)
        assert {plain, twisted} == {"S", "S'"}
