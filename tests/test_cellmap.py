import pytest

from hamsurf.cellmap import (CellMap, CellMapError, automorphism_group, check_cellmap,
                             generated_subgroup, identity_map, isomorphisms,
                             map_from_edge_table, theta_maps,
                             verify_theta_relations, word_match)
from hamsurf.corecomplex import LOZENGE, TRIANGLE, Complex2, Face


def test_identity_is_valid(V):
    ident = identity_map(V)
    assert check_cellmap(ident) == []
    assert ident.is_identity()
    assert ident.order() == 1


DAMAGED_THETA2 = [
    # R -> R beside Q -> R: nothing reaches Q, and the edges at R lose an end
    (dict(vertex={"R": "R"}),
     ["vertex map is not onto the target vertices",
      *(f"edge y_{k}: target does not commute" for k in "abcd"),
      *(f"edge z_{k}: source does not commute" for k in "abcd")]),
    (dict(edge={"x_a": ("w", -1)}),
     ["edge x_a: image w undeclared", "edge map is not a bijection on symbols",
      "face a: word does not match face a", "face x: word does not match face y'",
      "face x': word does not match face y"]),
    # y_a forwards, not reversed: P -> R where Q -> P should go to R -> P
    (dict(edge={"x_a": ("y_a", 1)}),
     ["edge x_a: source does not commute", "edge x_a: target does not commute",
      "face a: word does not match face a", "face x: word does not match face y'",
      "face x': word does not match face y"]),
    (dict(face={"a": "x"}),
     ["face a: kind changes under the map", "face map is not onto the target faces"]),
    # b and c kept in place while their edges are swapped
    (dict(face={"b": "b", "c": "c"}),
     ["face b: word does not match face b", "face c: word does not match face c"]),
    # theta2 sends b onto c; c onto c as well leaves b without a preimage
    (dict(face={"c": "c"}),
     ["face c: word does not match face c", "face map is not onto the target faces"]),
]


@pytest.mark.parametrize("damage, problems", DAMAGED_THETA2, ids=[
    "vertex-not-onto", "edge-undeclared", "edge-ends", "face-kind", "face-word",
    "two-faces-onto-one"])
def test_check_cellmap_names_each_damage(V, damage, problems):
    theta2 = theta_maps(V)["theta2"]
    assert check_cellmap(theta2) == []
    damaged = CellMap(V, V, {**theta2.vertex_map, **damage.get("vertex", {})},
                      {**theta2.edge_map, **damage.get("edge", {})},
                      {**theta2.face_map, **damage.get("face", {})})
    assert check_cellmap(damaged) == problems


def test_word_match_parity():
    w = (("a", 1), ("b", -1), ("c", 1), ("d", -1))
    rot2 = w[2:] + w[:2]
    rot1 = w[1:] + w[:1]
    assert word_match(w, rot2, even_rotation_only=True) is not None
    assert word_match(w, rot1, even_rotation_only=True) is None
    assert word_match(w, rot1, even_rotation_only=False) is not None
    rev = tuple((s, -sg) for s, sg in reversed(w))
    assert word_match(w, rot2, even_rotation_only=False) is not None
    assert word_match(w, rev, even_rotation_only=False) is not None
    assert word_match(w, (("a", 1), ("b", 1), ("c", 1), ("d", 1)),
                      even_rotation_only=False) is None


def test_theta_tables_are_automorphisms(V):
    thetas = theta_maps(V)
    for name, m in thetas.items():
        assert check_cellmap(m) == [], name
        assert m.compose(m).is_identity(), name
        assert m.order() == 2, name


def test_theta_face_actions(V, chartdata):
    thetas = theta_maps(V)
    t1, t2, t3 = thetas["theta1"], thetas["theta2"], thetas["theta3"]
    # theta1 swaps the a/d and b/c charts and fixes every lozenge
    assert {k: t1.face_map[k] for k in "abcd"} == {"a": "d", "b": "c", "c": "b", "d": "a"}
    assert all(t1.face_map[f] == f for f in V.faces if V.faces[f].kind == LOZENGE)
    # theta2 exchanges the primed and unprimed lozenges across families
    assert t2.face_map["x"] == "y'" and t2.face_map["y"] == "x'"
    assert t2.face_map["z"] == "z'" and t2.face_map["z'"] == "z"
    # and takes the S faceset exactly onto S'
    img = {t2.face_map[f] for f in chartdata.surface_faces("S")}
    assert img == set(chartdata.surface_faces("S'"))
    # computed triangle action of theta2: fixes a and d, swaps b and c
    assert {k: t2.face_map[k] for k in "abcd"} == {"a": "a", "b": "c", "c": "b", "d": "d"}
    # theta3 swaps the a/b and c/d charts and fixes every lozenge
    assert {k: t3.face_map[k] for k in "abcd"} == {"a": "b", "b": "a", "c": "d", "d": "c"}
    assert all(t3.face_map[f] == f for f in V.faces if V.faces[f].kind == LOZENGE)


def test_theta2_vertex_action(V):
    t2 = theta_maps(V)["theta2"]
    assert t2.vertex_map == {"P": "P", "Q": "R", "R": "Q"}


def test_automorphism_group_order_eight(V):
    group = automorphism_group(V)
    assert len(group) == 8
    # frozen from the exhaustive search: dihedral profile, two order-4 maps
    assert sorted(m.order() for m in group) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_group_closed_under_composition(V):
    group = automorphism_group(V)
    keys = {m.key() for m in group}
    for a in group:
        for b in group:
            assert a.compose(b).key() in keys


def test_every_automorphism_preserves_structure(V):
    for m in automorphism_group(V):
        assert check_cellmap(m) == []
        for fid, gid in m.face_map.items():
            assert V.faces[fid].kind == V.faces[gid].kind
        for sym, (img, _sign) in m.edge_map.items():
            assert V.edge_face_degree(sym) == V.edge_face_degree(img)


def test_theta_relations_report(V):
    rep = verify_theta_relations(theta_maps(V), automorphism_group(V))
    assert rep["group_order"] == 8
    assert all(rep["members"].values())
    assert all(rep["involutive"].values())
    assert rep["generates_group"]
    assert rep["generated_order"] == 8
    # the two machine-checked deviations from the claimed group structure
    assert rep["commute"]["theta1*theta2"] is True
    assert rep["commute"]["theta1*theta3"] is True
    assert rep["commute"]["theta2*theta3"] is False
    assert rep["exponent_two"] is False
    assert rep["element_orders"] == [1, 2, 2, 2, 2, 2, 4, 4]


def test_theta23_squares_to_theta1(V):
    thetas = theta_maps(V)
    prod = thetas["theta2"].compose(thetas["theta3"])
    assert prod.order() == 4
    assert prod.compose(prod) == thetas["theta1"]


def test_generated_subgroup_of_single_involution(V):
    t1 = theta_maps(V)["theta1"]
    assert len(generated_subgroup([t1])) == 2


def test_s_and_sprime_are_isomorphic(S, Sprime):
    isos = isomorphisms(S, Sprime)
    assert len(isos) == 4
    for m in isos:
        assert check_cellmap(m) == []


def test_isomorphisms_refuse_a_shared_side_key():
    # two triangles on edge e: both sides read (triangle, t) at each end,
    # so a face across e is not forced and the search must refuse
    cx = Complex2(
        ["u", "v", "w", "x"],
        {"e": ("u", "v"), "f": ("v", "w"), "g": ("w", "u"),
         "h": ("v", "x"), "k": ("x", "u")},
        [Face("A", TRIANGLE, (("e", 1), ("f", 1), ("g", 1))),
         Face("B", TRIANGLE, (("e", 1), ("h", 1), ("k", 1)))])
    with pytest.raises(CellMapError, match="share a side key"):
        isomorphisms(cx, cx)


def test_bad_edge_table_rejected(V):
    with pytest.raises(CellMapError):
        map_from_edge_table(V, {"x_a": "y_a"})  # breaks source/target
    with pytest.raises(CellMapError):
        map_from_edge_table(V, {"x_a": "x_b"})  # not injective


def test_isomorphisms_deterministic(V):
    g1 = automorphism_group(V)
    g2 = automorphism_group(V)
    assert [m.key() for m in g1] == [m.key() for m in g2]
