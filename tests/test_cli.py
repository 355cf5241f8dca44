import hashlib
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import hamsurf.cellmap
import hamsurf.census
import hamsurf.cli
import hamsurf.corecomplex
import hamsurf.surfaces
from hamsurf.cellmap import theta_maps
from hamsurf.certs import Certificate, check, to_json, to_text
from hamsurf.cli import (COMMANDS, MAX_RADIUS, _ladder_rung_witnesses, build_parser,
                         cmd_check_cover, main, run_commands)
from hamsurf.hamgraph import (HamCycle, LabeledGraph, angular_girth, coxeter_graph,
                              enumerate_hamiltonian_cycles, labeled_isomorphisms,
                              moebius_ladder)
from oracles import networkx_vertex_transitive


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_ladder_passes(capsys):
    code, out = run(capsys, "check-ladder")
    assert code == 0
    certs = json.loads(out)
    assert all(c["status"] == "pass" for c in certs)
    assert {"claim", "ref", "status", "witness", "version", "fixture_digest"} \
        <= set(certs[0])


def test_vertex_transitivity_fails_on_a_ladder_with_moved_rungs(monkeypatch, capsys):
    # the ladder's rim with rungs 1-5 and 3-7 moved to 1-7 and 3-5: still
    # connected and properly coloured, but its labeled automorphisms move
    # node 0 only to 4, and networkx finds it not vertex transitive
    moved = LabeledGraph()
    for i in range(8):
        moved.add_edge(i, (i + 1) % 8, "l" if i % 2 == 0 else "t")
    for u, v in ((0, 4), (1, 7), (2, 6), (3, 5)):
        moved.add_edge(u, v, "L")
    assert {auto[0] for auto in labeled_isomorphisms(moved, moved)} == {0, 4}
    assert not networkx_vertex_transitive(moved)
    monkeypatch.setattr(hamsurf.cli, "moebius_ladder", lambda: moved)
    _code, out = run(capsys, "check-ladder")
    by_ref = {c["ref"]: c for c in json.loads(out)}
    assert by_ref["ladder.vertex-transitive"]["status"] == "fail"


def test_coxeter_claim_fails_on_the_graph_with_a_chord(monkeypatch, capsys):
    # the chord a0-a2 gives the Coxeter graph 24 Hamiltonian cycles, the
    # count networkx confirms in test_hamgraph
    def with_chord():
        g = coxeter_graph()
        g.add_edge("a0", "a2", None)
        return g

    monkeypatch.setattr(hamsurf.cli, "coxeter_graph", with_chord)
    code, out = run(capsys, "check-ladder")
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    assert by_ref["ladder.coxeter"]["status"] == "fail"
    assert by_ref["ladder.coxeter"]["witness"] == {"nodes": 28, "cycles": 24}


def test_rung_witnesses_name_the_first_counterexample():
    L = moebius_ladder()
    index = {frozenset(e[:2]): i for i, e in enumerate(L.edges)}
    # a six-node cycle through rungs 1-5 and 3-7: it omits the rungs 0-4 and
    # 2-6, which no rim edge joins, and its arcs have two rim edges, not three
    nodes = (1, 5, 4, 3, 7, 0)
    steps = [frozenset(p) for p in zip(nodes, nodes[1:] + nodes[:1])]
    bad = HamCycle(nodes=nodes, edge_indices=frozenset(index[p] for p in steps),
                   labels=tuple(sorted(L.edges[index[p]][2] for p in steps)))
    assert bad.labels == ("L", "L", "l", "l", "t", "t")
    omitted, used = _ladder_rung_witnesses(L, enumerate_hamiltonian_cycles(L) + [bad])
    assert omitted == {"omitted_consecutive": False, "two_rung_cycles": 5,
                       "counterexample": [[0, 4], [2, 6]]}
    assert used == {"used_distance_three": False, "two_rung_cycles": 5,
                    "counterexample": [[1, 5], [3, 7]]}


@pytest.mark.parametrize("command, calls", [("find-surfaces", 3), ("check-all", 5)])
def test_link_cycles_are_enumerated_once_per_graph(monkeypatch, capsys, command, calls):
    # check-all enumerates the ladder, the Coxeter graph and each of V's
    # three links once; propagation reads V's cycles through the covering map
    counted = []

    def counting(graph):
        counted.append(graph)
        return enumerate_hamiltonian_cycles(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("hamsurf") and module is not None:
            for key, value in list(vars(module).items()):
                if value is enumerate_hamiltonian_cycles:
                    monkeypatch.setattr(module, key, counting)
    run(capsys, command, "--radius", "2")
    assert len(counted) == calls


def test_check_cover_passes(capsys):
    code, out = run(capsys, "check-cover", "--radius", "2")
    assert code == 0
    certs = json.loads(out)
    assert len(certs) == 9
    assert all(c["status"] == "pass" for c in certs)


def test_find_surfaces_passes(capsys):
    code, out = run(capsys, "find-surfaces")
    assert code == 0
    certs = json.loads(out)
    by_ref = {c["ref"]: c for c in certs}
    assert by_ref["surfaces.two"]["witness"]["surfaces"] == 2
    assert by_ref["surfaces.census"]["status"] == "pass"
    assert by_ref["surfaces.periodicity"]["witness"]["projections"] == ["S", "S'"]


def test_find_surfaces_radius_three(capsys):
    code, out = run(capsys, "find-surfaces", "--radius", "3")
    assert code == 0
    by_ref = {c["ref"]: c for c in json.loads(out)}
    assert sorted(by_ref) == ["surfaces.census", "surfaces.hamiltonian",
                              "surfaces.periodicity", "surfaces.triangles",
                              "surfaces.two", "surfaces.type-three"]
    assert all(c["status"] == "pass" for c in by_ref.values())
    assert by_ref["surfaces.two"]["witness"] == {"radius": 3, "seeds": 224, "surfaces": 2}
    assert by_ref["surfaces.census"]["witness"]["nodes"] == 89


def test_find_surfaces_radius_four(capsys):
    # within the cap since propagation stops early at a known surface
    code, out = run(capsys, "find-surfaces", "--radius", "4")
    assert code == 0
    by_ref = {c["ref"]: c for c in json.loads(out)}
    assert len(by_ref) == 6
    assert all(c["status"] == "pass" for c in by_ref.values())
    assert by_ref["surfaces.two"]["witness"] == {"radius": 4, "seeds": 916, "surfaces": 2}
    assert by_ref["surfaces.census"]["witness"]["nodes"] == 305


def test_find_surfaces_radius_five(capsys):
    # within the cap since expansion attaches faces along the germs there
    code, out = run(capsys, "find-surfaces", "--radius", "5")
    assert code == 0
    by_ref = {c["ref"]: c for c in json.loads(out)}
    assert len(by_ref) == 6
    assert all(c["status"] == "pass" for c in by_ref.values())
    assert by_ref["surfaces.two"]["witness"] == {"radius": 5, "seeds": 3500, "surfaces": 2}
    assert by_ref["surfaces.census"]["witness"]["nodes"] == 1067


def test_find_surfaces_runs_once_per_anchor_state(monkeypatch, capsys):
    # 48 lozenge seeds with two choices each share 18 (anchor, cycle) runs
    runs = []
    full = hamsurf.surfaces._propagate

    def counting(*args, **kwargs):
        runs.append(args[1:3])
        return full(*args, **kwargs)

    monkeypatch.setattr(hamsurf.surfaces, "_propagate", counting)
    code, out = run(capsys, "find-surfaces", "--radius", "2")
    assert code == 0
    assert {c["ref"]: c for c in json.loads(out)}["surfaces.two"]["witness"]["seeds"] == 48
    assert len(runs) == len(set(runs)) == 18


def count_loads(monkeypatch, capsys, *argv):
    """Chart loads and V builds in one run of the CLI."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in ("load_default_charts", "build_V"):
        monkeypatch.setattr(hamsurf.cli, name, counting(name, getattr(hamsurf.cli, name)))
    run(capsys, *argv)
    return calls


def test_check_all_loads_the_charts_once(monkeypatch, capsys):
    calls = count_loads(monkeypatch, capsys, "check-all", "--radius", "2")
    assert calls == {"load_default_charts": 1, "build_V": 1}


@pytest.mark.parametrize("command, loads", [("check-quotient", 1), ("check-ladder", 0)])
def test_charts_are_loaded_only_for_subcommands_that_read_them(
        monkeypatch, capsys, command, loads):
    calls = count_loads(monkeypatch, capsys, command)
    assert calls == Counter({"load_default_charts": loads, "build_V": loads})


def test_check_all_builds_each_ball_once(monkeypatch):
    # check-cover grows each base's radius-2 ball from V, and its radius-1
    # ball on its own for cover.idempotent; find-surfaces reads P's radius-2
    # ball from the run's table.  A second run builds its own balls.
    built = []
    grow = hamsurf.cli.expand_to_radius

    def counting(*args):
        ball = grow(*args)
        built.append((ball.vertex_image[ball.base], ball.radius))
        return ball

    monkeypatch.setattr(hamsurf.cli, "expand_to_radius", counting)
    args = build_parser().parse_args(["check-all", "--radius", "2"])
    first = run_commands(args, COMMANDS)
    assert sorted(built) == [(b, r) for b in "PQR" for r in (1, 2)]
    built.clear()
    assert run_commands(args, COMMANDS) == first
    assert sorted(built) == [(b, r) for b in "PQR" for r in (1, 2)]


def test_check_cover_keeps_only_the_balls_read_again(V):
    # the radius-r balls stay in the run's table, for find-surfaces; the
    # radius r-1 balls grown for cover.idempotent are never kept there
    balls = {}
    certs = cmd_check_cover(build_parser().parse_args(["check-cover", "--radius", "2"]),
                            None, V, balls)
    assert all(c.ok() for c in certs)
    assert sorted(balls) == [(b, 2) for b in "PQR"]


def test_every_chart_certificate_carries_the_chart_digest(capsys, chart_text):
    _code, out = run(capsys, "check-all", "--radius", "2")
    digest = hashlib.sha256(chart_text.encode()).hexdigest()
    by_digest = {}
    for c in json.loads(out):
        by_digest.setdefault(c["fixture_digest"], []).append(c["ref"])
    assert sorted(by_digest) == ["", digest]
    assert len(by_digest[""]) == 8
    assert all(ref.startswith("ladder.") for ref in by_digest[""])
    assert not any(ref.startswith("ladder.") for ref in by_digest[digest])


def test_chart_digest_is_the_sha256_of_the_file_bytes(tmp_path, capsys, chart_text):
    # line ends are part of the file: a CRLF copy of the fixture gets its own
    # digest and the same verdicts
    crlf = tmp_path / "crlf.charts"
    crlf.write_bytes(chart_text.replace("\n", "\r\n").encode())
    digest = hashlib.sha256(crlf.read_bytes()).hexdigest()
    lf_digest = "3ed03d4d35879b11be97398a3ab9d936b671ac8bacf07c9e5c54d166794713f0"
    assert digest != lf_digest
    _code, lf_out = run(capsys, "check-all", "--radius", "1")
    _code, crlf_out = run(capsys, "check-all", "--radius", "1", "--charts", str(crlf))
    lf, crlf_certs = json.loads(lf_out), json.loads(crlf_out)
    assert {c["fixture_digest"] for c in lf} == {"", lf_digest}
    assert {c["fixture_digest"] for c in crlf_certs} == {"", digest}
    for c in lf + crlf_certs:
        del c["fixture_digest"]
    assert crlf_certs == lf


def test_check_aut_builds_the_theta_maps_once(monkeypatch, capsys):
    calls = []

    def counting(group):
        calls.append(group)
        return theta_maps(group)

    monkeypatch.setattr(hamsurf.cellmap, "theta_maps", counting)
    monkeypatch.setattr(hamsurf.cli, "theta_maps", counting)
    run(capsys, "check-aut")
    assert len(calls) == 1


def _check_all_on_edited_chart(chart_text, tmp_path, capsys, edits):
    """check-all's certificates by ref on the shipped chart with the edits
    made (``_edited_chart_certs``)."""
    return {c["ref"]: c for c in _edited_chart_certs(chart_text, tmp_path, capsys, edits)}


def _edited_chart_certs(chart_text, tmp_path, capsys, edits, *options):
    """check-all's certificates on the shipped chart with the edits made,
    after checking that it exits 1 and writes nothing to stderr."""
    text = chart_text
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "mutated.charts"
    bad.write_text(text)
    code = main(["check-all", "--charts", str(bad), *options])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    return json.loads(captured.out)


# one-line chart edits that load and build, but whose V breaks a claim
# family's computation: each must end in failing or error certificates
@pytest.mark.parametrize("edits, ref, status, detail", [
    ({"face a triangle : x_a+ y_a+ z_a+": "face a triangle : x_a+ y_b+ z_a+",
      "face b triangle : x_b+ y_b+ z_b+": "face b triangle : x_b+ y_a+ z_b+"},
     "surfaces.two", "fail", {"cell": "v6", "reason": "no admissible link cycle"}),
    ({"face x lozenge : x_c+ x_b- x_d+ x_a-": "face x lozenge : x_c+ x_d- x_b+ x_a-"},
     "surfaces.two", "fail",
     {"cell": None, "reason": "seed corner is not on exactly one admissible cycle"}),
    ({"face z lozenge : z_c+ z_b- z_d+ z_a-": "face z lozenge : z_a+ z_b- z_d+ z_c-"},
     "aut.swap", "error", {"error": "no automorphism of V has the edge table theta2"}),
    ({"faceset S' : a b c d x' y' z'\n": ""},
     "aut.swap", "error", {"error": "chart file declares no faceset \"S'\""}),
    # every x_a renamed: an entry of the theta1 table names a symbol V lacks
    ({"x_a": "x_q"},
     "aut.swap", "error", {"error": "no automorphism of V has the edge table theta1"}),
    ({"faceset S : a b c d x y z\n": ""},
     "aut.swap", "error", {"error": "chart file declares no faceset 'S'"}),
])
def test_chart_mutations_end_in_certificates(tmp_path, capsys, chart_text,
                                             edits, ref, status, detail):
    by_ref = _check_all_on_edited_chart(chart_text, tmp_path, capsys, edits)
    cert = by_ref[ref]
    assert cert["status"] == status
    if status == "fail":
        failure = cert["witness"]["first_failure"]
        assert {k: failure[k] for k in detail} == detail
        assert failure["choice"] in ("with", "other")
        assert cert["witness"]["failed_runs"] > 0
    else:
        assert cert["witness"] == detail
        aut = {r: c["status"] for r, c in by_ref.items() if r.startswith("aut.")}
        if any(old.startswith("faceset") for old in edits):
            # only the swap claim reads the facesets
            assert aut["aut.order"] == "pass"
            assert [r for r, s in aut.items() if s == "error"] == ["aut.swap"]
            # check-quotient reads S and S' off V by faceset: the missing one
            # leaves its one fixture error in place of its claims
            quotient = [c for r, c in by_ref.items() if r.startswith("quotient.")]
            assert [(c["ref"], c["status"], c["witness"]) for c in quotient] == [
                ("quotient.fixture", "error", detail)]
            assert by_ref["surfaces.periodicity"]["status"] == "fail"
        else:
            # a theta table that matches no automorphism leaves the four
            # claims about the theta maps in error; the order claims read
            # Aut(V) alone
            assert [r for r, s in aut.items() if s == "error"] == [
                "aut.tables", "aut.generate", "aut.commute", "aut.swap"]
            assert all(by_ref[r]["witness"] == detail for r in aut if aut[r] == "error")
            group = {r: (by_ref[r]["status"], by_ref[r]["witness"])
                     for r in ("aut.order", "aut.exponent-two")}
            assert group == EDITED_AUT_GROUPS[detail["error"]]


# the order claims on the charts above whose theta tables match no element
# of Aut(V): the z edit leaves a group of order 4, the renamed chart V's own
EDITED_AUT_GROUPS = {
    "no automorphism of V has the edge table theta2": {
        "aut.order": ("fail", {"order": 4}),
        "aut.exponent-two": ("pass", {"element_orders": [1, 2, 2, 2]})},
    "no automorphism of V has the edge table theta1": {
        "aut.order": ("pass", {"order": 8}),
        "aut.exponent-two": ("fail", {"element_orders": [1, 2, 2, 2, 2, 2, 4, 4]})},
}


def test_backtracking_face_word_yields_fixture_errors(tmp_path, capsys, chart_text):
    # x runs x_a+ and, cyclically, straight back along x_a-: the chart is
    # refused on loading, where V's links would have a self-loop
    edits = {"face x lozenge : x_c+ x_b- x_d+ x_a-": "face x lozenge : x_a- x_b+ x_b- x_a+",
             "face x' lozenge : x_c- x_b+ x_d- x_a+": "face x' lozenge : x_c- x_d+ x_d- x_c+",
             "recheck x' : x_c- x_b+ x_d- x_a+": "recheck x' : x_c- x_d+ x_d- x_c+"}
    by_ref = _check_all_on_edited_chart(chart_text, tmp_path, capsys, edits)
    errors = {ref: c["witness"] for ref, c in by_ref.items() if c["status"] != "pass"}
    assert errors == {ref: {"error": "face x: word backtracks along edge x_a"}
                      for ref in ("quotient.fixture", "cover.fixture", "surfaces.fixture",
                                  "aut.fixture")}


def test_first_failure_is_the_first_in_seed_order(tmp_path, capsys, chart_text):
    # seeds run by face depth, but failures are reported in face-id seed
    # order; in run order the first failure at radius 4 would be f1006's
    text = chart_text
    edits = {"face a triangle : x_a+ y_a+ z_a+": "face a triangle : x_a+ y_b+ z_a+",
             "face b triangle : x_b+ y_b+ z_b+": "face b triangle : x_b+ y_a+ z_b+"}
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "mutated.charts"
    bad.write_text(text)
    code, out = run(capsys, "find-surfaces", "--charts", str(bad), "--radius", "4")
    assert code == 1
    witness = {c["ref"]: c for c in json.loads(out)}["surfaces.two"]["witness"]
    assert witness["failed_runs"] == 1832
    assert witness["first_failure"] == {
        "seed": "f1000", "choice": "with", "cell": None,
        "reason": "seed corner is not on exactly one admissible cycle"}


# chart edits that load and build, and once ended in a traceback.  Flipping
# the signs of x's word makes x equal x', so a propagated face set has a
# trace that is not one cycle.  With x and z' reordered instead, a link of V
# is disconnected, so it has no Hamiltonian cycle and admits no
# propagation; the census, finding nothing either, must not pass on
# agreeing with it.  With y_d for y_b in b and y_b twice in y, every edge
# is still on three faces, but y and y' share no edge-symbol set, so each
# is a lozenge family of its own
FOLD_CONFLICT_EDITS = {
    "face b triangle : x_b+ y_b+ z_b+": "face b triangle : x_b+ y_d+ z_b+",
    "face y lozenge : y_b+ y_c- y_d+ y_a-": "face y lozenge : y_b+ y_c- y_b+ y_a-"}


@pytest.mark.parametrize("edits, failing", [
    ({"face x lozenge : x_c+ x_b- x_d+ x_a-": "face x lozenge : x_c- x_b+ x_d- x_a+"},
     {"surfaces.type-three": {"types": ["paths", "type3"]}}),
    ({"face x lozenge : x_c+ x_b- x_d+ x_a-": "face x lozenge : x_d- x_a+ x_c- x_b+",
      "face z' lozenge : z_b- z_c+ z_d- z_a+": "face z' lozenge : z_c- z_a+ z_d- z_b+",
      "recheck z' : z_b- z_c+ z_d- z_a+\n": ""},
     {"surfaces.two": {"surfaces": 0, "failed_runs": 96},
      "surfaces.census": {"solutions": 0, "nodes": 8}}),
    (FOLD_CONFLICT_EDITS,
     {"quotient.flat-pieces": {"pieces": {"x x'": "torus", "y": None, "y'": None,
                                          "z z'": "klein_bottle"}}}),
])
def test_validated_chart_edits_end_in_failing_certificates(tmp_path, capsys, chart_text,
                                                          edits, failing):
    by_ref = _check_all_on_edited_chart(chart_text, tmp_path, capsys, edits)
    assert by_ref["quotient.links-ladder"]["status"] == "fail"
    for ref, detail in failing.items():
        cert = by_ref[ref]
        assert cert["status"] == "fail"
        assert {k: cert["witness"][k] for k in detail} == detail


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_fold_conflict_ends_in_error_certificates(tmp_path, capsys, chart_text, radius):
    # on that chart the ball from every base meets a fold that would merge
    # two settled vertices in its second round: every cover and surfaces
    # claim is an error naming the base whose ball did not grow
    certs = [c for c in _edited_chart_certs(chart_text, tmp_path, capsys, FOLD_CONFLICT_EDITS,
                                            "--radius", str(radius))
             if c["ref"].split(".")[0] in ("cover", "surfaces")]
    assert [c["ref"] for c in certs] == (
        ["cover.verify", "cover.girth", "cover.idempotent"] * 3
        + ["surfaces.two", "surfaces.hamiltonian", "surfaces.type-three",
           "surfaces.triangles", "surfaces.periodicity", "surfaces.census"])
    bases = ["P"] * 3 + ["Q"] * 3 + ["R"] * 3 + ["P"] * 6
    for cert, base in zip(certs, bases):
        assert cert["status"] == "error"
        assert cert["witness"]["error"].startswith(
            f"growing the ball from {base}: fold would merge two settled vertices: ")


def test_check_quotient_reports_the_orientability_failure(capsys):
    code, out = run(capsys, "check-quotient")
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    failing = sorted(r for r, c in by_ref.items() if c["status"] != "pass")
    assert failing == ["quotient.genus"]
    assert by_ref["quotient.genus"]["witness"]["orientable"] is False
    assert by_ref["quotient.flat-pieces"]["status"] == "pass"


def test_sibling_claim_fails_when_s_prime_differs_from_s(tmp_path, capsys, chart_text):
    # z in place of z': S' is no longer a closed surface, so its report
    # differs from S's and the two reports must compare unequal
    bad = tmp_path / "bad_sibling.charts"
    bad.write_text(chart_text.replace("faceset S' : a b c d x' y' z'",
                                      "faceset S' : a b c d x' y' z"))
    code, out = run(capsys, "check-quotient", "--charts", str(bad))
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    assert by_ref["quotient.sibling"]["status"] == "fail"
    assert by_ref["quotient.sibling"]["witness"] == {"chi": -2, "closed": False}


def test_check_aut_reports_the_group_structure_failures(capsys):
    code, out = run(capsys, "check-aut")
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    failing = sorted(r for r, c in by_ref.items() if c["status"] != "pass")
    assert failing == ["aut.commute", "aut.exponent-two"]
    assert by_ref["aut.order"]["status"] == "pass"
    assert by_ref["aut.swap"]["status"] == "pass"


def test_check_all_exit_code(capsys):
    code, out = run(capsys, "check-all")
    assert code == 1
    certs = json.loads(out)
    failing = sorted(c["ref"] for c in certs if c["status"] != "pass")
    assert failing == ["aut.commute", "aut.exponent-two", "quotient.genus"]


# SHA-256 of the whole certificate JSON of check-all at each radius.  A
# change that alters a witness on purpose updates these digests, and the
# check-all-pin job of the Tier-1 workflow with them, and says so in
# CHANGES.md.
CHECK_ALL_PINS = {
    2: "31ccda1fea660a8ab547f006622714737c1319a280bbd9d6eca67c8e535ccfa3",
    3: "1f201cc102a0fe2ba3b59bc0e9fdcd47e47190ece0ff1e7c895f9d0642c89986",
    4: "69d8b2b1caabdb8593d5c0d68a69c7039ab7ce2227cf78e7b4dab64c6da433d9",
    5: "b2849298244a74db777ad32d21d8897338e9fe73821fb3bf4647e558b32c9e11",
}


def test_check_all_certificates_are_pinned(capsys):
    code, out = run(capsys, "check-all", "--radius", "2")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_PINS[2]


def test_check_all_certificates_are_pinned_at_radius_3(capsys):
    # the radius of the surfaces-r3 workload: the surface predicates read
    # the 49 interior vertices of the ball from P
    code, out = run(capsys, "check-all", "--radius", "3")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_PINS[3]


def test_check_all_certificates_are_pinned_at_radius_4(capsys):
    # at radius 4 the balls are grown through many more attachments and the
    # propagation seeds run out of face-id order
    code, out = run(capsys, "check-all", "--radius", "4")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_PINS[4]


def test_check_all_certificates_are_pinned_at_the_radius_cap(capsys):
    # MAX_RADIUS: the largest balls that V's cover tables serve
    assert MAX_RADIUS == 5
    code, out = run(capsys, "check-all", "--radius", "5")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_PINS[5]


def test_ci_checks_the_pinned_digests():
    # the check-all-pin job runs check-all on the other supported CPythons
    # and compares each output file with a digest of its own
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
                / "tier1.yml").read_text()
    outputs = dict(re.findall(r"check-all --radius (\d+) > (\S+)", workflow))
    digests = {name: digest for digest, name in
               re.findall(r'echo "([0-9a-f]{64})  (\S+)" \| sha256sum -c -', workflow)}
    assert {int(r): digests.get(name) for r, name in outputs.items()} == CHECK_ALL_PINS


@pytest.mark.parametrize("argv", [
    ["check-ladder", "--radius", "3"],
    ["check-ladder", "--charts", "x.charts"],
    ["check-quotient", "--radius", "3"],
    ["check-cover", "--coxeter", "x.graph"],
    ["find-surfaces", "--coxeter", "x.graph"],
    ["check-aut", "--radius", "3"],
    # the census node bound is a constant, not an option
    ["find-surfaces", "--budget", "5"],
    ["check-all", "--budget", "5"],
    # the Coxeter graph is built in code, not read from a file
    ["check-ladder", "--coxeter", "x.graph"],
    ["check-all", "--coxeter", "x.graph"],
])
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_certificates_are_byte_stable(capsys):
    _code, out1 = run(capsys, "check-ladder")
    _code, out2 = run(capsys, "check-ladder")
    assert out1 == out2


def test_out_directory(tmp_path, capsys):
    code, out = run(capsys, "check-ladder", "--out", str(tmp_path))
    assert code == 0
    written = (tmp_path / "check-ladder.json").read_text()
    assert written == out and json.loads(written)
    code, text = run(capsys, "check-ladder", "--format", "text", "--out", str(tmp_path))
    assert code == 0 and "claims pass" in text
    assert (tmp_path / "check-ladder.json").read_text() == written


def test_out_that_is_a_file_ends_in_one_error_line(tmp_path, capsys):
    # the certificates reach stdout before --out is written, and a path that
    # cannot be a directory is one line on stderr, not a traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["check-ladder", "--out", str(taken)])
    captured = capsys.readouterr()
    assert code == 2
    assert all(c["status"] == "pass" for c in json.loads(captured.out))
    assert captured.err.startswith("hamsurf: cannot write --out ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert taken.read_text() == ""


def test_text_format(capsys):
    code, out = run(capsys, "check-ladder", "--format", "text")
    assert code == 0
    assert "claims pass" in out
    assert "PASS" in out


def test_corrupted_fixture_yields_error_certificate(tmp_path, capsys):
    bad = tmp_path / "bad.charts"
    bad.write_text("edge x_a Q -> P\n")
    code, out = run(capsys, "check-quotient", "--charts", str(bad))
    assert code == 1
    certs = json.loads(out)
    assert certs[0]["status"] == "error"
    assert "line 1" in certs[0]["witness"]["error"]


def test_missing_fixture_yields_error_certificate(capsys):
    code, out = run(capsys, "check-quotient", "--charts", "/no/such/file")
    assert code == 1
    assert json.loads(out)[0]["status"] == "error"


def test_radius_cap(capsys):
    code, out = run(capsys, "check-cover", "--radius", "7")
    assert code == 1
    assert json.loads(out)[0]["status"] == "error"


def test_radius_six_exceeds_the_cap(capsys):
    code, out = run(capsys, "check-cover", "--radius", "6")
    assert code == 1
    certs = json.loads(out)
    assert [c["ref"] for c in certs] == ["cover.radius"]
    assert certs[0]["status"] == "error"
    assert certs[0]["witness"] == {"error": "radius 6 exceeds cap 5"}


def test_chart_that_fails_to_build_yields_error_certificates(tmp_path, capsys, chart_text):
    # parses, but triangle a's boundary word no longer closes up
    bad = tmp_path / "open.charts"
    bad.write_text(chart_text.replace("face a triangle : x_a+", "face a triangle : x_a-"))
    code, out = run(capsys, "check-all", "--charts", str(bad))
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out) if c["status"] == "error"}
    assert {"quotient.fixture", "cover.fixture", "surfaces.fixture",
            "aut.fixture"} <= set(by_ref)
    assert "not closed" in by_ref["cover.fixture"]["witness"]["error"]
    assert all(c["fixture_digest"] == "" for c in by_ref.values())


@pytest.mark.parametrize("command", ["check-all", "check-quotient"])
def test_chart_that_is_not_utf8_yields_error_certificates(tmp_path, capsys, command):
    bad = tmp_path / "utf16.charts"
    bad.write_bytes(b"\xff\xfe" + "edge x_a : Q -> P\n".encode("utf-16-le"))
    code = main([command, "--charts", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    errors = [c for c in json.loads(captured.out) if c["status"] == "error"]
    refs = {"check-all": ["quotient.fixture", "cover.fixture", "surfaces.fixture",
                          "aut.fixture"], "check-quotient": ["quotient.fixture"]}[command]
    assert [c["ref"] for c in errors] == refs
    assert all("can't decode byte 0xff" in c["witness"]["error"] for c in errors)


@pytest.mark.parametrize("radius", [-1, 0])
def test_cover_radius_below_one_is_an_error(capsys, radius):
    code, out = run(capsys, "check-cover", "--radius", str(radius))
    assert code == 1
    certs = json.loads(out)
    assert [(c["ref"], c["status"]) for c in certs] == [("cover.radius", "error")]
    assert "below 1" in certs[0]["witness"]["error"]


def test_cover_radius_one_passes(capsys):
    code, out = run(capsys, "check-cover", "--radius", "1")
    assert code == 0
    assert len(json.loads(out)) == 9


@pytest.mark.parametrize("radius", [-1, 0, 1])
def test_surfaces_radius_below_two_is_an_error(capsys, radius):
    code, out = run(capsys, "find-surfaces", "--radius", str(radius))
    assert code == 1
    certs = json.loads(out)
    assert [(c["ref"], c["status"]) for c in certs] == [("surfaces.radius", "error")]
    assert "below 2" in certs[0]["witness"]["error"]


def test_link_girths_are_computed_once_per_vertex_of_v(capsys, monkeypatch):
    # check-cover builds V once and verifies a ball from each of its three
    # vertices; the ladder certificate needs one more girth
    calls = []

    def counting(graph):
        calls.append(graph)
        return angular_girth(graph)

    monkeypatch.setattr(hamsurf.corecomplex, "angular_girth", counting)
    monkeypatch.setattr(hamsurf.cli, "angular_girth", counting)
    run(capsys, "check-all", "--radius", "2")
    assert len(calls) == 4


def test_census_budget_propagates(tmp_path, capsys, chart_text):
    # with z's corners reordered the radius-2 census keeps 1,328 solutions
    # in 2,706 nodes, and at radius 3 it passes the node limit: the run
    # ends in an error certificate, not in exhausted memory
    bad = tmp_path / "mutated.charts"
    bad.write_text(chart_text.replace("face z lozenge : z_c+ z_b- z_d+ z_a-",
                                "face z lozenge : z_a+ z_b- z_d+ z_c-"))
    code = main(["check-all", "--radius", "3", "--charts", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    by_ref = {c["ref"]: c for c in json.loads(captured.out)}
    assert by_ref["surfaces.census"]["status"] == "error"
    assert by_ref["surfaces.census"]["witness"] == {
        "error": f"census exceeded {hamsurf.census.NODE_LIMIT} nodes"}


def test_certificate_renderers():
    certs = [check("demo claim", "demo.ref", True, {"n": 1}),
             Certificate(claim="other", ref="demo.other", status="fail", witness={})]
    js = to_json(certs)
    assert json.loads(js)[0]["claim"] == "demo claim"
    text = to_text(certs)
    assert "1/2 claims pass" in text


def test_certificates_are_equal_exactly_when_all_six_fields_are():
    def demo():
        return check("demo claim", "demo.ref", True, {"n": 1})

    assert demo() == demo()
    assert vars(demo()) == {"claim": "demo claim", "ref": "demo.ref", "status": "pass",
                            "witness": {"n": 1}, "version": hamsurf.__version__,
                            "fixture_digest": ""}
    other_witness, stamped = demo(), demo()
    other_witness.witness = {"n": 2}
    stamped.fixture_digest = "0" * 64
    assert other_witness != demo()
    assert stamped != demo()
    assert demo() != vars(demo())


def test_s_faceset_that_is_no_surface_yields_certificates(tmp_path, capsys, chart_text):
    # y' in place of y: V is unchanged, but S's link at P is not one circle
    bad = tmp_path / "bad_s.charts"
    bad.write_text(chart_text.replace("faceset S : a b c d x y z", "faceset S : a b c d x y' z"))
    code, out = run(capsys, "check-all", "--charts", str(bad))
    assert code == 1
    by_ref = {}
    for c in json.loads(out):
        by_ref.setdefault(c["ref"], []).append(c)
    links = by_ref["quotient.links-ten"][0]
    assert links["status"] == "fail"
    assert links["witness"]["not_one_circle"] == ["P"]
    families = Counter(ref.partition(".")[0] for ref, certs in by_ref.items()
                       for c in certs if c["status"] != "error")
    assert families == {"ladder": 8, "quotient": 10, "cover": 9, "surfaces": 6, "aut": 6}
    # periodicity reads S and S' from the chart, where S is no longer a lift
    periodicity = by_ref["surfaces.periodicity"][0]
    assert periodicity["status"] == "fail"
    assert "neither" in periodicity["witness"]["projections"]
