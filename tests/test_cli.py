import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import hamsurf.cellmap
import hamsurf.census
import hamsurf.cli
import hamsurf.corecomplex
import hamsurf.surfaces
from hamsurf.cellmap import theta_maps
from hamsurf.certs import Certificate, check, to_json, to_text
from hamsurf.cli import (COMMANDS, _ladder_rung_witnesses, build_parser, cmd_check_cover, main,
                         run_commands)
from hamsurf.hamgraph import (HamCycle, LabeledGraph, angular_girth,
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
    # check-cover builds each base's radius-1 ball and expands it once;
    # find-surfaces reads P's radius-2 ball from the run's table.  A second
    # run builds its own balls.
    built = []

    def counting(fn):
        def wrapped(*args):
            ball = fn(*args)
            built.append((ball.vertex_image[ball.base], ball.radius))
            return ball
        return wrapped

    for name in ("expand_to_radius", "expand_ball"):
        monkeypatch.setattr(hamsurf.cli, name, counting(getattr(hamsurf.cli, name)))
    args = build_parser().parse_args(["check-all", "--radius", "2"])
    first = run_commands(args, COMMANDS)
    assert sorted(built) == [(b, r) for b in "PQR" for r in (1, 2)]
    built.clear()
    assert run_commands(args, COMMANDS) == first
    assert sorted(built) == [(b, r) for b in "PQR" for r in (1, 2)]


def test_check_cover_keeps_only_the_balls_read_again(V):
    # cover.idempotent is the last reader of each radius r-1 ball; the
    # radius-r balls stay, for find-surfaces
    balls = {}
    certs = cmd_check_cover(build_parser().parse_args(["check-cover", "--radius", "2"]),
                            None, V, balls)
    assert all(c.ok() for c in certs)
    assert sorted(balls) == [(b, 2) for b in "PQR"]


def test_every_chart_certificate_carries_the_chart_digest(capsys):
    _code, out = run(capsys, "check-all", "--radius", "2")
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    by_digest = {}
    for c in json.loads(out):
        by_digest.setdefault(c["fixture_digest"], []).append(c["ref"])
    assert sorted(by_digest) == ["", digest]
    assert len(by_digest[""]) == 8
    assert all(ref.startswith("ladder.") for ref in by_digest[""])
    assert not any(ref.startswith("ladder.") for ref in by_digest[digest])


def test_chart_digest_is_the_sha256_of_the_file_bytes(tmp_path, capsys):
    # line ends are part of the file: a CRLF copy of the fixture gets its own
    # digest and the same verdicts
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    crlf = tmp_path / "crlf.charts"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
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

    def counting(V):
        calls.append(V)
        return theta_maps(V)

    monkeypatch.setattr(hamsurf.cellmap, "theta_maps", counting)
    monkeypatch.setattr(hamsurf.cli, "theta_maps", counting)
    run(capsys, "check-aut")
    assert len(calls) == 1


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
     "aut.swap", "error", {"error": "edge table does not map face z to a face"}),
    ({"faceset S' : a b c d x' y' z'\n": ""},
     "aut.swap", "error", {"error": "chart file declares no faceset \"S'\""}),
])
def test_chart_mutations_end_in_certificates(tmp_path, capsys, edits, ref, status, detail):
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "mutated.charts"
    bad.write_text(text)
    code = main(["check-all", "--charts", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    by_ref = {c["ref"]: c for c in json.loads(captured.out)}
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
        else:
            assert set(aut.values()) == {"error"}


def test_check_quotient_reports_the_orientability_failure(capsys):
    code, out = run(capsys, "check-quotient")
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    failing = sorted(r for r, c in by_ref.items() if c["status"] != "pass")
    assert failing == ["quotient.genus"]
    assert by_ref["quotient.genus"]["witness"]["orientable"] is False
    assert by_ref["quotient.flat-pieces"]["status"] == "pass"


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


def test_check_all_certificates_are_pinned(capsys):
    # SHA-256 of the whole certificate JSON of check-all at radius 2.  A
    # change that alters a witness on purpose updates this digest and says
    # so in CHANGES.md.
    _code, out = run(capsys, "check-all", "--radius", "2")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "31ccda1fea660a8ab547f006622714737c1319a280bbd9d6eca67c8e535ccfa3"


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
    code, _out = run(capsys, "check-ladder", "--out", str(tmp_path))
    assert code == 0
    written = (tmp_path / "check-ladder.json").read_text()
    assert json.loads(written)


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


def test_chart_that_fails_to_build_yields_error_certificates(tmp_path, capsys):
    # parses, but triangle a's boundary word no longer closes up
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    bad = tmp_path / "open.charts"
    bad.write_text(text.replace("face a triangle : x_a+", "face a triangle : x_a-"))
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


def test_coxeter_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # under the C locale with UTF-8 mode off, a locale-encoding read fails
    # on the dash of the comment line
    shipped = resources.files("hamsurf.data").joinpath("coxeter.graph")
    graph = tmp_path / "coxeter.graph"
    graph.write_text("# Coxeter graph \u2014 28 nodes\n" + shipped.read_text(encoding="utf-8"),
                     encoding="utf-8")
    src = str(Path(hamsurf.cli.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "hamsurf.cli", "check-ladder", "--coxeter", str(graph)],
        env=env, capture_output=True, text=True, timeout=120)
    by_ref = {c["ref"]: c for c in json.loads(done.stdout)}
    assert by_ref["ladder.coxeter"]["status"] == "pass"
    assert by_ref["ladder.coxeter"]["witness"] == {"nodes": 28, "cycles": 0}


def test_coxeter_file_that_is_not_utf8_yields_an_error_certificate(tmp_path, capsys):
    bad = tmp_path / "latin1.graph"
    bad.write_bytes("# Coxeter graph \u00b7 28 nodes\n".encode("latin-1"))
    code, out = run(capsys, "check-ladder", "--coxeter", str(bad))
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    assert by_ref["ladder.coxeter"]["status"] == "error"
    assert "can't decode byte 0xb7" in by_ref["ladder.coxeter"]["witness"]["error"]


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


def test_census_budget_propagates(tmp_path, capsys):
    # with z's corners reordered the radius-2 census keeps 1,328 solutions
    # in 2,706 nodes, and at radius 3 it passes the node limit: the run
    # ends in an error certificate, not in exhausted memory
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    bad = tmp_path / "mutated.charts"
    bad.write_text(text.replace("face z lozenge : z_c+ z_b- z_d+ z_a-",
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
             Certificate(claim="other", ref="demo.other", status="fail")]
    js = to_json(certs)
    assert json.loads(js)[0]["claim"] == "demo claim"
    text = to_text(certs)
    assert "1/2 claims pass" in text


def test_s_faceset_that_is_no_surface_yields_certificates(tmp_path, capsys):
    # y' in place of y: V is unchanged, but S's link at P is not one circle
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    bad = tmp_path / "bad_s.charts"
    bad.write_text(text.replace("faceset S : a b c d x y z", "faceset S : a b c d x y' z"))
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
