"""Chart-file loading and construction of the quotient complex V.

The chart format is line based:

    edge <symbol> : <v_from> -> <v_to>
    face <id> <triangle|lozenge> : <sym>[+|-] ...   (3 or 4 symbols)
    recheck <id> : <sym>[+|-] ...                   (re-transcription check)
    faceset <name> : <face id> ...

No two records of one kind share a name.  Vertices are inferred from edge
declarations.  Lozenge words start at a small corner.  No face word
backtracks: no side is followed, cyclically, by the same edge run back.
``recheck`` records must match the face record of the same name up to
rotation and reversal.
The shipped fixture describes the ten-face quotient complex whose facesets
are named S and S'.

``build_V`` builds and validates V once.  The quotient surfaces are
subcomplexes of V, read off it with ``corecomplex.subcomplex`` over a
faceset: V's validation covers them.
"""

from __future__ import annotations

import hashlib
from importlib import resources

from .cellmap import word_match
from .corecomplex import (
    Complex2,
    Face,
    LOZENGE,
    TRIANGLE,
    subcomplex,
    surface_report,
    validate_complex,
)


class ChartError(ValueError):
    pass


class ChartData:
    """Parsed and validated chart file.

    ``edges`` maps each symbol to its (source, target) vertices;
    ``triangles``, ``lozenges`` and ``rechecks`` map face ids to boundary
    words; ``facesets`` maps a name to its tuple of face ids; ``digest`` is
    the SHA-256 of the chart text.  A new one is empty, and ``parse_charts``
    fills it.
    """

    def __init__(self):
        self.edges = {}
        self.triangles = {}
        self.lozenges = {}
        self.rechecks = {}
        self.facesets = {}
        self.digest = ""

    @property
    def vertices(self):
        verts = set()
        for s, t in self.edges.values():
            verts.add(s)
            verts.add(t)
        return sorted(verts)

    def lozenge_records(self):
        """All lozenge boundary records including the recheck copies."""
        out = [(fid, word) for fid, word in sorted(self.lozenges.items())]
        out += [(fid, word) for fid, word in sorted(self.rechecks.items())]
        return out

    def surface_faces(self, name):
        try:
            return self.facesets[name]
        except KeyError:
            raise ChartError(f"chart file declares no faceset {name!r}") from None


def _parse_word(tokens, lineno):
    word = []
    for tok in tokens:
        if len(tok) < 2 or tok[-1] not in "+-":
            raise ChartError(f"line {lineno}: bad oriented symbol {tok!r}")
        word.append((tok[:-1], 1 if tok[-1] == "+" else -1))
    return tuple(word)


def parse_charts(text):
    """Parse chart text; raises ChartError with line numbers."""
    cd = ChartData()
    cd.digest = hashlib.sha256(text.encode()).hexdigest()
    named = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        record = tuple(parts[:2])  # the record kind and the name it declares
        if record in named:
            raise ChartError(f"line {lineno}: duplicate {' '.join(record)}")
        named.add(record)
        if parts[0] == "edge":
            if len(parts) != 6 or parts[2] != ":" or parts[4] != "->":
                raise ChartError(f"line {lineno}: malformed edge record")
            sym, src, tgt = parts[1], parts[3], parts[5]
            cd.edges[sym] = (src, tgt)
        elif parts[0] == "face":
            if len(parts) < 5 or parts[3] != ":":
                raise ChartError(f"line {lineno}: malformed face record")
            fid, kind = parts[1], parts[2]
            if kind not in (TRIANGLE, LOZENGE):
                raise ChartError(f"line {lineno}: unknown face kind {kind!r}")
            word = _parse_word(parts[4:], lineno)
            want = 3 if kind == TRIANGLE else 4
            if len(word) != want:
                raise ChartError(
                    f"line {lineno}: {kind} {fid} has {len(word)} sides, expected {want}")
            for sym, _sign in word:
                if sym not in cd.edges:
                    raise ChartError(f"line {lineno}: undeclared edge symbol {sym!r}")
            (cd.triangles if kind == TRIANGLE else cd.lozenges)[fid] = word
        elif parts[0] == "recheck":
            if len(parts) < 4 or parts[2] != ":":
                raise ChartError(f"line {lineno}: malformed recheck record")
            cd.rechecks[parts[1]] = _parse_word(parts[3:], lineno)
        elif parts[0] == "faceset":
            if len(parts) < 4 or parts[2] != ":":
                raise ChartError(f"line {lineno}: malformed faceset record")
            cd.facesets[parts[1]] = tuple(parts[3:])
        else:
            raise ChartError(f"line {lineno}: unknown record {parts[0]!r}")
    return cd


def validate_chartdata(cd):
    """Structural checks beyond per-line parsing; raises ChartError."""
    if len(cd.edges) != 12:
        raise ChartError(f"expected 12 edge symbols, found {len(cd.edges)}")
    if len(cd.vertices) != 3:
        raise ChartError(f"expected 3 vertices, found {len(cd.vertices)}")
    if len(cd.triangles) != 4:
        raise ChartError(f"expected 4 triangles, found {len(cd.triangles)}")
    if len(cd.lozenges) != 6:
        raise ChartError(f"expected 6 lozenge faces, found {len(cd.lozenges)}")
    for fid, word in cd.rechecks.items():
        if fid not in cd.lozenges:
            raise ChartError(f"recheck {fid}: no lozenge of that name")
        if word_match(word, cd.lozenges[fid], False) is None:
            raise ChartError(
                f"recheck {fid}: word differs from the face record "
                f"(not a rotation or reversal)")
    for fid, word in list(cd.triangles.items()) + list(cd.lozenges.items()):
        for i, (sym, sign) in enumerate(word):
            if word[i - 1] == (sym, -sign):
                raise ChartError(f"face {fid}: word backtracks along edge {sym}")
    use = {}
    for word in list(cd.triangles.values()) + list(cd.lozenges.values()):
        for sym, _sign in word:
            use[sym] = use.get(sym, 0) + 1
    for sym in cd.edges:
        if use.get(sym, 0) != 3:
            raise ChartError(
                f"edge {sym} used {use.get(sym, 0)} times across V, expected 3")
    for name, faces in cd.facesets.items():
        tris = [f for f in faces if f in cd.triangles]
        lozs = [f for f in faces if f in cd.lozenges]
        unknown = [f for f in faces if f not in cd.triangles and f not in cd.lozenges]
        if unknown:
            raise ChartError(f"faceset {name}: unknown faces {unknown}")
        repeated = sorted({f for f in faces if faces.count(f) > 1})
        if repeated:
            raise ChartError(f"faceset {name}: faces listed more than once {repeated}")
        if len(tris) != 4 or len(lozs) != 3:
            raise ChartError(
                f"faceset {name}: expected 4 triangles + 3 lozenges, "
                f"got {len(tris)} + {len(lozs)}")


def _validated(text):
    cd = parse_charts(text)
    validate_chartdata(cd)
    return cd


def load_charts(path):
    """Load and validate a chart file from a filesystem path; raises
    ChartError, or OSError when the file cannot be read.  Line ends are
    kept as they are, so the digest is the SHA-256 of the file's bytes."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ChartError(f"{path}: {exc}") from None
    return _validated(text)


def load_default_charts():
    """Load the chart fixture shipped inside the package, read as
    ``load_charts`` reads a file."""
    fixture = resources.files("hamsurf.data").joinpath("brady_v.charts")
    with fixture.open(encoding="utf-8", newline="") as fh:
        return _validated(fh.read())


def build_V(cd):
    """The full ten-face quotient complex, carrying the chart's facesets;
    raises ChartError when it fails ``validate_complex``."""
    faces = [Face(fid, TRIANGLE, cd.triangles[fid]) for fid in sorted(cd.triangles)]
    faces += [Face(fid, LOZENGE, cd.lozenges[fid]) for fid in sorted(cd.lozenges)]
    V = Complex2(vertices=cd.vertices, edges=cd.edges, faces=faces)
    problems = validate_complex(V)
    if problems:
        raise ChartError("chart data fails validation: " + "; ".join(problems))
    V.facesets = dict(cd.facesets)
    return V


def lozenge_families(cx):
    """Group the lozenges of V by shared edge-symbol set.

    Returns a sorted list of (family key, [fid, fid]) pairs; in V each
    family has exactly two members, one from S and one filling lozenge.
    """
    groups = {}
    for fid, face in cx.faces.items():
        if face.kind != LOZENGE:
            continue
        key = tuple(sorted(sym for sym, _sign in face.word))
        groups.setdefault(key, []).append(fid)
    return sorted((k, sorted(v)) for k, v in groups.items())


def flat_piece_census(v_complex):
    """Surface report for each lozenge family of V.

    In V each family is an unprimed/primed pair that closes up into a flat
    piece (every corner sum 6 units); the report records closedness, Euler
    characteristic and orientability, which distinguishes the tori from the
    Klein bottle.  A family that is no closed surface of Euler
    characteristic 0, such as a lone lozenge, is a piece of kind None.
    """
    out = []
    for _key, fids in lozenge_families(v_complex):
        piece = subcomplex(v_complex, fids)
        rep = surface_report(piece)
        kind = None
        if rep.is_closed_surface and rep.euler_characteristic == 0:
            kind = "torus" if rep.orientable else "klein_bottle"
        out.append({
            "faces": tuple(fids),
            "report": rep,
            "kind": kind,
        })
    return out
