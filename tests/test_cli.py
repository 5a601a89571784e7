import hashlib
import json
import os
import subprocess
import sys

import pytest

import annulus
from annulus.fusion import FusionResult
from annulus.levinwen import (
    defect_line_patch, hexagon_chain_patch, patch_to_json,
)
from annulus.structures import (
    associator_compound, compound_to_json, horizontal_compound,
    vertical_compound,
)
from annulus.defects import parse_defect, trivial_defect
from annulus.walls import BimoduleLabel, wall

# the CLI runs the package these tests import, installed or not
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(annulus.__file__))


def run_cli(*args, **env):
    path = os.pathsep.join(
        filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "annulus.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def test_fuse_vertical_spec_example():
    r = run_cli("fuse-vertical", "-p", "5", "RFr(x=1;r=2)", "FrR(z=3;r=2)")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    got = dict(map(tuple, doc["outcomes"][0]["defects"]))
    want = {f"RR(a={a},x={(4 - 2 * a) % 5})": 1 for a in range(5)}
    assert got == want
    # round trip: emitted JSON re-parses to an equal FusionResult
    assert FusionResult.from_json(doc).to_json() == doc


def test_determinism():
    a = run_cli("associator", "-p", "3", "R", "Fq:2", "R")
    b = run_cli("associator", "-p", "3", "R", "Fq:2", "R")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_associator_golden_diff_clean():
    r = run_cli("associator", "-p", "2", "--table", "--golden")
    assert r.returncode == 0, r.stderr


def test_associator_golden_from_file_and_mismatch(tmp_path):
    from annulus.fusion import load_golden_associators

    golden = load_golden_associators()
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    r = run_cli("associator", "-p", "2", "R", "Fq:1", "R", "--golden", str(path))
    assert r.returncode == 0, r.stderr
    # corrupt one delta: the diff must fail with the golden-mismatch code
    golden["cells"]["R|F|R"]["deltas"] = []
    path.write_text(json.dumps(golden))
    r = run_cli("associator", "-p", "2", "R", "Fq:1", "R", "--golden", str(path))
    assert r.returncode == 5
    assert "golden" in r.stderr


def test_parse_error_exit_code():
    r = run_cli("fuse-vertical", "-p", "5", "bogus(", "RFr(x=1;r=2)")
    assert r.returncode == 2
    r = run_cli("fuse-vertical", "-p", "4", "RR(0,0)", "RR(0,0)")
    assert r.returncode == 2


def test_wall_mismatch_exit_code():
    r = run_cli("fuse-vertical", "-p", "3", "RFr(x=0;r=1)", "FrR(z=0;r=2)")
    assert r.returncode == 3
    assert "mismatch" in r.stderr


def test_a_corner_value_is_one_point_of_the_sweep():
    """`--corner` values, reduced mod p, give the full sweep's outcome at
    that point; an unknown or a missing corner name exits 2 with its
    message."""
    walls = ("associator", "-p", "5", "T", "T", "T")
    sweep = json.loads(run_cli(*walls).stdout)
    outcome = {tuple(o["corners"]): o for o in sweep["outcomes"]}
    for values in ((1, 2, 1, 2), (1, 2, 3, 4), (6, 12, 1, -3)):
        r = run_cli(*walls, *(arg for name, v in zip(
            ("mu0", "mu1", "nu0", "nu1"), values)
            for arg in ("--corner", f"{name}={v}")))
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        point = tuple(v % 5 for v in values)
        assert doc["outcomes"] == [outcome[point]]
        assert doc["constraints"] is None
    for extra, message in (
            (("--corner", "nu1=2", "--corner", "qq=1"),
             "error: unknown corner names ['qq']\n"),
            ((), "error: missing corner values ['nu1']\n")):
        r = run_cli(*walls, "--corner", "mu0=1", "--corner", "mu1=2",
                    "--corner", "nu0=3", *extra)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", message)


def test_size_limit_exit_code(tmp_path, monkeypatch):
    """Every command that builds a compound stops at ANNULUS_MAX_BASIS with
    the size-limit code."""
    doc = compound_to_json(vertical_compound(
        parse_defect("TT(a=0,b=0)", 5), parse_defect("TT(a=0,b=0)", 5)))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    for args in (("decompose", str(path)),
                 ("associator", "-p", "3", "T", "T", "T"),
                 ("fuse-horizontal", "-p", "3", "TT(a=0,b=0)", "TT(a=1,b=0)"),
                 ("fuse-vertical", "-p", "3", "TT(a=0,b=0)", "TT(a=1,b=0)")):
        r = run_cli(*args, ANNULUS_MAX_BASIS="3")
        assert r.returncode == 4, (args, r.stderr)
        assert "Traceback" not in r.stderr


def test_malformed_size_limit_is_a_usage_error(tmp_path):
    """A value of ANNULUS_MAX_BASIS that is no non-negative integer stops
    every command with the usage code and a message that names it."""
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps(compound_to_json(vertical_compound(
        parse_defect("TT(a=0,b=0)", 3), parse_defect("TT(a=0,b=0)", 3)))))
    patch = tmp_path / "patch.json"
    patch.write_text(json.dumps(patch_to_json(defect_line_patch(2))))
    commands = (("decompose", str(structure)), ("lw", str(patch)),
                ("associator", "-p", "3", "R", "Fq:2", "R"),
                ("associator", "-p", "2", "--table"),
                ("fuse-horizontal", "-p", "3", "TT(a=0,b=0)", "TT(a=1,b=0)"),
                ("fuse-vertical", "-p", "3", "TT(a=0,b=0)", "TT(a=1,b=0)"),
                ("table", "vertical", "-p", "2"))
    for value, args in [("abc", args) for args in commands] + [
            ("-1", commands[2]), ("", commands[1])]:
        r = run_cli(*args, ANNULUS_MAX_BASIS=value)
        assert r.returncode == 2, (value, args, r.stderr)
        assert "ANNULUS_MAX_BASIS" in r.stderr and repr(value) in r.stderr
        assert "Traceback" not in r.stderr


def test_wrong_corner_name_is_a_usage_error(monkeypatch):
    """An unknown corner name, or a missing one, is a usage error, not a
    wall mismatch. A library caller still sees it as a StructureError, and
    any other ValueError raised inside a driver is no usage error: it leaves
    the CLI as a traceback."""
    for args in (("associator", "-p", "3", "R", "Fq:2", "R",
                  "--corner", "mu0=1"),
                 ("associator", "-p", "3", "R", "Fq:2", "R",
                  "--corner", "zz=1"),
                 ("fuse-horizontal", "-p", "3", "FqR(x=1;q=2)",
                  "LL(a=1,x=2)", "--corner", "bottom=1")):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert "corner" in r.stderr
        assert "Traceback" not in r.stderr
    r = run_cli("associator", "-p", "3", "R", "Fq:2", "R",
                "--corner", "mu0=1", "--corner", "nu1=1")
    assert r.returncode == 0, r.stderr

    from annulus import cli
    from annulus.fusion import CornerError, associator
    from annulus.structures import StructureError
    from annulus.walls import BimoduleLabel

    walls = [BimoduleLabel.parse(t, 3) for t in ("R", "Fq:2", "R")]
    with pytest.raises(CornerError):
        associator(*walls, corners={"zz": 1})
    assert issubclass(CornerError, StructureError)

    def fault(*args, **kwargs):
        raise ValueError("mixed moduli")

    for name, argv in (
            ("associator", ["associator", "-p", "3", "R", "Fq:2", "R",
                            "--corner", "mu0=1", "--corner", "nu1=1"]),
            ("horizontal_fuse", ["fuse-horizontal", "-p", "3",
                                 "FqR(x=1;q=2)", "LL(a=1,x=2)"])):
        monkeypatch.setattr(cli, name, fault)
        with pytest.raises(ValueError, match="mixed moduli"):
            cli.main(argv)


@pytest.mark.parametrize("args, message", [
    (("associator", "-p", "3", "T", "T", "T", "--corner", "mu0=1",
      "--corner", "mu0=2", "--corner", "mu1=0", "--corner", "nu0=0",
      "--corner", "nu1=0"), "error: corner mu0 named twice\n"),
    (("fuse-horizontal", "-p", "3", "TT(0,0)[top=1,top=2]", "TT(0,0)"),
     "error: bad defect label 'TT(0,0)[top=1,top=2]': corner top named "
     "twice\n"),
    (("fuse-horizontal", "-p", "3", "TT(0,0)[top=1]", "TT(0,0)[top=1]"),
     "error: corner top named twice\n"),
    (("fuse-horizontal", "-p", "3", "TT(0,0)[bottom=1]", "TT(0,0)",
      "--corner", "bottom=1", "--corner", "top=0"),
     "error: corner bottom named twice\n"),
], ids=["option-twice", "one-annotation", "two-annotations",
        "annotation-and-option"])
def test_a_corner_named_twice_is_a_usage_error(args, message):
    """A corner given twice, with the same value or another, in --corner,
    in one annotation, or in an annotation and again elsewhere, exits 2
    naming it, where the last value used to win."""
    r = run_cli(*args)
    assert r.returncode == 2, r.stdout
    assert r.stderr == message


@pytest.mark.parametrize("args, message", [
    (("fuse-vertical", "-p", "3", "FqR(x=1,x=2;q=1)", "RR(a=0,x=0)"),
     "error: bad defect label 'FqR(x=1,x=2;q=1)': parameter x named twice\n"),
    (("fuse-vertical", "-p", "3", "XkXk(a=0,x=0;k=1,k=2)", "TT(a=0,b=0)"),
     "error: bad defect label 'XkXk(a=0,x=0;k=1,k=2)': wall parameter k "
     "named twice\n"),
    (("fuse-vertical", "-p", "3", "TT(a=x,b=0)", "TT(a=0,b=0)"),
     "error: bad defect label 'TT(a=x,b=0)': parameter a must be an "
     "integer, got 'x'\n"),
    (("fuse-vertical", "-p", "3", "TT(x,0)", "TT(a=0,b=0)"),
     "error: bad defect label 'TT(x,0)': parameter 1 must be an integer, "
     "got 'x'\n"),
    (("fuse-vertical", "-p", "3", "XkXk(a=0,x=0;k=y)", "TT(a=0,b=0)"),
     "error: bad defect label 'XkXk(a=0,x=0;k=y)': wall parameter k must be "
     "an integer, got 'y'\n"),
    (("fuse-horizontal", "-p", "3", "TT(0,0)[top=x]", "TT(0,0)"),
     "error: bad defect label 'TT(0,0)[top=x]': corner top must be an "
     "integer, got 'x'\n"),
    (("fuse-horizontal", "-p", "3", "TT(0,0)[top]", "TT(0,0)"),
     "error: bad defect label 'TT(0,0)[top]': corner top must be an "
     "integer, got ''\n"),
    (("fuse-vertical", "-p", "3", "TT(a=0,b=0))", "TT(a=0,b=0)"),
     "error: bad defect label 'TT(a=0,b=0))': parameter b must be an "
     "integer, got '0)'\n"),
    (("fuse-horizontal", "-p", "3", "TT(0,0)[=1]", "TT(0,0)"),
     "error: bad defect label 'TT(0,0)[=1]': bad corner assignment '=1'\n"),
    (("fuse-horizontal", "-p", "3", "TT(0,0)", "TT(0,0)", "--corner", "=1"),
     "error: bad corner assignment '=1'\n"),
], ids=["parameter-twice", "wall-parameter-twice", "parameter-text",
        "positional-text", "wall-parameter-text", "corner-text",
        "corner-no-value", "extra-parenthesis", "annotation-no-name",
        "option-no-name"])
def test_a_bad_piece_of_a_label_is_named(args, message):
    """A defect label's parameter, wall parameter or corner named twice,
    or with a value that is no integer, exits 2 naming it and its text,
    where the last value used to win or Python's int() spoke; so does a
    corner assignment with no name."""
    r = run_cli(*args)
    assert r.returncode == 2, r.stdout
    assert r.stderr == message


# SHA-256 of each table's stdout as recorded; output must stay byte-identical
_TABLE_DIGESTS = {
    ("associator", "-p", "2", "--table"):
        "f6c7fd4cc676db5e0c1d4dd0c896116d9e37b99ee51c36bbb90298245e84e437",
    ("associator", "-p", "3", "--table"):
        "4fc9da286dc715a01eec05fdc85c22b9b334d19874262130a523d0cdda55dbb4",
    ("associator", "-p", "5", "--table"):
        "afcaaaea70a5292549f7ffcba6c1a52206e27db8d399e6feff1d945df6d37e90",
    ("table", "vertical", "-p", "2"):
        "c905390b96ef95af95837747806865cc227c43110bcdea286908ad754d2051c1",
    ("table", "vertical", "-p", "3"):
        "911614bfe05f6ede6fdf8b2b35ba0b420b7590f495c8c45222bea808a15c9960",
    ("table", "horizontal", "-p", "2"):
        "b4f0bfb28f3b33a0b48126b1f09da7ccd72778f3b8ecdbcb62091933c15a0573",
}


@pytest.mark.parametrize("argv", list(_TABLE_DIGESTS), ids=[
    "associator-p2", "associator-p3", "associator-p5", "vertical-p2",
    "vertical-p3", "horizontal-p2"])
def test_table_output_is_byte_identical(capsys, argv):
    """The tables' JSON, run in-process, hashes to the digest recorded for
    it: a change to the engine may not change one byte of them."""
    from annulus import cli

    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_DIGESTS[argv]


def test_unwritable_table_output_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    for args in (("table", "vertical", "-p", "2", "-o", str(out)),
                 ("associator", "-p", "2", "--table", "-o", str(out))):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert f"cannot write {out}" in r.stderr
        assert "Traceback" not in r.stderr
    out = tmp_path / "x.json"
    r = run_cli("table", "vertical", "-p", "2", "-o", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["kind"] == "vertical"


def test_unwritable_output_is_found_before_any_work(tmp_path, monkeypatch,
                                                   capsys):
    """The -o path is checked before the table is computed, and a refused
    path is neither created nor truncated."""
    from annulus import cli

    def no_work(*args, **kwargs):
        raise AssertionError("the table was computed before the -o check")

    monkeypatch.setattr(cli, "generate_table", no_work)
    out = tmp_path / "missing" / "x.json"
    for argv in (["table", "vertical", "-p", "2", "-o", str(out)],
                 ["associator", "-p", "5", "--table", "-o", str(out)],
                 ["table", "vertical", "-p", "2", "-o", str(tmp_path)]):
        assert cli.main(argv) == 2, argv
        assert "cannot write" in capsys.readouterr().err
    assert not out.parent.exists()
    assert list(tmp_path.iterdir()) == []


def test_decompose_structure_document(tmp_path):
    ident = trivial_defect(wall(3, "X", 1))
    doc = compound_to_json(vertical_compound(ident, ident))
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    r = run_cli("decompose", str(path))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["decomposition"] == [[ident.name(), 1]]
    bad = tmp_path / "bad.json"
    bad.write_text("{\"p\": 3}")
    assert run_cli("decompose", str(bad)).returncode == 6


def test_lw_command(tmp_path):
    path = tmp_path / "patch.json"
    path.write_text(json.dumps(patch_to_json(defect_line_patch(2))))
    r = run_cli("lw", str(path))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["ground_space_dim"] == 1
    assert doc["commuting"] is True


def _bulk_torus_document(p: int, rows: int, cols: int) -> dict:
    """A periodic brick-wall honeycomb of bulk (Xk:1) walls as an `lw`
    document: per row r and column i (mod cols), vertices t and lr
    (tri21) and b and ur (tri12), 2 rows cols hexagons, no dangling edge,
    and every traced face listed."""
    from annulus.structures import DomainWallStructure, Edge
    from annulus.walls import BimoduleLabel

    def v(name, r, i):
        return f"{name}{r % rows}_{i % cols}"

    templates, edges = {}, []
    for r in range(rows):
        for i in range(cols):
            templates.update({v("t", r, i): "tri21", v("b", r, i): "tri12",
                              v("ur", r, i): "tri12", v("lr", r, i): "tri21"})
            for name, a, b in (
                    ("nw", (v("ur", r, i - 1), "tr"), (v("t", r, i), "bl")),
                    ("ne", (v("t", r, i), "br"), (v("ur", r, i), "tl")),
                    ("e", (v("ur", r, i), "bottom"), (v("lr", r, i), "top")),
                    ("se", (v("lr", r, i), "bl"), (v("b", r, i), "tr")),
                    ("sw", (v("b", r, i), "tl"), (v("lr", r, i - 1), "br")),
                    ("up", (v("t", r, i), "top"),
                     (v("b", r + 1, i), "bottom"))):
                edges.append(Edge(v(name, r, i), BimoduleLabel.parse("Xk:1", p),
                              (a, b)))
    faces = DomainWallStructure(p, templates, edges, []).cavities
    return {
        "p": p,
        "vertices": [{"id": vid, "template": tpl, "walls": ["Xk:1", "Xk:1"]}
                     for vid, tpl in templates.items()],
        "edges": [{"id": e.eid, "wall": "Xk:1",
                   "ends": [list(end) for end in e.ends]} for e in edges],
        "faces": [[list(c) for c in face] for face in faces],
    }


def test_lw_counts_more_labelings_than_an_index_holds(tmp_path):
    """The 4x4 bulk torus at p = 5 has 5^33 consistent labelings, past
    2^63 - 1. With the size limit raised above that, `lw` counts them as an
    integer and gives the torus's p^2-dimensional ground space, with no
    traceback."""
    p = 5
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(_bulk_torus_document(p, 4, 4)))
    r = run_cli("lw", str(path), ANNULUS_MAX_BASIS="1" + "0" * 30)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["consistent_states"] == p ** 33 > 2 ** 63 - 1
    assert doc["faces"] == 32
    assert doc["ground_space_dim"] == p * p
    assert doc["commuting"] is True


def test_lw_open_face_exit_code(tmp_path):
    """A face whose loop does not close is no traced face of the patch: the
    document is refused as it loads, with the structure code and no
    traceback."""
    from annulus.levinwen import hexagon_chain_patch

    doc = patch_to_json(hexagon_chain_patch(3, 1))
    doc["faces"][0].pop()
    path = tmp_path / "patch.json"
    path.write_text(json.dumps(doc))
    r = run_cli("lw", str(path))
    assert r.returncode == 6
    assert "bad patch document: face 0 is no face of the patch" in r.stderr
    assert "Traceback" not in r.stderr


def test_lw_merged_faces_exit_code(tmp_path):
    """Two hexagons of a chain merged into one "face" are no face of the
    patch: exit 6, naming the face, not a ground space of dimension 3."""
    from annulus.levinwen import hexagon_chain_patch

    doc = patch_to_json(hexagon_chain_patch(3, 2))
    doc["faces"] = [doc["faces"][0] + doc["faces"][1]]
    path = tmp_path / "patch.json"
    path.write_text(json.dumps(doc))
    r = run_cli("lw", str(path))
    assert r.returncode == 6, r.stdout
    assert "bad patch document: face 0 is no face of the patch" in r.stderr
    assert "Traceback" not in r.stderr


def _malformed_patch(change):
    doc = patch_to_json(hexagon_chain_patch(2, 1, pin=False))
    return change(doc) or doc


def _malformed_structure(change):
    ident = trivial_defect(wall(3, "X", 1))
    doc = compound_to_json(vertical_compound(ident, ident))
    return change(doc) or doc


def _first_inner_end(doc, value):
    next(e for e in doc["edges"] if e["ends"][0])["ends"][0] = value


def _rename_edge(doc, old, new):
    next(e for e in doc["edges"] if e["id"] == old)["id"] = new


def _edge_ends(doc, eid, change):
    edge = next(e for e in doc["edges"] if e["id"] == eid)
    edge["ends"] = change(edge["ends"])


@pytest.mark.parametrize("command, doc", [
    ("lw", _malformed_patch(
        lambda d: d["vertices"][0].update(template="bogus"))),
    ("lw", _malformed_patch(
        lambda d: d["vertices"][0].update(walls=d["vertices"][0]["walls"][:1]))),
    ("lw", _malformed_patch(lambda d: _first_inner_end(d, 5))),
    ("lw", _malformed_patch(lambda d: d.update(p="3"))),
    ("lw", _malformed_patch(lambda d: [d])),
    ("lw", _malformed_patch(lambda d: d.update(pinned=[1]))),
    # two edges with one id would merge and drop the second's equations
    ("lw", _malformed_patch(lambda d: _rename_edge(d, "h0_w", "h0_nw"))),
    # an edge needs exactly two ends; with a third, None, it became pinnable
    ("lw", _malformed_patch(
        lambda d: _edge_ends(d, "h0_w", lambda ends: ends + [None]))),
    ("lw", _malformed_patch(
        lambda d: _edge_ends(d, "h0_t_r", lambda ends: ends[:1]))),
    ("decompose", _malformed_structure(lambda d: d["edges"][1].update(
        {"from": 5}))),
    ("decompose", _malformed_structure(lambda d: [d])),
    ("decompose", _malformed_structure(
        lambda d: d["edges"].__setitem__(1, ["mid"]))),
], ids=["lw-template", "lw-one-wall", "lw-edge-end", "lw-p-string",
        "lw-list", "lw-pinned-list", "lw-duplicate-edge-id", "lw-three-ends",
        "lw-one-end", "decompose-from",
        "decompose-list", "decompose-edge-list"])
def test_malformed_documents_exit_6_without_a_traceback(tmp_path, command,
                                                        doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = run_cli(command, str(path))
    what = "patch" if command == "lw" else "structure"
    assert r.returncode == 6, r.stderr
    assert f"bad {what} document" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command, doc, message", [
    ("lw", _malformed_patch(lambda d: d["pinned"].update(nope=0)),
     "bad patch document: pinned edge 'nope' is no edge of the patch"),
    ("decompose", _malformed_structure(
        lambda d: d["vertices"][0].update(template="tri99")),
     "bad structure document: vertex v1: unknown template 'tri99'"),
], ids=["lw-unknown-pin", "decompose-unknown-template"])
def test_an_unknown_name_in_a_document_is_named(tmp_path, command, doc,
                                                message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = run_cli(command, str(path))
    assert r.returncode == 6, r.stderr
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command, doc, message", [
    # a second entry must not silently replace the first
    ("decompose", _malformed_structure(lambda d: d["vertices"].append(
        {**d["vertices"][0], "defect": "XkXk(a=1,x=0;k=1)"})),
     "bad structure document: duplicate vertex id 'v1'"),
    ("lw", _malformed_patch(lambda d: d["vertices"].append(d["vertices"][3])),
     "bad patch document: duplicate vertex id 'h0_b'"),
], ids=["decompose", "lw"])
def test_a_repeated_vertex_id_is_named(tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = run_cli(command, str(path))
    assert r.returncode == 6, r.stdout
    assert message in r.stderr
    assert "Traceback" not in r.stderr


def test_a_vertex_named_like_the_outside_decomposes_as_any_other(tmp_path):
    """No vertex id can stand for the outside of the disc."""
    doc = compound_to_json(vertical_compound(
        parse_defect("XkF0(x=1;k=1)", 3), parse_defect("F0Xl(x=2;l=1)", 3)))
    out = []
    for name in ("v1", "__ext__"):
        doc["vertices"][0]["id"] = name
        for end in (doc["edges"][0]["to"], doc["edges"][1]["from"]):
            end[0] = name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        r = run_cli("decompose", str(path))
        assert r.returncode == 0, r.stderr
        out.append(r.stdout)
    assert out[0] == out[1]


def test_lw_violated_term_report(tmp_path):
    from annulus.levinwen import hexagon_chain_patch

    patch = hexagon_chain_patch(2, 1)
    state = patch.consistent_basis()[0]
    edges = patch.edge_labels_of(state)
    interior = next(e for e in patch.edges if all(end for end in e.ends))
    edges[interior.eid] = (edges[interior.eid] + 1) % 2
    ppath = tmp_path / "patch.json"
    ppath.write_text(json.dumps(patch_to_json(patch)))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({
        "edges": edges,
        "vertices": [list(v) for v in state],
    }))
    r = run_cli("lw", str(ppath), "--state", str(spath))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert sorted(doc["violated_terms"].values()) == [1, 1]


def test_template_shorthand_documents(tmp_path):
    doc = {"p": 5, "template": "vertical",
           "defects": ["RFr(x=1;r=2)", "FrR(z=3;r=2)"]}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    r = run_cli("decompose", str(path))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert ["RR(a=1,x=2)", 1] in out["decomposition"]
    doc = {"p": 3, "template": "associator", "walls": ["R", "Fq:2", "R"],
           "corners": {"mu0": 2, "nu1": 1}}
    path.write_text(json.dumps(doc))
    out = json.loads(run_cli("decompose", str(path)).stdout)
    assert out["decomposition"] == [["RR(a=0,x=0)", 1]]


@pytest.mark.parametrize("doc, name", [
    ({"p": 3, "template": "diamond", "corners": {"top": 1},
      "defects": ["FqR(x=1;q=1)", "LL(a=1,x=2)"]}, "bogus"),
    ({"p": 5, "template": "vertical",
      "defects": ["RFr(x=1;r=2)", "FrR(z=3;r=2)"]}, "top"),
], ids=["diamond", "vertical"])
def test_a_template_document_naming_a_corner_it_lacks_exits_6(tmp_path, doc,
                                                             name):
    """A diamond has only the corners bottom and top, a vertical stack
    none: any other name is refused, not silently dropped."""
    from annulus.structures import StructureError, compound_from_json

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli("decompose", str(path)).returncode == 0
    doc = {**doc, "corners": {**doc.get("corners", {}), name: 2}}
    with pytest.raises(StructureError, match="unknown corner names"):
        compound_from_json(doc)
    path.write_text(json.dumps(doc))
    r = run_cli("decompose", str(path))
    assert r.returncode == 6, r.stderr
    assert (f"bad structure document: unknown corner names ['{name}']"
            in r.stderr)
    assert "Traceback" not in r.stderr


_DIAMOND_TEMPLATE = {"p": 3, "template": "diamond",
                     "defects": ["FqR(x=1;q=1)", "LL(a=1,x=2)"]}


@pytest.mark.parametrize("doc, message", [
    (_DIAMOND_TEMPLATE, "missing corner values ['top']"),
    ({**_DIAMOND_TEMPLATE, "corners": {"top": 1, "bottom": 0}},
     "unknown corner names ['bottom']"),
    ({"p": 3, "template": "associator", "walls": ["R", "Fq:2", "R"],
      "corners": {"mu0": 2}}, "missing corner values ['nu1']"),
    ({"p": 3, "template": "associator", "walls": ["R", "Fq:2", "R"],
      "corners": {"mu0": 2, "nu1": 1, "mu1": 0}},
     "unknown corner names ['mu1']"),
], ids=["diamond-missing", "diamond-uncarried-0", "associator-missing",
        "associator-uncarried-0"])
def test_a_template_document_gives_exactly_the_cells_corners(tmp_path, doc,
                                                             message):
    """A template document's corners are checked by the template's builder,
    as a driver's are: a corner the cell carries and the document leaves
    out is named as missing, and a name the cell lacks is refused even at
    value 0."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = run_cli("decompose", str(path))
    assert r.returncode == 6, r.stdout
    assert r.stderr == f"error: bad structure document: {message}\n"


def _t_patch(corner):
    """An unpinned one-hexagon patch on the wall T, whose every vertex
    carries a corner: 0, but `corner` at the first."""
    doc = patch_to_json(hexagon_chain_patch(3, 1, pin=False))
    for v in doc["vertices"]:
        v.update(walls=["T", "T"], corner=0)
    for e in doc["edges"]:
        e["wall"] = "T"
    doc["vertices"][0]["corner"] = corner
    return doc


def _explicit_associator(corner):
    """The [R, Fq:2, R] cell at p = 3 as an explicit graph, with mu0 = 0
    and nu1 = `corner`."""
    from annulus.structures import associator_compound

    walls = (wall(3, "R"), wall(3, "F", 2), wall(3, "R"))
    doc = compound_to_json(associator_compound(*walls, {"mu0": 0, "nu1": 0}))
    next(v for v in doc["vertices"] if v["id"] == "v4")["corner"] = corner
    return doc


_ASSOCIATOR_TEMPLATE = {"p": 3, "template": "associator",
                        "walls": ["R", "Fq:2", "R"]}


@pytest.mark.parametrize("command, doc, message", [
    ("decompose", {**_ASSOCIATOR_TEMPLATE, "corners": {"mu0": 2.7, "nu1": 1}},
     "bad structure document: corner mu0 must be an integer, got 2.7"),
    ("decompose", {**_ASSOCIATOR_TEMPLATE, "corners": {"mu0": 0, "nu1": True}},
     "bad structure document: corner nu1 must be an integer, got true"),
    ("decompose", {**_ASSOCIATOR_TEMPLATE, "corners": {"mu0": 0, "nu1": None}},
     "bad structure document: corner nu1 must be an integer, got null"),
    ("decompose", _explicit_associator("1"),
     'bad structure document: vertex v4: corner must be an integer, got "1"'),
    ("decompose", _explicit_associator(1.0),
     "bad structure document: vertex v4: corner must be an integer, got 1.0"),
    ("lw", _t_patch("1"),
     'bad patch document: vertex h0_ul: corner must be an integer, got "1"'),
    ("lw", _t_patch(False),
     "bad patch document: vertex h0_ul: corner must be an integer, got false"),
], ids=["template-float", "template-bool", "template-null", "graph-string",
        "graph-float", "patch-string", "patch-bool"])
def test_a_corner_that_is_no_integer_exits_6(tmp_path, command, doc, message):
    """A corner value in a document is an integer: a string, a float, a
    bool or null is refused, naming the corner or its vertex, where an
    integer there is read."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = run_cli(command, str(path))
    assert r.returncode == 6, r.stdout
    assert message in r.stderr
    assert "Traceback" not in r.stderr


def test_the_documents_refused_for_their_corner_run_with_an_integer(tmp_path):
    path = tmp_path / "doc.json"
    for command, doc in [
            ("decompose", {**_ASSOCIATOR_TEMPLATE,
                           "corners": {"mu0": 2, "nu1": 1}}),
            ("decompose", _explicit_associator(1)),
            ("lw", _t_patch(1))]:
        path.write_text(json.dumps(doc))
        r = run_cli(command, str(path))
        assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("args, named", [
    (("associator", "-p", "2", "R", "R", "R", "--corner", "mu0=1", "--table",
      "-o", "{out}"), ("wall labels", "--corner")),
    (("associator", "-p", "2", "--corner", "mu0=1", "--table"), ("--corner",)),
    (("associator", "-p", "2", "R", "R", "R", "-o", "{out}"), ("-o",)),
    (("table", "vertical", "-p", "2", "--golden", "-o", "{out}"),
     ("--golden",)),
    (("table", "horizontal", "-p", "2", "--golden"), ("--golden",)),
], ids=["associator-table-walls-corner", "associator-table-corner",
        "associator-output", "table-vertical-golden",
        "table-horizontal-golden"])
def test_an_option_the_command_would_ignore_is_a_usage_error(tmp_path, args,
                                                            named):
    out = tmp_path / "a.json"
    r = run_cli(*(a.format(out=out) for a in args))
    assert r.returncode == 2, r.stderr
    for option in named:
        assert option in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_text_format():
    r = run_cli("fuse-horizontal", "-p", "3", "--format", "text",
                "FqR(x=1;q=2)", "LL(a=1,x=2)", "--corner", "top=1")
    assert r.returncode == 0
    assert "TT(a=1,b=1)" in r.stdout


def test_missing_input_file_is_a_usage_error(tmp_path):
    missing = str(tmp_path / "missing.json")
    patch = tmp_path / "patch.json"
    patch.write_text(json.dumps(patch_to_json(defect_line_patch(2))))
    for args in (("decompose", missing), ("lw", missing),
                 ("lw", str(patch), "--state", missing),
                 ("associator", "-p", "2", "R", "Fq:1", "R",
                  "--golden", missing)):
        r = run_cli(*args)
        assert r.returncode == 2, (args, r.stderr)
        assert "cannot read" in r.stderr
        assert "Traceback" not in r.stderr


def test_lw_state_document_without_vertices(tmp_path):
    patch = tmp_path / "patch.json"
    patch.write_text(json.dumps(patch_to_json(defect_line_patch(2))))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"edges": {}}))
    r = run_cli("lw", str(patch), "--state", str(state))
    assert r.returncode == 6, r.stderr
    assert "vertices" in r.stderr
    assert "Traceback" not in r.stderr


def test_lw_state_must_hold_one_basis_vector_per_vertex(tmp_path):
    """A state with too few vertex vectors, or with none, is refused with the
    structure code, as is one whose vector is no local basis vector."""
    patch = defect_line_patch(2)
    ppath = tmp_path / "patch.json"
    ppath.write_text(json.dumps(patch_to_json(patch)))
    good = [list(vec) for vec in patch.consistent_basis()[0]]
    outside = [list(vec) for vec in good]
    outside[0] = [2] * len(outside[0])
    for vertices in ([[0]], [], outside):
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps({"edges": {}, "vertices": vertices}))
        r = run_cli("lw", str(ppath), "--state", str(spath))
        assert r.returncode == 6, (vertices, r.stderr)
        assert "bad state document" in r.stderr
        assert "Traceback" not in r.stderr
    spath.write_text(json.dumps({"edges": {}, "vertices": good}))
    r = run_cli("lw", str(ppath), "--state", str(spath))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["violated_terms"] == {}


@pytest.mark.parametrize("change, message", [
    (lambda s: s.update(edges=[]), "edges must be an object, got []"),
    (lambda s: s.update(vertices=5), "vertices must be a list, got 5"),
    (lambda s: s["vertices"].__setitem__(0, "ab"),
     'vertex 0 must be a list, got "ab"'),
    (lambda s: s["vertices"].__setitem__(0, {}),
     "vertex 0 must be a list, got {}"),
    (lambda s: s["edges"].update(h0_w=0.0),
     'edge h0_w must be an integer, a list of two integers or "*", got 0.0'),
    (lambda s: s["edges"].update(h0_w=True),
     'edge h0_w must be an integer, a list of two integers or "*", got true'),
    (lambda s: s["vertices"].__setitem__(0, [False, False]),
     "vertex 0: entry 0 must be an integer, got false"),
], ids=["edges-list", "vertices-number", "vertex-string", "vertex-object",
        "edge-float", "edge-bool", "vertex-bools"])
def test_lw_state_entries_of_the_wrong_kind_are_named(tmp_path, change,
                                                      message):
    """A state document's edges must be an object of objects and its
    vertices a list of lists of integers: a vertex string is not read as
    its characters, nor an object as its keys, nor a bool or a float as
    the integer it equals."""
    patch = hexagon_chain_patch(2, 1)
    ppath = tmp_path / "patch.json"
    ppath.write_text(json.dumps(patch_to_json(patch)))
    state = {"edges": {},
             "vertices": [list(v) for v in patch.consistent_basis()[0]]}
    change(state)
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    r = run_cli("lw", str(ppath), "--state", str(spath))
    assert r.returncode == 6, r.stdout
    assert f"bad state document: {message}" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("edges, message", [
    ({"nope": 99}, "bad state document: edge 'nope' is no edge of the patch"),
    ({"h0_w": [0, 0]},
     "bad state document: edge h0_w: [0, 0] is not an object of its wall"),
], ids=["unknown-edge", "not-an-object"])
def test_lw_state_refuses_a_bad_edge_entry(tmp_path, edges, message):
    """An edge entry of a state document must name an edge of the patch
    and an object of its wall: a mistyped id is not read as no violation,
    nor a value of the wrong shape as an ordinary one."""
    patch = hexagon_chain_patch(2, 1)
    ppath = tmp_path / "patch.json"
    ppath.write_text(json.dumps(patch_to_json(patch)))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({
        "edges": edges,
        "vertices": [list(v) for v in patch.consistent_basis()[0]]}))
    r = run_cli("lw", str(ppath), "--state", str(spath))
    assert r.returncode == 6, r.stdout
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command, doc, message", [
    ("lw", _malformed_patch(lambda d: d.__delitem__("faces")),
     "bad patch document: no 'faces' entry"),
    ("decompose", _malformed_structure(lambda d: d.__delitem__("edges")),
     "bad structure document: no 'edges' entry"),
    ("lw", [_malformed_patch(lambda d: None)],
     "bad patch document: expected a JSON object"),
    ("decompose", 3, "bad structure document: expected a JSON object"),
], ids=["lw-missing", "decompose-missing", "lw-list", "decompose-number"])
def test_a_document_says_what_it_lacks(tmp_path, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = run_cli(command, str(path))
    assert r.returncode == 6, r.stdout
    assert message in r.stderr
    assert "Traceback" not in r.stderr


def _diamond_doc(change):
    doc = compound_to_json(horizontal_compound(
        parse_defect("FqR(x=1;q=2)", 3), parse_defect("LL(a=1,x=2)", 3),
        {"top": 1}))
    return change(doc) or doc


def _set_first(doc, key, value):
    next(e for e in doc["edges"] if e.get(key))[key] = value


def _ttt_structure(change):
    t = BimoduleLabel.parse("T", 3)
    doc = compound_to_json(associator_compound(
        t, t, t, dict.fromkeys(("mu0", "mu1", "nu0", "nu1"), 0)))
    return change(doc) or doc


def _pinned_patch(change):
    doc = patch_to_json(hexagon_chain_patch(3, 1))
    return change(doc) or doc


def _set_first_pin(doc, value):
    doc["pinned"][next(iter(doc["pinned"]))] = value


def _rfr_graph(change):
    """The p = 3 [R, Fq:2, R] associator as an explicit graph, whose
    vertices v1 and v4 carry corners."""
    walls = [BimoduleLabel.parse(t, 3) for t in ("R", "Fq:2", "R")]
    doc = compound_to_json(associator_compound(*walls, {"mu0": 2, "nu1": 1}))
    return change(doc) or doc


@pytest.mark.parametrize("command, doc, message", [
    ("decompose", {"p": 3, "template": "associator", "walls": ["R", "R"]},
     'associator template walls must be [M, N, P], got ["R", "R"]'),
    ("decompose", {"p": 3, "template": "vertical", "defects": ["RR(x=1)"]},
     'vertical template defects must be [d1, d2], got ["RR(x=1)"]'),
    ("decompose", _diamond_doc(
        lambda d: d["cavities"][0].__setitem__(0, ["vt"])),
     'cavity 0: a corner must be [vertex, region], got ["vt"]'),
    ("decompose", _diamond_doc(lambda d: _set_first(d, "to", ["vb"])),
     'an end must be [vertex, slot], got ["vb"]'),
    ("decompose", _diamond_doc(lambda d: d.__setitem__("p", "3")),
     'p must be an integer, got "3"'),
    ("lw", _malformed_patch(lambda d: d.__setitem__("p", "2")),
     'p must be an integer, got "2"'),
    ("lw", _malformed_patch(lambda d: d["faces"][0][0].append(1)),
     "face 0: a corner must be [vertex, region], got "),
    ("lw", _malformed_patch(lambda d: d["vertices"][0].update(walls=["X1"])),
     ': walls must be [first, second], got ["X1"]'),
    ("lw", _malformed_patch(lambda d: d["vertices"].__setitem__(0, "h0_ll")),
     'bad patch document: vertex 0 must be an object, got "h0_ll"'),
    ("decompose", _ttt_structure(lambda d: d["edges"].__setitem__(2, "W2")),
     'bad structure document: edge 2 must be an object, got "W2"'),
    ("lw", _malformed_patch(lambda d: d.update(vertices=5)),
     "bad patch document: vertices must be a list, got 5"),
    ("lw", _malformed_patch(lambda d: d["faces"].__setitem__(0, 3)),
     "bad patch document: face 0 must be a list, got 3"),
    ("lw", _malformed_patch(lambda d: d["edges"][0].update(ends=None)),
     "bad patch document: edge h0_w: ends must be a list, got null"),
    ("lw", _malformed_patch(lambda d: d.update(pinned=[1])),
     "bad patch document: pinned must be an object, got [1]"),
    ("decompose", _ttt_structure(lambda d: d.update(cavities=[5])),
     "bad structure document: cavity 0 must be a list, got 5"),
    ("decompose", {"p": 3, "template": "associator",
                   "walls": ["T", "T", "T"], "corners": [0]},
     "bad structure document: corners must be an object, got [0]"),
    ("lw", _malformed_patch(lambda d: d["vertices"][0].update(id={})),
     "bad patch document: vertex 0: id must be a string, got {}"),
    ("lw", _malformed_patch(lambda d: d["edges"][0]["ends"].__setitem__(
        0, [["v1", "left"], "bottom"])),
     'bad patch document: edge h0_w: an end: vertex must be a string, got '
     '["v1", "left"]'),
    ("lw", _malformed_patch(lambda d: d["edges"][0].update(id=[1])),
     "bad patch document: edge 0: id must be a string, got [1]"),
    ("lw", _malformed_patch(lambda d: d["edges"][0].update(wall=["T"])),
     'bad patch document: edge h0_w: wall must be a string, got ["T"]'),
    ("lw", _malformed_patch(lambda d: d["vertices"][0].update(template=3)),
     "bad patch document: vertex h0_ul: template must be a string, got 3"),
    ("lw", _malformed_patch(lambda d: d["vertices"][0]["walls"].__setitem__(
        1, ["Xk:1"])),
     'bad patch document: vertex h0_ul: walls: second must be a string, '
     'got ["Xk:1"]'),
    ("lw", _malformed_patch(lambda d: d["faces"][0][0].__setitem__(1, 2)),
     "bad patch document: face 0: a corner: region must be a string, got 2"),
    ("decompose", _ttt_structure(lambda d: d["vertices"][0].update(id={})),
     "bad structure document: vertex 0: id must be a string, got {}"),
    ("decompose", _ttt_structure(lambda d: d["edges"][1].__setitem__(
        "from", [["v1", "left"], "tl"])),
     'bad structure document: edge M: an end: vertex must be a string, '
     'got ["v1", "left"]'),
    ("decompose", _ttt_structure(lambda d: d["edges"][0].update(id=[1])),
     "bad structure document: edge 0: id must be a string, got [1]"),
    ("decompose", _ttt_structure(lambda d: d.update(
        external=[["bottom"], "top"])),
     'bad structure document: external stub 0 must be a string, got '
     '["bottom"]'),
    ("decompose", _ttt_structure(lambda d: d["edges"][1].update(wall=["T"])),
     'bad structure document: edge M: wall must be a string, got ["T"]'),
    ("decompose", _ttt_structure(lambda d: d["vertices"][0].update(
        template=["tri12"])),
     'bad structure document: vertex v1: template must be a string, got '
     '["tri12"]'),
    ("decompose", _ttt_structure(lambda d: d["cavities"][0][0].__setitem__(
        0, {})),
     "bad structure document: cavity 0: a corner: vertex must be a string, "
     "got {}"),
    ("decompose", _diamond_doc(lambda d: next(
        v for v in d["vertices"] if "defect" in v).update(defect=[1])),
     "bad structure document: vertex d1: defect must be a string, got [1]"),
    ("decompose", {"p": 3, "template": "associator",
                   "walls": ["T", ["T"], "T"]},
     'bad structure document: associator template walls: N must be a '
     'string, got ["T"]'),
    ("lw", _malformed_patch(lambda d: d["edges"][1].update(
        id=d["edges"][0]["id"])),
     "bad patch document: duplicate edge ids: edges 0 and 1 are both 'h0_w'"),
    ("lw", _pinned_patch(lambda d: _set_first_pin(d, 0.0)),
     'bad patch document: pinned edge h0_ul_r must be an integer, a list of '
     'two integers or "*", got 0.0'),
    ("lw", _pinned_patch(lambda d: _set_first_pin(d, True)),
     'bad patch document: pinned edge h0_ul_r must be an integer, a list of '
     'two integers or "*", got true'),
    ("lw", _pinned_patch(lambda d: d["vertices"][0].update(corner=1)),
     "bad patch document: vertex h0_ul: tri12 vertex Xk:1xXk:1 takes no "
     "corner parameter"),
    ("decompose", _rfr_graph(lambda d: next(
        v for v in d["vertices"] if v["id"] == "v1").__delitem__("corner")),
     "bad structure document: vertex v1: tri12 vertex RxF0 needs a corner "
     "parameter"),
], ids=["associator-walls", "vertical-defects", "cavity-corner", "edge-end",
        "structure-p", "patch-p", "face-corner", "vertex-walls",
        "patch-vertex-string", "structure-edge-string",
        "patch-vertices-number", "patch-face-number", "patch-ends-null",
        "patch-pinned-list", "structure-cavity-number",
        "structure-corners-list", "patch-vertex-id", "patch-end-vertex",
        "patch-edge-id", "patch-edge-wall", "patch-template",
        "patch-vertex-wall", "patch-face-region", "structure-vertex-id",
        "structure-end-vertex", "structure-edge-id", "structure-external",
        "structure-edge-wall", "structure-template",
        "structure-cavity-vertex", "structure-defect",
        "associator-template-wall", "patch-edge-id-twice", "patch-pin-float",
        "patch-pin-bool", "patch-uncarried-corner",
        "structure-missing-corner"])
def test_a_malformed_entry_is_named(tmp_path, command, doc, message):
    """An entry of the wrong shape or type is named with what it must be,
    and by its position when it is a list's entry, not reported in
    Python's words (a missing argument, an unpacking or index error, an
    ordering of str and int, string indices, a missing attribute); the
    exit code stays 6."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    r = run_cli(command, str(path))
    assert r.returncode == 6, r.stdout
    assert message in r.stderr
    assert "Traceback" not in r.stderr


def test_a_state_document_must_be_an_object(tmp_path):
    ppath = tmp_path / "patch.json"
    ppath.write_text(json.dumps(patch_to_json(defect_line_patch(2))))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps([]))
    r = run_cli("lw", str(ppath), "--state", str(spath))
    assert r.returncode == 6, r.stdout
    assert "bad state document: expected a JSON object" in r.stderr


def test_a_wall_label_naming_no_wall_gives_the_reason(tmp_path):
    """Xk:0 and a wall at p = 4 parse, but name no wall: the message says
    why, with the command line's code 2 and a document's code 6."""
    r = run_cli("associator", "-p", "3", "Xk:0", "R", "R")
    assert r.returncode == 2, r.stdout
    assert "X_k requires k nonzero" in r.stderr
    doc = patch_to_json(hexagon_chain_patch(3, 1))
    doc["p"] = 4
    path = tmp_path / "patch.json"
    path.write_text(json.dumps(doc))
    r = run_cli("lw", str(path))
    assert r.returncode == 6, r.stdout
    assert "bad patch document: modulus 4 is not prime" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_a_free_chain_decomposes_to_its_ground_space(tmp_path, p, n):
    """A free chain written as a structure document, its dangling edges the
    stubs and its cavities derived: the quotient's grade dimensions sum to
    the patch's ground-space dimension, p^(2n+3)."""
    patch = hexagon_chain_patch(p, n, pin=False)
    structure = compound_to_json(patch.compound)
    del structure["cavities"]
    assert structure["external"] == [
        e.eid for e in patch.edges if None in e.ends]
    spath, ppath = tmp_path / "structure.json", tmp_path / "patch.json"
    spath.write_text(json.dumps(structure))
    ppath.write_text(json.dumps(patch_to_json(patch)))
    dec, lw = run_cli("decompose", str(spath)), run_cli("lw", str(ppath))
    assert dec.returncode == lw.returncode == 0, dec.stderr + lw.stderr
    dims = json.loads(dec.stdout)["quotient_grade_dims"]
    assert sum(dims.values()) == json.loads(lw.stdout)["ground_space_dim"]
    assert sum(dims.values()) == p ** (2 * n + 3)


def test_golden_document_without_cells_or_without_the_cell(tmp_path):
    """A golden document with no cells is a usage error; one that lacks the
    cell being checked is a golden mismatch."""
    from annulus.fusion import load_golden_associators

    path = tmp_path / "golden.json"
    args = ("associator", "-p", "2", "R", "Fq:1", "R", "--golden", str(path))
    for doc in ({}, {"cells": {}}):
        path.write_text(json.dumps(doc))
        r = run_cli(*args)
        assert r.returncode == 2, (doc, r.stderr)
        assert "no cells" in r.stderr
        assert "Traceback" not in r.stderr
    cells = load_golden_associators()["cells"]
    del cells["R|F|R"]
    path.write_text(json.dumps({"cells": cells}))
    r = run_cli(*args)
    assert r.returncode == 5, r.stderr
    assert "no golden cell R|F|R" in r.stderr
