"""Command-line front end.

Subcommands: decompose, fuse-vertical, fuse-horizontal, associator, table,
lw. Machine output is JSON (deterministic key order); text output renders the
same data aligned for humans. Phases are symbolic (w^k; i for p = 2), never
floats. Exit codes: 0 ok, 2 parse/usage error, 3 wall mismatch, 4 size limit
exceeded, 5 golden-table mismatch, 6 invalid structure/patch document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .defects import parse_annotated_defect
from .engine import QuotientRep, SizeLimitError, decompose, max_basis
from .fusion import (
    CornerError, FusionResult, associator, check_associator_against_golden,
    generate_table, horizontal_fuse, load_golden_associators, vertical_fuse,
)
from .levinwen import patch_from_json
from .scalars import is_prime
from .structures import (
    StructureError, _document_entries, _document_int, _document_kind,
    _document_object, compound_from_json,
)
from .walls import BimoduleLabel

EXIT_PARSE = 2
EXIT_WALLS = 3
EXIT_SIZE = 4
EXIT_GOLDEN = 5
EXIT_STRUCTURE = 6


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_defect(text, p):
    try:
        label, corners = parse_annotated_defect(text, p)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad defect label {text!r}: {exc}")
    return label, corners


def _emit(doc, fmt):
    out = sys.stdout  # read on each call, so that a redirected stdout gets it
    if fmt == "json":
        json.dump(doc, out, indent=1, sort_keys=True)
        out.write("\n")
    else:
        _emit_text(doc, out)


def _emit_text(doc, out):
    if "outcomes" in doc:  # a FusionResult
        out.write(f"# {doc['kind']} fusion, p={doc['p']}, "
                  f"inputs: {'  '.join(doc['inputs'])}\n")
        names = doc["corner_names"]
        for o in doc["outcomes"]:
            corner = ""
            if names:
                corner = "[" + ",".join(
                    f"{n}={v}" for n, v in zip(names, o["corners"])) + "]  "
            body = " + ".join(
                (f"{m}*{d}" if m != 1 else d) for d, m in o["defects"]) or "0"
            out.write(f"{corner}{body}\n")
        if doc.get("constraints"):
            pretty = ", ".join(
                f"{m} = {'' if c == 1 else str(c) + '*'}{n}"
                for m, n, c in doc["constraints"])
            out.write(f"# constraints: {pretty}\n")
    elif "entries" in doc:
        out.write(f"# {doc['kind']} table, p={doc['p']}, "
                  f"{len(doc['entries'])} entries\n")
        for entry in doc["entries"]:
            _emit_text(entry, out)
    else:
        for key in sorted(doc):
            out.write(f"{key}: {json.dumps(doc[key], sort_keys=True)}\n")


def _check_prime(p):
    if not is_prime(p):
        raise CliError(EXIT_PARSE, f"p must be prime, got {p}")


def _check_max_basis():
    """A malformed ANNULUS_MAX_BASIS is a usage error of every command."""
    try:
        max_basis()
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))


def cmd_fuse_vertical(args):
    _check_prime(args.p)
    d1, c1 = _parse_defect(args.defects[0], args.p)
    d2, c2 = _parse_defect(args.defects[1], args.p)
    if c1 or c2:
        raise CliError(EXIT_PARSE, "vertical fusion takes no corner annotations")
    _emit(_call(EXIT_WALLS, vertical_fuse, d1, d2).to_json(), args.format)


def _call(structure_code, fn, *args, **kwargs):
    """fn(*args, **kwargs), its errors leaving as exit codes: a size limit
    4, a bad corner assignment 2 and any other StructureError
    `structure_code` (3, mismatched walls, for the fusion drivers; 6 for a
    document's structure or patch)."""
    try:
        return fn(*args, **kwargs)
    except SizeLimitError as exc:
        raise CliError(EXIT_SIZE, str(exc))
    except CornerError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    except StructureError as exc:
        raise CliError(structure_code, str(exc))


def cmd_fuse_horizontal(args):
    _check_prime(args.p)
    d1, c1 = _parse_defect(args.defects[0], args.p)
    d2, c2 = _parse_defect(args.defects[1], args.p)
    corners = _merge_corners(args, c1, c2)
    result = _call(EXIT_WALLS, horizontal_fuse, d1, d2, corners)
    _emit(result.to_json(), args.format)


def _merge_corners(args, *annotations):
    """Annotated and --corner values by name; a name given twice exits 2."""
    pairs = [pair for ann in annotations for pair in ann.items()]
    for piece in args.corner or ():
        name, _, value = piece.partition("=")
        try:
            if not name.strip():
                raise ValueError
            pairs.append((name.strip(), int(value)))
        except ValueError:
            raise CliError(EXIT_PARSE, f"bad corner assignment {piece!r}")
    corners = {}
    for name, value in pairs:
        if name in corners:
            raise CliError(EXIT_PARSE, f"corner {name} named twice")
        corners[name] = value
    return corners or None


def _refuse_ignored(what, *options):
    """A usage error naming every given option of (name, value) pairs
    that `what` would ignore."""
    given = [name for name, value in options if value]
    if given:
        raise CliError(EXIT_PARSE, f"{what} takes no {' or '.join(given)}")


def cmd_associator(args):
    _check_prime(args.p)
    if args.table:
        _refuse_ignored("associator --table", ("wall labels", args.walls),
                        ("--corner", args.corner))
        return cmd_table(argparse.Namespace(
            kind="associator", p=args.p, golden=args.golden,
            format=args.format, output=args.output))
    _refuse_ignored("associator without --table", ("-o", args.output))
    if len(args.walls) != 3:
        raise CliError(EXIT_PARSE, "associator needs three wall labels")
    try:
        walls = [BimoduleLabel.parse(t, args.p) for t in args.walls]
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    result = _call(EXIT_WALLS, associator, *walls,
                   corners=_merge_corners(args))
    if args.golden:
        _diff_golden([result], args.golden)
    _emit(result.to_json(), args.format)


def _unreadable(path, exc) -> CliError:
    """A file named on the command line that cannot be read: a usage error."""
    return CliError(EXIT_PARSE, f"cannot read {path}: {exc.strerror or exc}")


def _diff_golden(results, golden_path):
    if golden_path == "builtin":
        golden = load_golden_associators()
    else:
        try:
            with open(golden_path) as fh:
                golden = json.load(fh)
        except OSError as exc:
            raise _unreadable(golden_path, exc)
        except ValueError as exc:
            raise CliError(EXIT_PARSE,
                           f"bad golden table {golden_path}: {exc}")
    for result in results:
        try:
            check_associator_against_golden(result, golden)
        except AssertionError as exc:
            raise CliError(EXIT_GOLDEN, f"golden mismatch: {exc}")
        except ValueError as exc:
            raise CliError(EXIT_PARSE,
                           f"bad golden table {golden_path}: {exc}")


def _check_output(path):
    """An -o path that cannot be written is a usage error, found before any
    work and without creating or truncating the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise CliError(EXIT_PARSE, f"cannot write {path}: {reason}")


def cmd_table(args):
    _check_prime(args.p)
    if args.kind != "associator":
        _refuse_ignored(f"table {args.kind}", ("--golden", args.golden))
    if args.output:
        _check_output(args.output)
    doc = _call(EXIT_WALLS, generate_table, args.kind, args.p)
    if args.kind == "associator" and args.golden:
        _diff_golden([FusionResult.from_json(e) for e in doc["entries"]],
                     args.golden)
        doc["golden_checked"] = True
    if args.output:
        try:
            with open(args.output, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot write {args.output}: "
                                       f"{exc.strerror or exc}")
        print(f"wrote {args.output}")
    else:
        _emit(doc, args.format)


def _load_document(build, path, what):
    """build(the JSON object in the file at path): an unreadable file is a
    usage error, and a malformed document exits with the structure code as
    a "bad {what} document", naming a missing entry."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise StructureError("expected a JSON object")
        return build(doc)
    except OSError as exc:
        raise _unreadable(path, exc)
    except KeyError as exc:
        raise CliError(EXIT_STRUCTURE, f"bad {what} document: no {exc} entry")
    except (StructureError, ValueError, TypeError, IndexError,
            AttributeError) as exc:
        raise CliError(EXIT_STRUCTURE, f"bad {what} document: {exc}")


def cmd_decompose(args):
    cd = _load_document(compound_from_json, args.structure, "structure")
    qr = _call(EXIT_STRUCTURE, QuotientRep, cd)
    result = _call(EXIT_STRUCTURE, decompose, qr)
    if result is qr:
        doc = {
            "p": cd.p,
            "external_strings": len(cd.structure.external),
            "decomposition": None,
            "quotient_grade_dims": {
                json.dumps(g, sort_keys=True): d
                for g, d in sorted(qr.grade_dims().items(), key=repr)
            },
            "note": "decomposition needs a 2-string external boundary",
        }
    else:
        doc = {
            "p": cd.p,
            "external_strings": 2,
            "decomposition": [[d.name(), mult] for d, mult in result],
            "quotient_dim": qr.total_dim(),
        }
    _emit(doc, args.format)


def _violated_terms(patch, state: dict) -> dict:
    """`violated_terms` of the state document {"edges": {edge id: object},
    "vertices": [one local basis vector per vertex, each a list of
    integers]}."""
    edges = _document_kind(state["edges"], dict, "edges")
    vertices = _document_entries(state["vertices"], "vertices", "vertex",
                                 list)
    return patch.violated_terms(
        {eid: _document_object(v, f"edge {eid}") for eid, v in edges.items()},
        tuple(tuple(_document_int(x, f"vertex {i}: entry {j}")
                    for j, x in enumerate(vec))
              for i, vec in enumerate(vertices)))


def cmd_lw(args):
    patch = _load_document(patch_from_json, args.patch, "patch")
    commute = _call(EXIT_STRUCTURE, patch.check_commutation)
    dim = _call(EXIT_STRUCTURE, patch.ground_space_dim)
    doc = {
        "p": patch.p,
        "faces": len(patch.faces),
        "consistent_states": patch.ground_space.raw_basis.size,
        "commuting": commute["ok"],
        "ground_space_dim": dim,
    }
    if args.state:
        doc["violated_terms"] = _load_document(
            lambda state: _violated_terms(patch, state), args.state, "state")
    _emit(doc, args.format)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="annulus",
        description="Exact defect fusion on Vec(Z/pZ) domain wall structures")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, with_p=True):
        if with_p:
            sp.add_argument("-p", type=int, required=True, help="prime modulus")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("fuse-vertical", help="stack two defects")
    add_common(sp)
    sp.add_argument("defects", nargs=2)
    sp.set_defaults(func=cmd_fuse_vertical)

    sp = sub.add_parser("fuse-horizontal", help="fuse two defects side by side")
    add_common(sp)
    sp.add_argument("defects", nargs=2)
    sp.add_argument("--corner", action="append",
                    help="corner assignment name=value (repeatable)")
    sp.set_defaults(func=cmd_fuse_horizontal)

    sp = sub.add_parser("associator", help="compound defect of [M,N,P]")
    add_common(sp)
    sp.add_argument("walls", nargs="*")
    sp.add_argument("--corner", action="append")
    sp.add_argument("--table", action="store_true",
                    help="generate the full table instead")
    sp.add_argument("--golden", nargs="?", const="builtin",
                    help="diff against a golden table (default: built-in)")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_associator)

    sp = sub.add_parser("table", help="generate a fusion/associator table")
    add_common(sp)
    sp.add_argument("kind", choices=("vertical", "horizontal", "associator"))
    sp.add_argument("--golden", nargs="?", const="builtin")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("decompose", help="decompose a structure document")
    sp.add_argument("structure")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("lw", help="solve a Levin-Wen patch document")
    sp.add_argument("patch")
    sp.add_argument("--state", help="state document for a violated-term report")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_lw)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_max_basis()
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
