"""Mutated structure, patch and state documents through the CLI, in one
process.

Each drawn document runs twice through `annulus decompose`, `annulus lw` or
`annulus lw --state`, so that its second run meets the shapes, label forms
and candidate tables its first run (and every earlier example) kept, and
once more with ANNULUS_MAX_BASIS raised. Every run ends with a documented
exit code, no traceback and none of Python's own messages for an entry of
the wrong type, and the two runs print the same and exit alike: a kept
shape never skips a check that a fresh build makes.

Pinned patch documents and state documents also have their pin values,
state edge values and local vector entries swapped for a value of the
wrong JSON type, which must exit 6, though Python may compare it equal to
an object.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from annulus import cli
from annulus.levinwen import hexagon_chain_patch, patch_to_json
from annulus.structures import associator_compound, compound_to_json
from annulus.walls import BimoduleLabel

EXIT_CODES = {0, 2, 3, 4, 6}
# Python's words for an entry of the wrong type, which a refusal must not
# pass through in place of naming the entry
PYTHON_MESSAGES = ("has no attribute", "string indices", "not subscriptable",
                   "not iterable", "unhashable type",
                   "not supported between instances")


def _structure_documents():
    p = 3
    walls = [BimoduleLabel.parse(t, p) for t in ("R", "Fq:2", "R")]
    t = BimoduleLabel.parse("T", p)
    return [compound_to_json(associator_compound(*walls, {"mu0": 2,
                                                           "nu1": 1})),
            compound_to_json(associator_compound(
                t, t, t, {"mu0": 0, "mu1": 1, "nu0": 0, "nu1": 1}))]


def _patch_documents():
    return [patch_to_json(hexagon_chain_patch(2, 2)),
            patch_to_json(hexagon_chain_patch(3, 1, pin=False))]


_STATE_PATCH = hexagon_chain_patch(3, 1)


def _state_documents():
    """A consistent state of `_STATE_PATCH`, and one with an interior edge
    moved off its endpoints' labels."""
    state = _STATE_PATCH.consistent_basis()[0]
    edges = _STATE_PATCH.edge_labels_of(state)
    vertices = [list(v) for v in state]
    interior = next(e.eid for e in _STATE_PATCH.edges if all(e.ends))
    moved = {**edges, interior: (edges[interior] + 1) % 3}
    return [{"edges": edges, "vertices": vertices},
            {"edges": moved, "vertices": vertices}]


def _leaves(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _leaves(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value)
    else:
        yield doc


def _containers(doc):
    """Every list and dict in doc, doc first."""
    if isinstance(doc, (dict, list)):
        yield doc
        for value in (doc.values() if isinstance(doc, dict) else doc):
            yield from _containers(value)


# small values only: a drawn p reaches no large field
_ODD_VALUES = [None, True, False, 0, 1, 2, 4, 5, -1, 1.5, "", "x", [], {},
               ["v1", "left"], [0, 0]]


@st.composite
def _mutated(draw, documents):
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    pool = sorted({json.dumps(v) for v in _leaves(doc)}) + [
        json.dumps(v) for v in _ODD_VALUES]
    for _ in range(draw(st.integers(1, 3))):
        box = draw(st.sampled_from(list(_containers(doc))))
        keys = list(box) if isinstance(box, dict) else list(range(len(box)))
        kind = draw(st.sampled_from(["replace", "delete", "duplicate",
                                     "swap"]))
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        if kind == "replace":
            box[key] = json.loads(draw(st.sampled_from(pool)))
        elif kind == "delete":
            del box[key]
        elif isinstance(box, list) and kind == "duplicate":
            box.insert(key, json.loads(json.dumps(box[key])))
        elif isinstance(box, list):
            other = draw(st.sampled_from(keys))
            box[key], box[other] = box[other], box[key]
    return doc


def _run(args, **env):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def _assert_documented(run):
    code, _, err = run
    assert code in EXIT_CODES, run
    assert "Traceback" not in err
    assert not any(text in err for text in PYTHON_MESSAGES), err


def _check(args, doc, path):
    """Run args, which read doc from path, as the module docstring says."""
    path.write_text(json.dumps(doc))
    first = _run(args)
    _assert_documented(first)
    assert _run(args) == first
    raised = _run(args, ANNULUS_MAX_BASIS=str(10 ** 9))
    _assert_documented(raised)
    if first[0] != 4:
        assert raised == first


# a bool, a float, null or a nested list: no object and no entry of a
# local vector, though true, false, 0.0 and 1.0 equal an integer
_WRONG_TYPES = [True, False, 0.0, 1.0, 1.5, None, [[0], [0]], [0, [1]], [[]]]


@st.composite
def _retyped(draw, documents, places):
    """A document with one to three values swapped for `_WRONG_TYPES`,
    each at one of the (container, key) that `places` lists."""
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    spots = places(doc)
    for _ in range(draw(st.integers(1, 3))):
        box, key = draw(st.sampled_from(spots))
        box[key] = draw(st.sampled_from(_WRONG_TYPES))
    return doc


def _pins(doc):
    return [(doc["pinned"], eid) for eid in doc["pinned"]]


def _state_entries(doc):
    return [(doc["edges"], eid) for eid in doc["edges"]] + [
        (vec, j) for vec in doc["vertices"] for j in range(len(vec))]


def _check_refused(args, doc, path):
    path.write_text(json.dumps(doc))
    run = _run(args)
    _assert_documented(run)
    assert run[0] == 6, run


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doc=_mutated(_structure_documents()))
def test_mutated_structure_documents_run_alike_twice(scratch, doc):
    _check(["decompose", str(scratch)], doc, scratch)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doc=_mutated(_patch_documents()))
def test_mutated_patch_documents_run_alike_twice(scratch, doc):
    _check(["lw", str(scratch)], doc, scratch)


@pytest.fixture(scope="module")
def state_patch(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "patch.json"
    path.write_text(json.dumps(patch_to_json(_STATE_PATCH)))
    return path


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doc=_mutated(_state_documents()))
def test_mutated_state_documents_run_alike_twice(scratch, state_patch, doc):
    _check(["lw", str(state_patch), "--state", str(scratch)], doc, scratch)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(doc=_retyped([patch_to_json(hexagon_chain_patch(2, 2)),
                     patch_to_json(_STATE_PATCH)], _pins))
def test_pins_of_the_wrong_type_exit_6(scratch, doc):
    _check_refused(["lw", str(scratch)], doc, scratch)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(doc=_retyped(_state_documents(), _state_entries))
def test_state_entries_of_the_wrong_type_exit_6(scratch, state_patch, doc):
    _check_refused(["lw", str(state_patch), "--state", str(scratch)], doc,
                   scratch)
