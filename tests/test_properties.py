"""Property tests of the JSON loaders and the ``nce`` entry point.

Inputs are generated JSON values and mutations of the ``bell`` example
files (one leaf replaced by a generated value or nudged by at most
1e-9, or one key dropped).
Every input must either load or raise ``InvariantViolation``, and
``cli.main`` must return 0 or 2 without raising, printing a finite
number on 0.  Generated integers stay at or below ``MAX_DIM``: a block
dimension is read from any of them, and a morphism file with
``"unitaries": null`` builds an identity of every codomain block.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ncentropy import cli
from ncentropy.errors import InvariantViolation
from ncentropy.harness import _DEFAULT, _sample_morphism
from ncentropy.linalg import DEFAULT_TOL, hermitian_part, matrix_from_json, sample_unitary
from ncentropy.morphism import morphism_from_json, morphism_to_json
from ncentropy.state import State, state_from_json, state_to_json

MAX_DIM = 64
FIELDS = ("shape", "weights", "densities", "domain", "codomain", "multiplicities", "unitaries")

_f, _omega = cli._worked_examples()["bell"]
BELL_MORPHISM, BELL_STATE = morphism_to_json(_f), state_to_json(_omega)

_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=MAX_DIM)
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=16,
)


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaf_paths(item, path + (index,))
    else:
        yield path


@st.composite
def mutations(draw, doc):
    """``doc`` with one leaf replaced by a generated JSON value or nudged, or with one key dropped."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        return {k: v for k, v in doc.items() if k != key}
    *parents, last = draw(st.sampled_from(list(_leaf_paths(doc))))
    out = copy.deepcopy(doc)
    node = out
    for step in parents:
        node = node[step]
    old = node[last]
    nudged = st.floats(-1e-9, 1e-9).map(lambda e: old + e) if type(old) in (int, float) else st.nothing()
    node[last] = draw(json_values | nudged)
    return out


def _settings(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None)


@_settings(300)
@given(json_values | mutations(BELL_STATE) | mutations(BELL_MORPHISM))
def test_loaders_load_or_raise_invariant_violation(value):
    for load in (state_from_json, morphism_from_json, matrix_from_json):
        try:
            load(value)
        except InvariantViolation:
            pass


def _dumps(value) -> bytes:
    return json.dumps(value).encode()


# (command, file content): the content goes to the file the command reads
# (for "change", in the role the content fills) or, for "example", to the
# regular file given as its --dir
cli_inputs = (
    st.tuples(st.sampled_from(["entropy", "change-state"]), mutations(BELL_STATE).map(_dumps))
    | st.tuples(st.just("change-morphism"), mutations(BELL_MORPHISM).map(_dumps))
    | st.tuples(
        st.sampled_from(["entropy", "change-state", "change-morphism"]),
        json_values.map(_dumps) | st.binary(max_size=32),
    )
)


@pytest.fixture(scope="module")
def bell_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bell")
    paths = {"morphism": root / "morphism.json", "state": root / "state.json", "input": root / "input.json"}
    paths["morphism"].write_text(json.dumps(BELL_MORPHISM))
    paths["state"].write_text(json.dumps(BELL_STATE))
    return {k: str(v) for k, v in paths.items()}


@_settings(200)
@given(cli_inputs)
@example(("entropy", b"[" * 100_000))
@example(("entropy", _dumps(BELL_STATE) + b"\xff"))
@example(("example", b""))
def test_cli_exits_0_or_2_and_prints_a_finite_number(bell_files, case):
    command, content = case
    path = bell_files["input"]
    with open(path, "wb") as fh:
        fh.write(content)
    argv = {
        "entropy": ["entropy", path],
        "change-state": ["change", bell_files["morphism"], path],
        "change-morphism": ["change", path, bell_files["state"]],
        "example": ["example", "bell", "--dir", path],
    }[command]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2)
    if code == 0:
        assert command != "example"
        assert math.isfinite(float(out.getvalue()))


# Edge spectra that the loader accepts: per eigenvalue, a generic value, a value in
# (-DEFAULT_TOL, 0), a value within three decades of DEFAULT_TOL, or 0; per block weight,
# a generic weight, a light one in [1e-16, 1e-8], or 0.  Generic entries take what the
# edge entries leave, so traces and weight sums are 1 within rounding.  A block's
# eigenbasis is Haar, or the morphism's unitary for that block, so that its eigenvalues
# sit on the copies the pullback adds up.
_edge_eigenvalues = st.one_of(
    st.floats(0.05, 1.0).map(lambda v: ("generic", v)),
    st.floats(-0.99 * DEFAULT_TOL, 0.0).map(lambda v: ("edge", v)),
    st.floats(-13.0, -7.0).map(lambda e: ("edge", 10.0**e)),
    st.just(("edge", 0.0)),
)
_edge_weights = st.one_of(
    st.floats(0.05, 1.0).map(lambda v: ("generic", v)),
    st.floats(-16.0, -8.0).map(lambda e: ("edge", 10.0**e)),
    st.just(("edge", 0.0)),
)


def _fill(entries, total):
    """The values of ``entries``, the generic ones rescaled to sum with the edge ones to ``total``; one is generic."""
    if all(kind == "edge" for kind, _ in entries):
        entries = [("generic", 1.0)] + entries[1:]
    edge = sum(v for kind, v in entries if kind == "edge")
    generic = sum(v for kind, v in entries if kind == "generic")
    return np.array([v if kind == "edge" else v * (total - edge) / generic for kind, v in entries])


@st.composite
def edge_states(draw, f, rng):
    shape = f.codomain
    weights = _fill(draw(st.lists(_edge_weights, min_size=len(shape), max_size=len(shape))), 1.0)
    densities = []
    for m, aligned in zip(shape.blocks, f.unitaries):
        vals = _fill(draw(st.lists(_edge_eigenvalues, min_size=m, max_size=m)), 1.0)
        u = aligned if draw(st.booleans()) else sample_unitary(m, rng)
        densities.append(hermitian_part((u * vals) @ u.conj().T))
    try:
        return state_from_json(state_to_json(State(shape, weights, tuple(densities))))
    except InvariantViolation:
        reject()


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("edge")
    return {name: str(root / f"{name}.json") for name in ("morphism", "state_a", "state_b")}


@_settings(150)
@given(st.integers(0, 2**32 - 1), st.data())
def test_states_the_loader_accepts_are_accepted_through_a_morphism(edge_files, seed, data):
    rng = np.random.default_rng(seed)
    f = _sample_morphism(_DEFAULT, rng)
    documents = {
        "morphism": morphism_to_json(f),
        "state_a": state_to_json(data.draw(edge_states(f, rng))),
        "state_b": state_to_json(data.draw(edge_states(f, rng))),
    }
    for name, document in documents.items():
        with open(edge_files[name], "w") as fh:
            json.dump(document, fh)
    morphism, a, b = (edge_files[name] for name in ("morphism", "state_a", "state_b"))
    for argv in (["change", morphism, a], ["pullback", morphism, a], ["holevo", "--lambda", "0.3", morphism, a, b], ["disintegrate", morphism, a]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
        assert (code, err.getvalue()) == (0, ""), argv
