import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ncentropy import State, cli, harness
from ncentropy.algebra import MAX_BLOCK_DIM
from ncentropy.linalg import project_to_density
from ncentropy.morphism import morphism_from_json, morphism_to_json
from ncentropy.state import state_from_json, state_to_json
from predicates import extensionally_equal, light_block


LOG2 = math.log(2.0)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_bell(tmp_path, capsys):
    code, out, _ = _run(capsys, "example", "bell", "--dir", str(tmp_path))
    assert code == 0
    bundle = json.loads(out)
    return bundle["files"]["morphism"], bundle["files"]["state"]


def test_example_bell_then_change(tmp_path, capsys):
    morphism, state = _write_bell(tmp_path, capsys)
    code, out, _ = _run(capsys, "change", morphism, state)
    assert code == 0
    assert abs(float(out) + LOG2) < 1e-9


def test_change_in_bits(tmp_path, capsys):
    morphism, state = _write_bell(tmp_path, capsys)
    code, out, _ = _run(capsys, "change", morphism, state, "--bits")
    assert code == 0
    assert abs(float(out) + 1.0) < 1e-9


def test_entropy_and_support(tmp_path, capsys):
    _, state = _write_bell(tmp_path, capsys)
    code, out, _ = _run(capsys, "entropy", state)
    assert code == 0
    assert abs(float(out)) < 1e-9
    code, out, _ = _run(capsys, "support", state)
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == [4]


def test_pullback_round_trips(tmp_path, capsys):
    morphism, state = _write_bell(tmp_path, capsys)
    code, out, _ = _run(capsys, "pullback", morphism, state)
    assert code == 0
    pulled = state_from_json(json.loads(out))
    assert np.allclose(pulled.densities[0], np.eye(2) / 2)


def test_morphism_json_round_trip(tmp_path, capsys):
    code, out, _ = _run(capsys, "example", "plus-measurement", "--dir", str(tmp_path))
    assert code == 0
    bundle = json.loads(out)
    f = morphism_from_json(bundle["morphism"])
    again = morphism_from_json(json.loads(json.dumps(bundle["morphism"])))
    assert extensionally_equal(f, again, tol=1e-12)


def test_plus_measurement_change(tmp_path, capsys):
    code, out, _ = _run(capsys, "example", "plus-measurement", "--dir", str(tmp_path))
    bundle = json.loads(out)
    code, out, _ = _run(capsys, "change", bundle["files"]["morphism"], bundle["files"]["state"])
    assert code == 0
    assert abs(float(out) + LOG2) < 1e-9


def test_orthogonal_command(tmp_path, capsys):
    _, state = _write_bell(tmp_path, capsys)
    code, out, _ = _run(capsys, "orthogonal", state, state)
    assert code == 0
    assert json.loads(out) is False


def test_holevo_command(tmp_path, capsys):
    shape = {"shape": [2]}
    morphism = {"domain": [1], "codomain": [2], "multiplicities": [[2]], "unitaries": None}
    e0 = {**shape, "weights": [1.0], "densities": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}
    e1 = {**shape, "weights": [1.0], "densities": [[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    paths = {}
    for name, payload in [("m", morphism), ("a", e0), ("b", e1)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    code, out, _ = _run(capsys, "holevo", paths["m"], paths["a"], paths["b"], "--lambda", "0.5")
    assert code == 0
    assert abs(float(out) - LOG2) < 1e-9


def test_disintegrate_quartic(tmp_path, capsys):
    code, out, _ = _run(capsys, "example", "remark-quartic", "--dir", str(tmp_path))
    bundle = json.loads(out)
    code, out, _ = _run(capsys, "disintegrate", bundle["files"]["morphism"], bundle["files"]["state"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["tau"] is None
    assert payload["violations"]


def test_disintegrate_classical(tmp_path, capsys):
    morphism = {
        "domain": [1, 1],
        "codomain": [1, 1, 1],
        "multiplicities": [[1, 0], [0, 1], [0, 1]],
        "unitaries": None,
    }
    state = {
        "shape": [1, 1, 1],
        "weights": [0.5, 0.25, 0.25],
        "densities": [[[[1, 0]]], [[[1, 0]]], [[[1, 0]]]],
    }
    mp, sp = tmp_path / "m.json", tmp_path / "s.json"
    mp.write_text(json.dumps(morphism))
    sp.write_text(json.dumps(state))
    code, out, _ = _run(capsys, "disintegrate", str(mp), str(sp), "--classical")
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert np.allclose(payload["psi"], [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    assert abs(payload["entropy_production"] - 0.5 * LOG2) < 1e-9
    for extra in ([], ["--classical"]):  # bits are nats divided by log 2, as every other command reports them
        code, out, _ = _run(capsys, "disintegrate", str(mp), str(sp), "--bits", *extra)
        nats = json.loads(_run(capsys, "disintegrate", str(mp), str(sp), *extra)[1])["entropy_production"]
        assert (code, json.loads(out)["entropy_production"]) == (0, nats / LOG2)


def test_disintegrate_classical_needs_commutative_algebras(tmp_path, capsys):
    morphism, state = _write_bell(tmp_path, capsys)
    code, out, err = _run(capsys, "disintegrate", morphism, state, "--classical")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines()[-1] == (
        "error: InvariantViolation: --classical requires a morphism between commutative algebras"
    )


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": [2], "weights"')
    code, _, err = _run(capsys, "entropy", str(bad))
    assert code == 2
    assert "bad.json:1:" in err


def test_invariant_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "shape": [2],
        "weights": [0.9],
        "densities": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]],
    }))
    code, _, err = _run(capsys, "entropy", str(bad))
    assert code == 2
    assert "NotProbabilityVector" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, "entropy", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_example_into_unwritable_dir_exits_2(tmp_path, capsys):
    occupied = tmp_path / "file"
    occupied.write_text("")
    code, out, err = _run(capsys, "example", "bell", "--dir", str(occupied))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write to")


def test_verify_single_suite(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "coboundary", "--trials", "20", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["suites"][0]["suite"] == "coboundary"
    assert "[pass]" in err


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "bogus", "--trials", "1")
    assert code == 2
    assert "unknown suite" in err


def test_verify_reports_a_raising_trial_as_a_failure(capsys, monkeypatch):
    from ncentropy import morphism, state

    for module in (state, morphism):
        monkeypatch.setattr(module, "are_orthogonal", lambda omega, xi: False)
    code, out, _ = _run(capsys, "verify", "--suite", "all", "--trials", "20", "--seed", "42")
    assert code == 1
    failing = {r["suite"]: {f["description"] for f in r["failures"]} for r in json.loads(out)["suites"] if not r["pass"]}
    raised = {"raised NotOrthogonalInput"}
    assert failing == {"iso-invariance": raised, "orthogonal-affinity": raised, "k-counterexample": raised}


def test_verify_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("NCE_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["verify"])
    assert args.seed == 123


_STATE = {"shape": [1, 1], "weights": [0.5, 0.5], "densities": [[[[1, 0]]], [[[1, 0]]]]}
_STATE_2 = {"shape": [2], "weights": [1.0], "densities": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}
_MORPHISM = {"domain": [2], "codomain": [2], "multiplicities": [[1]], "unitaries": None}


@pytest.mark.parametrize(
    "command, payload, error",
    [
        ("entropy", {**_STATE, "weights": [float("nan"), 1.0]}, "NotProbabilityVector"),
        ("entropy", {**_STATE, "weights": [float("inf"), 0.0]}, "NotProbabilityVector"),
        ("entropy", {**_STATE, "weights": ["a", 0.5]}, "ShapeMismatch"),
        ("entropy", {**_STATE, "weights": ["0.5", "5e-1"]}, "ShapeMismatch: probability vector entries must be real numbers"),
        ("entropy", {**_STATE, "shape": ["a", 1]}, "ShapeMismatch"),
        ("change", {**_MORPHISM, "multiplicities": [["a"]]}, "ShapeMismatch"),
        ("change", {**_MORPHISM, "domain": ["a"]}, "ShapeMismatch"),
        ("change", {**_MORPHISM, "codomain": ["a"]}, "ShapeMismatch"),
        ("change", {**_MORPHISM, "unitaries": 5}, "ShapeMismatch"),
        ("change", {**_MORPHISM, "unitaries": [[[[10**310, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "ShapeMismatch"),
        ("change", {**_MORPHISM, "unitaries": [[[[1 + 4e-11, 0], [4e-11, 0]], [[4e-11, 0], [1 + 4e-11, 0]]]]}, "NotUnitary"),
        ("entropy", {**_STATE_2, "densities": [[[[0.5, 0, 7], [0, 0]], [[0, 0], [0.5, 0]]]]}, "ShapeMismatch"),
        ("entropy", {**_STATE_2, "shape": ["2"]}, "ShapeMismatch"),
        ("entropy", {**_STATE_2, "shape": [2.7]}, "ShapeMismatch"),
        ("entropy", {**_STATE, "shape": [True, 1]}, "ShapeMismatch"),
        ("entropy", {**_STATE_2, "densities": [[[[-1, 0], [1.7e308, -1e308]], [[1.7e308, 1e308], [1e308, 0]]]]}, "NotDensity: density spectrum is not finite"),
        ("verify", ["--seed=-1"], "--seed: must be at least 0"),
        ("verify", {"NCE_SEED": "-1"}, "--seed: must be at least 0"),
        ("verify", ["--tol", "nan"], "--tol: must be at least 0.0 and finite"),
        ("verify", ["--tol", "-1"], "--tol: must be at least 0.0 and finite"),
        ("verify", ["--tol", "inf"], "--tol: must be at least 0.0 and finite"),
        ("entropy", b"[" * 100_000, "nested too deeply"),
        ("entropy", json.dumps(_STATE).encode() + b"\xff", "cannot read"),
    ],
    ids=[
        "nan-weight",
        "inf-weight",
        "text-weight",
        "numeric-text-weights",
        "text-shape",
        "text-multiplicity",
        "text-domain",
        "text-codomain",
        "number-unitaries",
        "huge-unitary-entry",
        "unitary-within-tolerance-entrywise-only",
        "three-number-entry",
        "text-block-dimension",
        "fractional-block-dimension",
        "boolean-block-dimension",
        "nan-spectrum-density",
        "negative-seed",
        "negative-seed-env",
        "nan-tol",
        "negative-tol",
        "infinite-tol",
        "deep-nesting",
        "not-utf8",
    ],
)
def test_malformed_values_exit_2(tmp_path, capsys, monkeypatch, command, payload, error):
    bad = tmp_path / "bad.json"
    if isinstance(payload, bytes):  # raw file content
        bad.write_bytes(payload)
    else:
        bad.write_text(json.dumps(payload))
    if command == "verify":  # payload: extra options, or environment variables
        argv = ["verify", "--suite", "coboundary", "--trials", "2"]
        if isinstance(payload, dict):
            for name, value in payload.items():
                monkeypatch.setenv(name, value)
        else:
            argv += payload
    elif command == "entropy":
        argv = ["entropy", str(bad)]
    else:
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"shape": [2], "weights": [1.0], "densities": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}))
        argv = ["change", str(bad), str(state)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    if command == "verify":  # argparse prints its usage line first
        err = err.splitlines()[-1].removeprefix("nce verify: ")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and error in err


_RAGGED = [[[1, 0], [0, 0]], [[0, 0]]]


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("entropy", {**_STATE_2, "shape": [2, 4000000000], "weights": [1.0, 0.0]}, f"block dimensions must be in 1..{MAX_BLOCK_DIM}, got (2, 4000000000)"),
        ("entropy", {**_STATE_2, "densities": [_RAGGED]}, "matrix rows must be nonempty and of equal length"),
        ("change", {**_MORPHISM, "domain": [2, 4000000000], "multiplicities": [[1, 0]]}, f"block dimensions must be in 1..{MAX_BLOCK_DIM}, got (2, 4000000000)"),
        ("change", {**_MORPHISM, "unitaries": [_RAGGED]}, "matrix rows must be nonempty and of equal length"),
    ],
    ids=["state-block-too-large", "state-ragged-density", "morphism-block-too-large", "morphism-ragged-unitary"],
)
def test_a_loader_reports_the_check_that_failed(tmp_path, capsys, command, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(_STATE_2))
    code, out, err = _run(capsys, command, str(bad), *([str(state)] if command == "change" else []))
    assert (code, out) == (2, "")
    assert err == f"error: ShapeMismatch: {message}\n"


# The child caps its own address space, then runs ``nce``: building a
# declared 100000-dimensional block would need 149 GiB.
_CAPPED_NCE = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "from ncentropy import cli; sys.exit(cli.main(sys.argv[1:]))"
)


def _run_capped(tmp_path, command, morphism_data):
    """``nce command morphism state`` on a 2-dimensional pure state in a child process capped at 2 GiB."""
    morphism = tmp_path / "morphism.json"
    morphism.write_text(json.dumps(morphism_data))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"shape": [2], "weights": [1.0], "densities": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}))
    extra = [str(state), "--lambda", "0.5"] if command == "holevo" else []
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_NCE, command, str(morphism), str(state), *extra],
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("command", ["pullback", "change", "holevo", "disintegrate"])
def test_codomain_is_checked_before_any_block_is_built(tmp_path, command):
    proc = _run_capped(tmp_path, command, {"domain": [1], "codomain": [100000], "multiplicities": [[100000]], "unitaries": None})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ShapeMismatch") and proc.stderr.count("\n") == 1


def test_an_overflowing_unitary_exits_2_with_one_stderr_line(tmp_path):
    # U^dag U overflows to inf and NaN; numpy's warnings about that product stay off stderr
    u = [[[1e200, 0], [1e200, 0]], [[1e200, 0], [0, 1e200]]]
    proc = _run_capped(tmp_path, "change", {**_MORPHISM, "unitaries": [u]})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: NotUnitary") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["pullback", "change", "holevo", "disintegrate"])
def test_a_domain_block_too_large_to_build_exits_2(tmp_path, command):
    # the codomain matches the state; the weight-zero domain block's accumulator cannot be built,
    # and above 759250124, where n^2 * 16 bytes leave numpy's intp, it cannot even be described
    for n, error in [
        (100000, "MemoryError: Unable to allocate"),
        (759250124, "MemoryError: Unable to allocate"),
        (759250125, "ShapeMismatch"),
        (4000000000, "ShapeMismatch"),
        (10**30, "ShapeMismatch"),
    ]:
        proc = _run_capped(tmp_path, command, {"domain": [2, n], "codomain": [2], "multiplicities": [[1, 0]], "unitaries": None})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: {error}") and proc.stderr.count("\n") == 1


def test_verify_does_not_report_a_memory_error_as_malformed_input(monkeypatch, capsys):
    def run_all(trials, seed, tol):
        raise MemoryError("out of memory")

    monkeypatch.setattr(harness, "run_all", run_all)
    with pytest.raises(MemoryError):
        cli.main(["verify"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "text, code",
    [
        ('{"shape": [1], "weights": [true], "densities": [[[[true, false]]]]}', 2),
        ('{"shape": [1], "weights": [1.0], "densities": [[[[1, 0]]]], "note": true}', 2),
        ('{"unit": "u", "shape": [1], "weights": [1.0], "densities": [[[[1, 0]]]], "mark": true}', 2),
        ('{"shape": [1], "weights": [1.0], "densities": [[[[1, 0]]]], "note": "true, not \\"false\\""}', 0),
    ],
    ids=["boolean-numbers", "boolean-extra-field", "boolean-after-other-u", "boolean-words-in-a-string"],
)
def test_json_booleans_exit_2(tmp_path, capsys, text, code):
    path = tmp_path / "state.json"
    path.write_text(text)
    got, out, err = _run(capsys, "entropy", str(path))
    assert got == code
    if code == 2:
        assert out == "" and err.startswith("error:") and "boolean" in err
    else:
        assert float(out) == 0.0 and err == ""


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(capsys, trials):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--suite", "coboundary", "--trials", trials])
    assert exit_info.value.code == 2
    assert "--trials: must be at least 1" in capsys.readouterr().err


def test_malformed_seed_env_fails_verify_only(tmp_path, capsys, monkeypatch):
    _, state = _write_bell(tmp_path, capsys)
    monkeypatch.setenv("NCE_SEED", "abc")
    code, out, err = _run(capsys, "entropy", state)
    assert code == 0 and err == ""
    assert abs(float(out)) < 1e-9
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--suite", "coboundary", "--trials", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: invalid int value: 'abc'" in captured.err


def test_verify_seed_follows_env_between_calls(capsys, monkeypatch):
    seeds = []
    for value in ("5", "6"):
        monkeypatch.setenv("NCE_SEED", value)
        code, out, _ = _run(capsys, "verify", "--suite", "coboundary", "--trials", "1")
        assert code == 0
        seeds.append(json.loads(out)["seed"])
    assert seeds == [5, 6]


def test_verify_has_no_bits_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--suite", "coboundary", "--trials", "1", "--bits"])
    assert exit_info.value.code == 2
    assert "--bits" in capsys.readouterr().err
    morphism, state = _write_bell(tmp_path, capsys)
    code, out, _ = _run(capsys, "change", morphism, state, "--bits")
    assert code == 0 and abs(float(out) + 1.0) < 1e-9


def test_repeated_calls_do_not_share_options(tmp_path, capsys):
    morphism, state = _write_bell(tmp_path, capsys)
    code, out, _ = _run(capsys, "change", morphism, state, "--bits")
    assert code == 0 and abs(float(out) + 1.0) < 1e-9
    code, out, _ = _run(capsys, "change", morphism, state)
    assert code == 0 and abs(float(out) + LOG2) < 1e-9


def _light_files():
    """M_2 + C into M_5 and a state on M_5 that factors through it at pullback weight 1e-9 on the M_2 block."""
    f, rho = light_block(1e-9, np.random.default_rng(1034))
    return morphism_to_json(f), state_to_json(State(f.codomain, [1.0], (project_to_density(rho),)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, files, code, fragment",
    [
        ("entropy", (None, {**_STATE_2, "densities": [[[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]]]}), 2, "NotDensity: density deviates from Hermitian by inf"),
        ("entropy", (None, {**_STATE_2, "densities": [[[[0.5, 0], [1.5e308, 0]], [[1.4e308, 0], [0.5, 0]]]]}), 2, "NotDensity: density deviates from Hermitian by 1.000e+307"),
        ("entropy", (None, {"shape": [3], "weights": [1.0], "densities": [[[[0.5, 0], [0.5, 0], [0, 0]], [[-0.5, 0], [1.7e308, 0], [0, 0]], [[0, 0], [0, 0], [0.5, 0]]]]}), 2, "NotDensity: density deviates from Hermitian by 1.000e+00"),
        ("entropy", (None, {"shape": [1], "weights": [1.0], "densities": [[[[1, 1e308]]]]}), 2, "NotDensity: density deviates from Hermitian by inf"),
        ("entropy", (None, {**_STATE_2, "densities": [[[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]]}), 2, "NotDensity: density trace inf"),
        ("entropy", (None, {**_STATE, "weights": [1e308, 1e308]}), 2, "NotProbabilityVector: entries sum to inf"),
        ("disintegrate", _light_files, 0, '"exists": true'),
        (
            "disintegrate",
            ({"domain": [1, 1], "codomain": [3], "multiplicities": [[2, 1]], "unitaries": None},
            {"shape": [3], "weights": [1.0], "densities": [[[[3e-10, 0], [0, 0], [0, 0]], [[0, 0], [-0.9e-10, 0], [0, 0]], [[0, 0], [0, 0], [1 - 2.1e-10, 0]]]]}),
            0,
            '"violations": ["candidate factor for domain block 0 in codomain block 0 is not PSD"]',
        ),
        (
            "disintegrate",
            ({"domain": [1, 1], "codomain": [2], "multiplicities": [[1, 1]], "unitaries": None},
            {**_STATE_2, "densities": [[[[0.6, 0], [0.2, 0.1]], [[0.2, -0.1], [0.4, 0]]]]}),
            0,
            '"violations": ["codomain block 0 does not factor through the pullback"]',
        ),
        (
            "disintegrate",
            ({"domain": [1, 1], "codomain": [1, 1], "multiplicities": [[1, 0], [0, 1]], "unitaries": None},
            {**_STATE, "weights": [0.99999999999, 1e-11]}),
            0,
            '"violations": ["codomain block 1 does not factor through the pullback"]',
        ),
    ],
    ids=[f"overflow-{i}" for i in range(1, 7)] + ["light-factor", "not-psd-factor", "coupled-segments", "charge-on-weight-zero"],
)
def test_a_command_on_files_reports_its_outcome_without_a_warning(tmp_path, capsys, command, files, code, fragment):
    # overflow-1 to overflow-6: finite entries whose Hermitian deviation, Hermitian part (twice; on
    # overflow-3's the eigensolver does not converge), 1x1 deviation, trace or weight sum overflows
    morphism, state = files() if callable(files) else files
    paths = []
    for name, payload in [("morphism", morphism), ("state", state)]:
        if payload is not None:
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(payload))
    got, out, err = _run(capsys, command, *map(str, paths))
    assert got == code
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and fragment in err
    else:
        assert err == "" and fragment in out


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "{quartic_state}"],
        ["change", "{quartic_morphism}", "{quartic_state}"],
        ["holevo", "{quartic_morphism}", "{quartic_state}", "{bell_state}", "--lambda", "0.3"],
        ["disintegrate", "{map_morphism}", "{map_state}"],
        ["disintegrate", "{map_morphism}", "{map_state}", "--classical"],
    ],
    ids=["entropy", "change", "holevo", "disintegrate", "disintegrate-classical"],
)
def test_bits_times_log_2_are_nats(tmp_path, capsys, argv):
    files = {}
    for name in ("bell", "remark-quartic"):
        bundle = json.loads(_run(capsys, "example", name, "--dir", str(tmp_path))[1])
        prefix = name.removeprefix("remark-")
        files[f"{prefix}_morphism"], files[f"{prefix}_state"] = bundle["files"]["morphism"], bundle["files"]["state"]
    # the map {0} -> 0, {1, 2} -> 1 of finite sets, and a state on its codomain
    for name, payload in [
        ("map_morphism", {"domain": [1, 1], "codomain": [1, 1, 1], "multiplicities": [[1, 0], [0, 1], [0, 1]], "unitaries": None}),
        ("map_state", {"shape": [1, 1, 1], "weights": [0.5, 0.25, 0.25], "densities": [[[[1, 0]]], [[[1, 0]]], [[[1, 0]]]]}),
    ]:
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    values = []
    for extra in ([], ["--bits"]):
        code, out, err = _run(capsys, *(a.format(**files) for a in argv), *extra)
        assert (code, err) == (0, "")
        value = json.loads(out)
        values.append(value["entropy_production"] if isinstance(value, dict) else value)
    nats, bits = values
    assert abs(nats) > 0.1  # a value whose unit shows
    assert abs(bits * LOG2 - nats) < 1e-11


# M_2 into M_4 by two copies, and diag(0.5 + e, -e, 0.5 + e, -e) at e = 9e-11: the loader
# accepts each eigenvalue -e, and the pullback sums two copies of it to -2e, below -DEFAULT_TOL
_E = 9e-11
_COPIES_FILES = (
    {"domain": [2], "codomain": [4], "multiplicities": [[2]], "unitaries": None},
    {"shape": [4], "weights": [1.0], "densities": [[[[v if i == j else 0.0, 0.0] for j in range(4)] for i, v in enumerate([0.5 + _E, -_E] * 2)]]},
)


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["change", "{morphism}", "{state}"], lambda out: out == "0.693147180505\n"),  # the entropy of the state
        (["pullback", "{morphism}", "{state}"], lambda out: json.loads(out)["densities"] == [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]),
        (["holevo", "{morphism}", "{state}", "{state}", "--lambda", "0.3"], lambda out: abs(float(out)) < 1e-12),
        (["disintegrate", "{morphism}", "{state}"], lambda out: json.loads(out)["exists"]),
    ],
    ids=["change", "pullback", "holevo", "disintegrate"],
)
def test_a_state_the_loader_accepts_is_accepted_through_a_pullback(tmp_path, capsys, argv, printed):
    files = {}
    for name, payload in zip(("morphism", "state"), _COPIES_FILES):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    assert _run(capsys, "entropy", files["state"]) == (0, "0.693147180505\n", "")
    code, out, err = _run(capsys, *(a.format(**files) for a in argv))
    assert (code, err) == (0, "") and printed(out)
