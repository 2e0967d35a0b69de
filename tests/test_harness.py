import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncentropy import AlgebraShape, InstanceFamily, Seed, State, are_orthogonal, entropy_change, generate_instance, run_all, run_suite
from ncentropy import harness
from ncentropy.cli import _worked_examples
from ncentropy.errors import UnknownSuite
from ncentropy.harness import SUITES, _sample_orthogonal_pair, _sample_shape
from ncentropy.morphism import pullback


def test_generator_is_deterministic():
    f1, w1 = generate_instance(InstanceFamily(), Seed(7, 3))
    f2, w2 = generate_instance(InstanceFamily(), Seed(7, 3))
    assert np.array_equal(f1.multiplicities, f2.multiplicities)
    assert all(np.array_equal(a, b) for a, b in zip(f1.unitaries, f2.unitaries))
    assert np.array_equal(w1.weights, w2.weights)
    f3, _ = generate_instance(InstanceFamily(), Seed(7, 4))
    assert (
        f3.domain != f1.domain
        or f3.codomain != f1.codomain
        or not np.array_equal(f3.multiplicities, f1.multiplicities)
        or not all(np.array_equal(a, b) for a, b in zip(f3.unitaries, f1.unitaries))
    )


def test_generator_respects_family():
    given = AlgebraShape((2, 3))
    cases = [
        (harness._CLASSICAL, None),
        (InstanceFamily(max_blocks=2, max_block_dim=3), None),
        (InstanceFamily(max_block_dim=9), None),
        (InstanceFamily(min_block_dim=2), None),
        (InstanceFamily(max_blocks=1), None),
        (InstanceFamily(), given),
    ]
    for j, (family, domain) in enumerate(cases):
        for k in range(20):
            f = harness._sample_morphism(family, Seed(11 + j, k).rng(), domain)
            for shape in (f.codomain,) if domain is not None else (f.domain, f.codomain):
                assert 1 <= len(shape) <= family.max_blocks
                assert all(family.min_block_dim <= m <= family.max_block_dim for m in shape.blocks)
            assert f.multiplicities.any(axis=1).all()  # no codomain block is empty
            assert domain is None or f.domain == domain
            if family == harness._CLASSICAL:  # a function: one 1 per row
                assert set(f.multiplicities.sum(axis=1).tolist()) == {1}


def test_generator_orthogonal_pairs():
    for k in range(20):
        rng = Seed(13, k).rng()
        shape = _sample_shape(InstanceFamily(min_block_dim=2), rng)
        omega, xi = _sample_orthogonal_pair(shape, rng)
        assert are_orthogonal(omega, xi)


def test_constraint_rows_solve_dimensions():
    for k in range(30):
        f, _ = generate_instance(InstanceFamily(), Seed(14, k))
        n = np.asarray(f.domain.blocks)
        for x, m in enumerate(f.codomain.blocks):
            assert int(f.multiplicities[x] @ n) == m


@pytest.mark.parametrize("name", list(SUITES))
def test_each_trial_builds_one_generator(monkeypatch, name):
    opened = []
    build = Seed.rng

    def counted(self, *substream):
        opened.append((self, substream))
        return build(self, *substream)

    monkeypatch.setattr(Seed, "rng", counted)
    assert run_suite(name, 4, Seed(42), 1e-9).passed
    assert opened == [(Seed(42).child(i), ()) for i in range(4)]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    report = run_suite(name, 25, Seed(42), 1e-9)
    assert report.passed, report.failures[:3]
    assert report.trials == 25
    assert report.suite == name


def test_reports_are_byte_identical():
    a = json.dumps(run_suite("disintegration", 30, Seed(5), 1e-9).to_json(), sort_keys=True)
    b = json.dumps(run_suite("disintegration", 30, Seed(5), 1e-9).to_json(), sort_keys=True)
    assert a == b


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite", 1, Seed(0))


def test_run_all_covers_the_roster():
    reports = run_all(5, Seed(3), 1e-9)
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.passed for r in reports)


def test_roster_order_matches_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Verification suites", 1)[1].split("Reports are", 1)[0]
    assert list(SUITES) == re.findall(r"`([a-z-]+)`", section.split("runs any of:", 1)[1])


def test_failed_boolean_check_records_unit_residual(monkeypatch):
    clean = run_suite("iso-invariance", 3, Seed(4), 1e-9)
    monkeypatch.setattr(harness.mor, "is_isomorphism", lambda f: False)
    report = run_suite("iso-invariance", 3, Seed(4), 1e-9)
    assert clean.passed and not report.passed
    assert [(d, r) for _, d, r in report.failures] == [("constructed isomorphism not recognized", 1.0)] * 3
    assert [s for s, _, _ in report.failures] == [(4, Seed(4).child(i).stream) for i in range(3)]
    assert report.max_residual == clean.max_residual < 1.0


def test_failed_numeric_check_raises_max_residual(monkeypatch):
    from ncentropy import entropy

    exact = entropy._change_and_pullback
    monkeypatch.setattr(entropy, "_change_and_pullback", lambda f, omega: (exact(f, omega)[0] + 1e-3, pullback(f, omega)))
    report = run_suite("iso-invariance", 4, Seed(4), 1e-9)
    assert not report.passed
    assert report.max_residual == max(r for _, _, r in report.failures)
    assert abs(report.max_residual - 1e-3) < 1e-12
    assert {d for _, d, _ in report.failures} == {"entropy change along an isomorphism"}


# Pullbacks per trial of the suites that reuse one pullback for several checks
PULLBACKS_PER_TRIAL = {
    "coboundary": 3,
    "functoriality": 3,
    "holevo-nonneg": 6,
    "orthogonal-affinity": 5,
    "external-affinity": 3,
    "k-counterexample": 4,
    "continuity": 3,
}


@pytest.mark.parametrize("name", list(SUITES))
def test_each_suite_pulls_each_state_back_once_per_trial(monkeypatch, name):
    from ncentropy import entropy, morphism

    windows = [[]]  # the (f, omega) of each pullback, per trial; kept alive so no id is reused
    exact = morphism.pullback

    def counted(f, omega):
        windows[-1].append((f, omega))
        return exact(f, omega)

    # the entropy functors pull back through entropy's binding, the
    # harness and preserves_orthogonality through morphism's
    monkeypatch.setattr(entropy, "pullback", counted)
    monkeypatch.setattr(morphism, "pullback", counted)
    trial_name = "_suite_" + name.replace("-", "_")
    one_trial = getattr(harness, trial_name)
    if SUITES[name] is not one_trial:  # a per-trial suite: open a window per trial

        def windowed(*args):
            windows.append([])
            return one_trial(*args)

        monkeypatch.setattr(harness, trial_name, windowed)
    assert run_suite(name, 5, Seed(42), 1e-9).passed
    for calls in windows:
        keys = [(id(f), id(omega)) for f, omega in calls]
        assert len(keys) == len(set(keys))
    if name in PULLBACKS_PER_TRIAL:
        assert [len(calls) for calls in windows[1:]] == [PULLBACKS_PER_TRIAL[name]] * 5


def test_characterization_fit_reports_constant():
    report = run_suite("characterization-fit", 40, Seed(2), 1e-9)
    assert report.fitted_constant is not None
    assert abs(report.fitted_constant - 1.0) < 1e-9


def test_characterization_fit_reports_a_raising_trial_and_fits_the_others(monkeypatch):
    from ncentropy import entropy

    exact = entropy._change_and_pullback
    calls = []

    def raising_once(f, omega):
        calls.append(f)
        if len(calls) == 3:
            raise RuntimeError("injected fault")
        return exact(f, omega)

    monkeypatch.setattr(entropy, "_change_and_pullback", raising_once)
    report = run_suite("characterization-fit", 10, Seed(2), 1e-9)
    assert len(calls) == 10
    assert report.failures == (((2, Seed(2).child(2).stream), "raised RuntimeError", 1.0),)
    assert abs(report.fitted_constant - 1.0) < 1e-9


def test_continuity_rate_matches_a_central_difference(monkeypatch):
    # D, the first-order rate the suite checks the change against, agrees
    # with (dS(omega + h Delta) - dS(omega - h Delta)) / 2h built here from
    # the same directions
    exact = harness._change_rate
    calls = []

    def recorded(f, omega, pulled, w_dir, dirs):
        calls.append((f, omega, w_dir, dirs, exact(f, omega, pulled, w_dir, dirs)))
        return calls[-1][-1]

    monkeypatch.setattr(harness, "_change_rate", recorded)
    assert run_suite("continuity", 200, Seed(42), 1e-9).passed
    assert len(calls) == 200
    h = 1e-3

    def moved(omega, w_dir, dirs, t):
        densities = tuple(rho + t * d for rho, d in zip(omega.densities, dirs))
        return State(omega.shape, omega.weights + t * w_dir, densities)

    for f, omega, w_dir, dirs, rate in calls:
        central = (entropy_change(f, moved(omega, w_dir, dirs, h)) - entropy_change(f, moved(omega, w_dir, dirs, -h))) / (2 * h)
        assert abs(central - rate) < 1e-9
    assert max(abs(rate) for *_, rate in calls) > 1e-3


def test_continuity_rejects_an_offset_away_from_the_base_state(monkeypatch):
    from ncentropy import entropy

    exact = entropy._change_and_pullback
    bases = {}  # id(f) -> f; the first call per morphism is the base state

    def offset(f, omega):
        if id(f) not in bases:
            bases[id(f)] = f
            return exact(f, omega)
        return exact(f, omega)[0] + 1e-6, pullback(f, omega)

    monkeypatch.setattr(entropy, "_change_and_pullback", offset)
    report = run_suite("continuity", 16, Seed(42), 1e-9)
    assert not report.passed


def test_reference_entropy_matches_the_closed_forms():
    examples = _worked_examples()
    quartic = np.diag(examples["remark-quartic"][1].densities[0]).real
    closed = {
        "bell": -np.log(2.0),
        "plus-measurement": -np.log(2.0),
        "remark-quartic": harness._remark_quartic_change(quartic),
    }
    changes = []
    for name, (f, omega) in examples.items():
        reference = harness._reference_entropy(omega) - harness._reference_entropy(pullback(f, omega))
        assert abs(reference - closed[name]) < 1e-12, name
        changes.append(entropy_change(f, omega))
    assert abs(harness.fit_scaling_constant(changes, [closed[name] for name in examples]) - 1.0) < 1e-12


def test_gate_verdicts_agree_across_openblas_kernels():
    # the report's residuals may differ in the last bits between OpenBLAS kernels; its verdicts may not
    runs = []
    for kernel in (None, "Haswell"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        argv = [sys.executable, "-m", "ncentropy.cli", "verify", "--suite", "all", "--trials", "20", "--seed", "42"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode == -signal.SIGILL:
            pytest.skip(f"this CPU cannot run the {kernel} kernel")
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    if runs[0] == runs[1]:
        pytest.skip("OPENBLAS_CORETYPE=Haswell gives the default kernel's bytes here")
    default, haswell = ([(s["suite"], s["pass"]) for s in json.loads(out)["suites"]] for out in runs)
    assert default == haswell and len(default) == len(SUITES)


def test_gate_report_keeps_the_haswell_reference_bytes():
    # a pure refactor keeps the gate's stdout byte for byte; under one pinned kernel, tests/gate_references.txt holds its sha256
    if np.__version__ != "2.4.6":
        pytest.skip(f"the references were made with numpy 2.4.6, not {np.__version__}")
    rows = (line.split() for line in (Path(__file__).parent / "gate_references.txt").read_text().splitlines())
    expected = next(row[3] for row in rows if row[:3] == ["Haswell", "42", "-"])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "ncentropy.cli", "verify", "--suite", "all", "--trials", "200", "--seed", "42", "--tol", "1e-9"]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    if proc.returncode == -signal.SIGILL:
        pytest.skip("this CPU cannot run the Haswell kernel")
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == expected


def _openblas_core(env) -> str | None:
    """The core that the bundled OpenBLAS of a fresh process under ``env`` picks, or None where numpy bundles none."""
    probe = (
        "import ctypes, glob, os, numpy as np\n"
        "for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, 'numpy.libs', 'libscipy_openblas*')):\n"
        "    fn = getattr(ctypes.CDLL(path), 'scipy_openblas_get_corename64_', None)\n"
        "    if fn is not None:\n"
        "        fn.restype = ctypes.c_char_p\n"
        "        print(fn().decode())\n"
    )
    names = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60).stdout.split()
    return names[0] if names else None


def test_gate_report_keeps_the_skylakex_reference_bytes():
    # the default kernel's row of tests/gate_references.txt, where OpenBLAS picks one of the AVX-512 cores it stands for
    if np.__version__ != "2.4.6":
        pytest.skip(f"the references were made with numpy 2.4.6, not {np.__version__}")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    core = _openblas_core(env)
    if core not in ("SkylakeX", "Cooperlake", "SapphireRapids"):
        pytest.skip(f"OpenBLAS picks the {core} core here, which the SkylakeX row does not stand for")
    rows = (line.split() for line in (Path(__file__).parent / "gate_references.txt").read_text().splitlines())
    expected = next(row[3] for row in rows if row[:3] == ["SkylakeX", "42", "-"])
    argv = [sys.executable, "-m", "ncentropy.cli", "verify", "--suite", "all", "--trials", "200", "--seed", "42", "--tol", "1e-9"]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == expected
