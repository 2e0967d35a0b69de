"""Command-line interface over JSON files.

Machine-readable output goes to stdout, diagnostics to stderr.  Exit
codes: 0 on success (and passing suites), 1 on suite failure, 2 on
malformed input, on usage errors, or when the blocks that a morphism
file declares do not fit in memory (in the commands with a ``morphism``
argument: ``pullback``, ``change``, ``holevo`` and ``disintegrate``;
each prints nothing before it has its result).

``main`` builds its parser once per process and reuses it on later calls
while ``NCE_SEED``, which supplies the ``verify --seed`` default, keeps
its value; ``build_parser`` returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import disintegration as dis
from . import entropy as ent
from . import harness
from . import morphism as mor
from . import state as st
from .algebra import AlgebraShape, element_to_json
from .errors import InvariantViolation, ShapeMismatch
from .harness import factor_inclusion
from .linalg import Seed, matrix_to_json
from .state import State


def _fmt(value: float, bits: bool) -> str:
    if bits:
        value = value / ent.LOG2
    if value == 0.0:
        value = 0.0  # avoid printing negative zero
    return f"{value:.12g}"


class _InputError(Exception):
    """Bad input file or value; reported on stderr with exit code 2."""


def _load_json(path: str):
    """A state or morphism file, decoded; a JSON boolean, which the loaders would read as a number, raises."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise _InputError(f"{path}: JSON nested too deeply") from exc
    if _has_boolean(text):
        raise ShapeMismatch(f"{path}: JSON booleans are not accepted; no state or morphism field holds one")
    return data


def _has_boolean(text: str) -> bool:
    """Whether ``true`` or ``false`` stands outside a string of JSON ``text``."""
    # one-character scans run at memchr speed, unlike a word search over digits, and rule
    # out most files: false holds an f, and true a u after tr
    i = text.find("u")
    while i >= 0 and not text.startswith("tr", i - 2):
        i = text.find("u", i + 1)
    if i < 0 and "f" not in text:
        return False
    bare = re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)  # every string literal emptied
    return "true" in bare or "false" in bare


def _at_least(convert, low):
    """argparse type: ``convert(text)``, finite and at least ``low``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be at least {low} and finite, got {value}")
        return value

    return parse


def _load_state(path: str) -> State:
    return st.state_from_json(_load_json(path))


def _load_morphism(path: str, codomain: AlgebraShape) -> mor.Morphism:
    """The morphism in ``path``, refused before any block is built unless it maps into ``codomain``, a loaded state's shape."""
    data = _load_json(path)
    if isinstance(data, dict) and data.get("codomain", list(codomain.blocks)) != list(codomain.blocks):
        raise ShapeMismatch(f"{path}: morphism codomain differs from the state's shape {codomain.blocks}")
    return mor.morphism_from_json(data)


def _cmd_entropy(args) -> int:
    omega = _load_state(args.state)
    print(_fmt(ent.segal(omega), args.bits))
    return 0


def _cmd_pullback(args) -> int:
    omega = _load_state(args.state)
    f = _load_morphism(args.morphism, omega.shape)
    print(json.dumps(st.state_to_json(mor.pullback(f, omega))))
    return 0


def _cmd_change(args) -> int:
    omega = _load_state(args.state)
    f = _load_morphism(args.morphism, omega.shape)
    print(_fmt(ent.entropy_change(f, omega), args.bits))
    return 0


def _cmd_holevo(args) -> int:
    omega = _load_state(args.state_a)
    xi = _load_state(args.state_b)
    f = _load_morphism(args.morphism, omega.shape)
    print(_fmt(ent.holevo_change(f, args.lam, omega, xi), args.bits))
    return 0


def _cmd_support(args) -> int:
    omega = _load_state(args.state)
    print(json.dumps(element_to_json(st.support(omega))))
    return 0


def _cmd_orthogonal(args) -> int:
    a = _load_state(args.state_a)
    b = _load_state(args.state_b)
    print(json.dumps(st.are_orthogonal(a, b)))
    return 0


def _cmd_disintegrate(args) -> int:
    omega = _load_state(args.state)
    f = _load_morphism(args.morphism, omega.shape)
    unit = ent.LOG2 if args.bits else 1.0  # divided out, as in ``_fmt``
    if args.classical:
        try:
            psi = dis.classical_disintegrate(f, omega)
        except ShapeMismatch as exc:
            raise InvariantViolation("--classical requires a morphism between commutative algebras") from exc
        production = ent.entropy_change(f, omega)
        payload = {
            "exists": True,
            "psi": psi.tolist(),
            "entropy_production": production / unit,
        }
        print(json.dumps(payload))
        return 0
    result = dis.quantum_disintegrate(f, omega)
    if isinstance(result, dis.NoDisintegration):
        payload = {
            "exists": False,
            "tau": None,
            "violations": [result.violation],
            "entropy_production": None,
        }
    else:
        payload = {
            "exists": True,
            "tau": {f"{y},{x}": matrix_to_json(t) for (y, x), t in sorted(result.tau.items())},
            "violations": [],
            "entropy_production": dis.disintegration_entropy(f, omega, result) / unit,
        }
    print(json.dumps(payload))
    return 0


def _worked_examples() -> dict:
    bell = np.zeros((4, 4), dtype=np.complex128)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    quartic = np.diag([0.5, 0.25, 0.125, 0.125]).astype(np.complex128)
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    z_obs = np.diag([1.0, -1.0]).astype(np.complex128)
    return {
        "bell": (
            factor_inclusion(2, 2),
            State(AlgebraShape((4,)), np.ones(1), (bell,)),
        ),
        "plus-measurement": (
            mor.measurement_morphism(AlgebraShape((2,)), 0, z_obs),
            State(AlgebraShape((2,)), np.ones(1), (plus,)),
        ),
        "remark-quartic": (
            factor_inclusion(2, 2),
            State(AlgebraShape((4,)), np.ones(1), (quartic,)),
        ),
    }


def _cmd_example(args) -> int:
    examples = _worked_examples()
    f, omega = examples[args.name]
    out_dir = Path(args.dir)
    morphism_path = out_dir / f"{args.name}_morphism.json"
    state_path = out_dir / f"{args.name}_state.json"
    morphism_json = mor.morphism_to_json(f)
    state_json = st.state_to_json(omega)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        morphism_path.write_text(json.dumps(morphism_json, indent=2))
        state_path.write_text(json.dumps(state_json, indent=2))
    except OSError as exc:
        raise _InputError(f"cannot write to {out_dir}: {exc}") from exc
    bundle = {
        "name": args.name,
        "files": {"morphism": str(morphism_path), "state": str(state_path)},
        "morphism": morphism_json,
        "state": state_json,
    }
    print(json.dumps(bundle))
    return 0


def _cmd_verify(args) -> int:
    seed = Seed(args.seed)
    if args.suite == "all":
        reports = harness.run_all(args.trials, seed, args.tol)
    else:
        reports = [harness.run_suite(args.suite, args.trials, seed, args.tol)]
    passed = all(r.passed for r in reports)
    payload = {
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
        "pass": passed,
        "suites": [r.to_json() for r in reports],
    }
    print(json.dumps(payload))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}: max residual {r.max_residual:.3e}", file=sys.stderr)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nce",
        description="Entropy computations and lemma-verification suites for finite quantum probability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bits(p):
        p.add_argument("--bits", action="store_true", help="report entropies in bits instead of nats")

    p = sub.add_parser("entropy", help="Segal entropy of a state")
    p.add_argument("state")
    add_bits(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("pullback", help="pull a state back through a morphism")
    p.add_argument("morphism")
    p.add_argument("state")
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("change", help="entropy change of a state along a morphism")
    p.add_argument("morphism")
    p.add_argument("state")
    add_bits(p)
    p.set_defaults(func=_cmd_change)

    p = sub.add_parser("holevo", help="mixing deviation of the entropy change")
    p.add_argument("morphism")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--lambda", dest="lam", type=float, required=True, metavar="WEIGHT")
    add_bits(p)
    p.set_defaults(func=_cmd_holevo)

    p = sub.add_parser("support", help="support projection of a state")
    p.add_argument("state")
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("orthogonal", help="whether two states have orthogonal supports")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.set_defaults(func=_cmd_orthogonal)

    p = sub.add_parser("disintegrate", help="construct or refute a disintegration")
    p.add_argument("morphism")
    p.add_argument("state")
    p.add_argument("--classical", action="store_true", help="use the stochastic inverse of a map of finite sets")
    add_bits(p)
    p.set_defaults(func=_cmd_disintegrate)

    p = sub.add_parser("example", help="emit a worked instance as JSON files")
    p.add_argument("name", choices=["bell", "plus-measurement", "remark-quartic"])
    p.add_argument("--dir", default=".", help="directory for the emitted files")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--trials", type=_at_least(int, 1), default=200)
    # argparse applies ``type`` to a string default only when the option is
    # absent, so a malformed NCE_SEED is a usage error of ``verify`` alone.
    p.add_argument("--seed", type=_at_least(int, 0), default=os.environ.get("NCE_SEED", "42"))
    p.add_argument("--tol", type=_at_least(float, 0.0), default=harness.GATE_TOL)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(nce_seed: str | None) -> argparse.ArgumentParser:
    """``build_parser()`` for the given value of ``NCE_SEED``, built once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(os.environ.get("NCE_SEED")).parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        message = str(exc)
    except InvariantViolation as exc:
        message = f"{type(exc).__name__}: {exc}"
    except MemoryError as exc:
        if not hasattr(args, "morphism"):  # no morphism file declared the blocks
            raise
        message = f"MemoryError: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
