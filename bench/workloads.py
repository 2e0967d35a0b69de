"""The three workloads: inputs made from the seed, operations, and checks.

Each workload builds a *round*: a fixed list of operations.  A run repeats
whole rounds, so every run attempts the same mix and the share of failed
operations is the same whatever the seed or the run length.  Only the
content of the inputs (unitaries, densities, weights, suite seeds) comes
from the seed; block structures and command lines are fixed, so the cost
of a round barely depends on the seed.

An operation's ``run`` is the timed part.  Its ``check`` runs outside the
timed interval and returns ``None`` when the output is right, or the
reason it is not.  Checks compare against ``oracle`` (scipy on dense
matrices assembled here) or test a property the method must have; none
compares against a stored copy of the program's output.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ncentropy as nc
from ncentropy import cli
from ncentropy.algebra import AlgebraShape


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # A program fault that makes this operation fail on every run; its
    # failures are counted but do not make the run incorrect.
    known_fault: str | None = None
    bytes_in: int = 0
    suite: str | None = None  # gate only: the suite and its trial count
    trials: int = 0


# ---------------------------------------------------------------- inputs


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def density(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    g = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
    w = g @ g.conj().T
    w = w / np.trace(w).real
    return (w + w.conj().T) / 2


def block_diag(parts) -> np.ndarray:
    n = sum(p.shape[0] for p in parts)
    out = np.zeros((n, n), dtype=np.complex128)
    off = 0
    for p in parts:
        k = p.shape[0]
        out[off : off + k, off : off + k] = p
        off += k
    return out


@dataclass
class Hom:
    """A morphism as plain data (for the oracle) and as a library value."""

    c: np.ndarray
    dom: tuple
    cod: tuple
    us: list

    def lib(self) -> nc.Morphism:
        return nc.Morphism(AlgebraShape(self.dom), AlgebraShape(self.cod), self.c, tuple(self.us))

    def data(self):
        return self.c, self.dom, self.us


@dataclass
class St:
    """A state as plain data and as a library value."""

    shape: tuple
    w: np.ndarray
    d: list

    def lib(self) -> nc.State:
        return nc.State(AlgebraShape(self.shape), self.w, tuple(self.d))


def make_hom(rng, dom, cod, c) -> Hom:
    c = np.array(c, dtype=np.int64)
    assert tuple(c @ np.array(dom)) == tuple(cod), (dom, cod, c)
    return Hom(c, tuple(dom), tuple(cod), [haar(rng, m) for m in cod])


def make_state(rng, shape, rank=None) -> St:
    w = rng.dirichlet(np.ones(len(shape))) if len(shape) > 1 else np.ones(1)
    return St(tuple(shape), w, [density(rng, m, None if rank is None else min(rank, m)) for m in shape])


def segments(h: Hom, x: int):
    off = 0
    for y, n in enumerate(h.dom):
        k = int(h.c[x, y])
        if k:
            yield y, off, k, n
            off += k * n


def factorable_state(rng, h: Hom):
    """A state that factors through ``h`` by construction, with its factors ``tau``."""
    q = rng.dirichlet(np.ones(len(h.dom)))
    sig = [density(rng, n) for n in h.dom]
    tau = {}
    for y in range(len(h.dom)):
        xs = [x for x in range(len(h.cod)) if h.c[x, y] > 0]
        raws = []
        for x in xs:
            k = int(h.c[x, y])
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            raws.append(g @ g.conj().T)
        total = sum(np.trace(r).real for r in raws)
        for x, r in zip(xs, raws):
            tau[(y, x)] = r / total
    w, d = [], []
    for x, u in enumerate(h.us):
        inner = block_diag([np.kron(tau[(y, x)], q[y] * sig[y]) for y, _, _, _ in segments(h, x)])
        blk = u @ inner @ u.conj().T
        p = np.trace(blk).real
        w.append(p)
        rho = blk / p
        d.append((rho + rho.conj().T) / 2)
    w = np.array(w)
    return St(h.cod, w / w.sum(), d), tau


def orthogonal_pair(rng, n: int):
    """Two states on M_n whose supports are complementary subspaces."""
    v = haar(rng, n)
    half = n // 2
    out = []
    for cols in (v[:, :half], v[:, half:]):
        inner = density(rng, cols.shape[1])
        rho = cols @ inner @ cols.conj().T
        out.append(St((n,), np.ones(1), [(rho + rho.conj().T) / 2]))
    return out


def random_element(rng, dims) -> list[np.ndarray]:
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in dims]


# ---------------------------------------------------------------- checks


class Lazy:
    """An oracle value computed on first use, outside any timed interval, then kept.

    Operations repeat every round on the same inputs, so the oracle works
    once per input while every output is still checked.
    """

    def __init__(self, fn):
        self.fn = fn
        self.value = None
        self.done = False

    def __call__(self):
        if not self.done:
            import oracle

            self.value = self.fn(oracle)
            self.done = True
        return self.value


def max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def close(got: float, want: float, what: str, tol: float = 1e-8) -> str | None:
    if not (isinstance(got, float) and math.isfinite(got)) or abs(got - want) > tol:
        return f"{what}: got {got!r}, oracle {want!r}"
    return None


def pullback_check(h: Hom, s: St, b):
    """Against the oracle's partial traces, plus duality with ``apply`` on ``b``."""
    want = Lazy(lambda o: (o.pullback(*h.data(), s.w, s.d), o.evaluate(s.w, s.d, o.apply(*h.data(), b))))

    def check(weights, densities) -> str | None:
        import oracle

        (q, sig), rhs = want()
        if max_abs(np.asarray(weights) - q) > 1e-9:
            return "pullback weights differ from the oracle"
        for got, ref in zip(densities, sig):
            if ref is not None and max_abs(np.asarray(got) - ref) > 1e-9:
                return "pullback density differs from the oracle"
        lhs = oracle.evaluate(weights, densities, b)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
            return f"pullback duality fails: {lhs} vs {rhs}"
        return None

    return check


def support_check(s: St):
    """Hermitian projections that fix rho, of the oracle's rank."""
    ranks = Lazy(lambda o: [o.rank(rho) if p > 1e-10 else 0 for p, rho in zip(s.w, s.d)])

    def check(blocks) -> str | None:
        import oracle

        for p, rho, blk, want in zip(s.w, s.d, blocks, ranks()):
            blk = np.asarray(blk)
            if oracle.projection_defect(blk, rho if p > 1e-10 else None) > 1e-8:
                return "support block is not a Hermitian projection fixing the density"
            if int(round(np.trace(blk).real)) != want:
                return f"support rank {np.trace(blk).real:.6g} != oracle rank {want}"
        return None

    return check


def disintegration_check(h: Hom, s: St, tau):
    change = Lazy(lambda o: o.entropy_change(*h.data(), s.w, s.d))

    def check(tau_got, production) -> str | None:
        if set(tau_got) != set(tau):
            return f"factor keys {sorted(tau_got)} != constructed {sorted(tau)}"
        if max(max_abs(np.asarray(tau_got[k]) - tau[k]) for k in tau) > 1e-7:
            return "recovered factors differ from the constructed ones"
        if production < -1e-12:
            return f"negative entropy production {production!r}"
        return close(production, change(), "entropy production vs entropy change")

    return check


# ---------------------------------------------------------------- gate

# Trials per operation for each suite, sized so that every operation costs
# about the same (about 50 ms at the parent of the benchmark): suites differ
# in cost per trial by a factor of 12, and with one chunk for all the
# latency percentiles would sit on the gaps between suites and jump from
# run to run.  `continuity` is left out: its monotonicity check fails on a
# few seeds (see CHANGES.md), and an operation that fails on some seeds only
# would make the failed share differ between runs.
GATE_TRIALS = {
    "coboundary": 19,
    "functoriality": 17,
    "iso-invariance": 17,
    "adjoin-zero": 39,
    "concavity": 67,
    "holevo-nonneg": 8,
    "orthogonal-affinity": 11,
    "commutative-positivity": 66,
    "support-image": 34,
    "overlap-persistence": 25,
    "pure-vanishing": 94,
    "negative-existence": 65,
    "external-affinity": 14,
    "k-counterexample": 21,
    "disintegration": 14,
    "characterization-fit": 53,
}
GATE_SEEDS = 10  # suite seeds per round


def gate_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


class Gate:
    """``nce verify`` in-process: one operation is one suite over its GATE_TRIALS.

    A round runs every suite on GATE_SEEDS seeds derived from the workload
    seed.  The second round repeats the first, so every report is also
    checked to be byte-identical for a repeated (suite, trials, seed).
    """

    tail_pct = 95.0
    batch = 1
    min_rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.first: dict = {}
        self.round = []
        for k in range(GATE_SEEDS):
            s = gate_seed(seed, k)
            for suite, trials in GATE_TRIALS.items():
                argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(s)]
                check = self._checker(suite, trials, s)
                self.round.append(Op("verify", lambda argv=argv: run_cli(argv), check, suite=suite, trials=trials))

    def _checker(self, suite, trials, s):
        def check(out):
            code, stdout = out.code, out.stdout
            if code != 0:
                return f"verify {suite} exited {code}"
            payload = json.loads(stdout)
            (rep,) = payload["suites"]
            if not (payload["pass"] is True and rep["pass"] is True and not rep["failures"]):
                return f"suite {suite} did not pass: {rep['failures'][:1]}"
            if rep["suite"] != suite or rep["trials"] != trials or payload["seed"] != s:
                return "report names another suite, trial count or seed"
            if not (math.isfinite(rep["max_residual"]) and rep["max_residual"] >= 0.0):
                return f"bad max residual {rep['max_residual']!r}"
            if self.first.setdefault((suite, s), stdout) != stdout:
                return "report differs from an earlier run of the same (suite, trials, seed)"
            return None

        return check


# ---------------------------------------------------------------- large-blocks

# name -> (domain dims, codomain dims, multiplicities)
LARGE_SHAPES = {
    "incl64": ((16,), (64,), [[4]]),
    "two": ((16, 32), (64, 112), [[2, 1], [1, 3]]),
    "three": ((16, 24, 32), (112, 88, 16), [[2, 2, 1], [0, 1, 2], [1, 0, 0]]),
    "pair128": ((32, 16), (128, 64), [[3, 2], [1, 2]]),
    "incl256": ((64,), (256,), [[4]]),
}
# (inner g, outer f) pairs for compose
LARGE_COMPOSE = {
    "to128": (((16,), (32, 48), [[2], [3]]), ((32, 48), (128,), [[1, 2]])),
    "to208": (((16, 32), (64, 80), [[2, 1], [3, 1]]), ((64, 80), (208,), [[2, 1]])),
}
LARGE_VARIANTS = 3  # independent copies of the mid-size calls per round


class LargeBlocks:
    """Library calls on pre-generated instances with 1-3 blocks of dimension 16-256.

    A round makes LARGE_VARIANTS passes over mid-size instances (codomain
    blocks of 16-128) and one pass over the dimension-256 calls, so the
    slowest call, a disintegration at dimension 256, is about 2% of the
    operations and the p99 latency falls inside its cluster.
    """

    tail_pct = 99.0
    batch = 4
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(LARGE_VARIANTS):
            ops += self._calls(rng, ("incl64", "two", "three"), ("two",), ("to128",), ("two", "three"), ("incl64",), (("two", 8), ("three", 12)))
        ops += self._calls(rng, ("incl256",), ("pair128",), ("to208",), ("incl256",), ("incl256",), ())
        self.round = ops

    def _calls(self, rng, changes, holevos, composes, factoring, entangled, supports) -> list[Op]:
        """Operations on fresh instances of the named shapes."""
        names = {*changes, *holevos, *factoring, *entangled, *(k for k, _ in supports)}
        homs = {k: make_hom(rng, *LARGE_SHAPES[k]) for k in sorted(names)}
        libs = {k: h.lib() for k, h in homs.items()}
        ops = []
        for k in changes:
            h, f = homs[k], libs[k]
            s = make_state(rng, h.cod)
            w, b = s.lib(), random_element(rng, h.dom)
            ops.append(Op("entropy_change", lambda f=f, w=w: nc.entropy_change(f, w), self._change(h, s)))
            ops.append(Op("pullback", lambda f=f, w=w: nc.pullback(f, w), self._pullback(h, s, b)))
        lam = float(rng.uniform(0.2, 0.8))
        for k in holevos:
            a, x = make_state(rng, homs[k].cod), make_state(rng, homs[k].cod)
            f, wa, wx = libs[k], a.lib(), x.lib()
            ops.append(
                Op(
                    "holevo_change",
                    lambda f=f, wa=wa, wx=wx: nc.holevo_change(f, lam, wa, wx),
                    self._holevo(homs[k], lam, a, x),
                )
            )
        for k in composes:
            inner, outer = LARGE_COMPOSE[k]
            g, f = make_hom(rng, *inner), make_hom(rng, *outer)
            gl, fl = g.lib(), f.lib()
            b = random_element(rng, g.dom)
            ops.append(Op("compose", lambda f=fl, g=gl: nc.compose(f, g), self._compose(f, g, b)))
        for k in factoring:
            s, tau = factorable_state(rng, homs[k])
            f, w = libs[k], s.lib()
            ops.append(Op("disintegrate", lambda f=f, w=w: self._disintegrate(f, w), self._factors(homs[k], s, tau)))
        for k in entangled:
            # a full-rank Ginibre state is entangled across the tensor factors
            f, w = libs[k], make_state(rng, homs[k].cod).lib()
            ops.append(Op("disintegrate", lambda f=f, w=w: self._disintegrate(f, w), self._no_factors))
        for k, rank in supports:
            s = make_state(rng, homs[k].cod, rank=rank)
            w, check = s.lib(), support_check(s)
            ops.append(Op("support", lambda w=w: nc.support(w), lambda out, check=check: check(out.blocks)))
        return ops

    @staticmethod
    def _disintegrate(f, w):
        result = nc.quantum_disintegrate(f, w)
        if isinstance(result, nc.NoDisintegration):
            return result, None
        return result, nc.disintegration_entropy(f, w, result)

    @staticmethod
    def _change(h, s):
        want = Lazy(lambda o: o.entropy_change(*h.data(), s.w, s.d))
        return lambda out: close(out, want(), "entropy change")

    @staticmethod
    def _pullback(h, s, b):
        check = pullback_check(h, s, b)
        return lambda out: check(out.weights, out.densities)

    @staticmethod
    def _holevo(h, lam, a, b):
        want = Lazy(lambda o: o.holevo_change(*h.data(), lam, a.w, a.d, b.w, b.d))

        def check(out):
            if out < -1e-9:
                return f"negative Holevo deviation {out!r}"
            return close(out, want(), "holevo change")

        return check

    @staticmethod
    def _compose(f: Hom, g: Hom, b):
        sequential = Lazy(lambda o: o.apply(*f.data(), o.apply(*g.data(), b)))

        def check(out):
            import oracle

            if not np.array_equal(out.multiplicities, f.c @ g.c):
                return "composite multiplicities are not the product"
            direct = oracle.apply(out.multiplicities, g.dom, list(out.unitaries), b)
            worst = max(max_abs(p - q) for p, q in zip(direct, sequential()))
            if worst > 1e-8 * max(1.0, max(max_abs(q) for q in sequential())):
                return f"composite disagrees with sequential application by {worst:.3e}"
            return None

        return check

    @staticmethod
    def _factors(h, s, tau):
        check_factors = disintegration_check(h, s, tau)

        def check(out):
            result, production = out
            if isinstance(result, nc.NoDisintegration):
                return f"constructed factorization rejected: {result.violation}"
            return check_factors(result.tau, production)

        return check

    @staticmethod
    def _no_factors(out):
        result, _ = out
        return None if isinstance(result, nc.NoDisintegration) else "entangled state reported as factoring"


# ---------------------------------------------------------------- cli-json


def matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def state_json(s: St) -> dict:
    return {"shape": list(s.shape), "weights": [float(p) for p in s.w], "densities": [matrix_json(r) for r in s.d]}


def hom_json(h: Hom) -> dict:
    return {
        "domain": list(h.dom),
        "codomain": list(h.cod),
        "multiplicities": h.c.tolist(),
        "unitaries": [matrix_json(u) for u in h.us],
    }


# Malformed inputs, the same on every seed.  Every one must end in exit
# code 2.  Two of them fail today because of faults in the program.
MALFORMED = {
    "truncated": ("entropy", '{"shape": [2], "weights": [1.0], "densities": [[[[1, 0], [0', None),
    "not-hermitian": (
        "entropy",
        '{"shape": [2], "weights": [1.0], "densities": [[[[0.5, 0], [0.3, 0]], [[0, 0], [0.5, 0]]]]}',
        None,
    ),
    "missing-field": ("entropy", '{"shape": [2], "weights": [1.0]}', None),
    "not-unitary": (
        "change",
        '{"domain": [2], "codomain": [2], "multiplicities": [[1]], '
        '"unitaries": [[[[2, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
        None,
    ),
    "nan-weight": (
        "entropy",
        '{"shape": [1, 1], "weights": [NaN, 1.0], "densities": [[[[1, 0]]], [[[1, 0]]]]}',
        "State accepts a NaN weight; `nce entropy` prints 0 and exits 0",
    ),
    "text-multiplicity": (
        "change",
        '{"domain": [2], "codomain": [2], "multiplicities": [["a"]], "unitaries": null}',
        "`Morphism` raises an uncaught TypeError from np.floor on a non-numeric multiplicity",
    ),
}
CLI_VARIANTS = 3  # independent copies of the small inputs per round
CLI_LAMBDAS = (0.3, 0.5, 0.7)


class CliJson:
    """``ncentropy.cli.main(argv)`` in-process over JSON files of dimension 2-64."""

    tail_pct = 99.0
    batch = 4
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        ops = []
        for v in range(CLI_VARIANTS):
            ops += self._small(rng, v, CLI_LAMBDAS[v])
        ops += self._large(rng)
        s2 = self._write("s2-malformed-partner", state_json(make_state(rng, (2,))))
        for name, (command, text, fault) in MALFORMED.items():
            path = self.workdir / f"bad-{name}.json"
            path.write_text(text)
            argv = [command, str(path)] if command == "entropy" else [command, str(path), s2]
            ops.append(Op(f"malformed:{name}", self._runner(argv), self._expect_exit_2, fault, self._size(argv)))
        self.round = ops

    def _write(self, name: str, payload: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @staticmethod
    def _size(argv) -> int:
        return sum(Path(a).stat().st_size for a in argv if a.endswith(".json"))

    @staticmethod
    def _runner(argv):
        return lambda: run_cli(argv)

    def _op(self, kind, argv, check) -> Op:
        return Op(kind, self._runner(argv), self._ok(check), None, self._size(argv))

    def _small(self, rng, v: int, lam: float) -> list[Op]:
        """Commands on blocks of dimension 2-16."""
        h_a = make_hom(rng, (2,), (4,), [[2]])
        h_b = make_hom(rng, (4,), (16,), [[4]])
        h_c = make_hom(rng, (2, 4), (8, 8), [[2, 1], [0, 2]])
        st = {
            "s2": make_state(rng, (2,)),
            "s23": make_state(rng, (2, 3)),
            "s4": make_state(rng, (4,)),
            "s16a": make_state(rng, (16,)),
            "s16b": make_state(rng, (16,)),
            "s88": make_state(rng, (8, 8)),
            "s4r": make_state(rng, (4,), rank=2),
        }
        st["o1"], st["o2"] = orthogonal_pair(rng, 4)
        st["f4"], tau4 = factorable_state(rng, h_a)
        st["f88"], tau88 = factorable_state(rng, h_c)
        probe_a, probe_c = random_element(rng, h_a.dom), random_element(rng, h_c.dom)
        p = {k: self._write(f"v{v}-{k}", state_json(s)) for k, s in st.items()}
        m = {k: self._write(f"v{v}-{k}", hom_json(h)) for k, h in (("a", h_a), ("b", h_b), ("c", h_c))}
        a, b = st["s16a"], st["s16b"]
        return [
            self._op("entropy", ["entropy", p["s2"]], self._number(lambda o: o.entropy(st["s2"].w, st["s2"].d))),
            self._op("entropy", ["entropy", p["s23"], "--bits"], self._number(lambda o: o.entropy(st["s23"].w, st["s23"].d) / o.LOG2)),
            self._op("change", ["change", m["a"], p["s4"]], self._number(lambda o: o.entropy_change(*h_a.data(), st["s4"].w, st["s4"].d))),
            self._op("change", ["change", m["c"], p["s88"], "--bits"], self._number(lambda o: o.entropy_change(*h_c.data(), st["s88"].w, st["s88"].d) / o.LOG2)),
            self._op(
                "holevo",
                ["holevo", m["b"], p["s16a"], p["s16b"], "--lambda", str(lam)],
                self._number(lambda o: o.holevo_change(*h_b.data(), lam, a.w, a.d, b.w, b.d), nonneg=True),
            ),
            self._op("orthogonal", ["orthogonal", p["o1"], p["o2"]], self._literal("true")),
            self._op("orthogonal", ["orthogonal", p["s16a"], p["s16b"]], self._literal("false")),
            self._op("pullback", ["pullback", m["a"], p["s4"]], self._pulled(h_a, st["s4"], probe_a)),
            self._op("pullback", ["pullback", m["c"], p["s88"]], self._pulled(h_c, st["s88"], probe_c)),
            self._op("support", ["support", p["s4r"]], self._supported(st["s4r"])),
            self._op("disintegrate", ["disintegrate", m["a"], p["f4"]], self._factored(h_a, st["f4"], tau4)),
            self._op("disintegrate", ["disintegrate", m["c"], p["f88"]], self._factored(h_c, st["f88"], tau88)),
        ]

    def _large(self, rng) -> list[Op]:
        """Commands at dimension 64, once per round."""
        h = make_hom(rng, (16,), (64,), [[4]])
        s, sr = make_state(rng, (64,)), make_state(rng, (64,), rank=8)
        probe = random_element(rng, h.dom)
        ps, psr, m = self._write("s64", state_json(s)), self._write("s64r", state_json(sr)), self._write("d", hom_json(h))
        return [
            self._op("entropy", ["entropy", ps], self._number(lambda o: o.entropy(s.w, s.d))),
            self._op("change", ["change", m, ps], self._number(lambda o: o.entropy_change(*h.data(), s.w, s.d))),
            self._op("pullback", ["pullback", m, ps], self._pulled(h, s, probe)),
            self._op("support", ["support", psr], self._supported(sr)),
            self._op("disintegrate", ["disintegrate", m, ps], self._unfactored),
        ]

    @staticmethod
    def _ok(check):
        def wrapped(out):
            code, stdout, stderr = out.code, out.stdout, out.stderr
            if code != 0 or stderr:
                return f"exit {code}: {stderr.strip()[:200]}"
            return check(stdout)

        return wrapped

    @staticmethod
    def _number(fn, nonneg=False):
        want = Lazy(fn)

        def check(stdout):
            got = float(stdout)
            if nonneg and got < -1e-9:
                return f"negative Holevo deviation {got!r}"
            return close(got, want(), "printed value")

        return check

    @staticmethod
    def _literal(want):
        return lambda stdout: None if stdout.strip() == want else f"printed {stdout.strip()!r}, want {want!r}"

    @staticmethod
    def _pulled(h, s, b):
        check_pullback = pullback_check(h, s, b)

        def check(stdout):
            data = json.loads(stdout)
            if data["shape"] != list(h.dom):
                return "pullback lives on the wrong algebra"
            dens = [np.array([[complex(*z) for z in row] for row in r]) for r in data["densities"]]
            return check_pullback(data["weights"], dens)

        return check

    @staticmethod
    def _supported(s):
        check_support = support_check(s)

        def check(stdout):
            data = json.loads(stdout)
            blocks = [np.array([[complex(*z) for z in row] for row in r]) for r in data["blocks"]]
            return check_support(blocks)

        return check

    @staticmethod
    def _factored(h, s, tau):
        check_factors = disintegration_check(h, s, tau)

        def check(stdout):
            data = json.loads(stdout)
            if data["exists"] is not True or data["violations"]:
                return f"constructed factorization rejected: {data['violations']}"
            got = {
                tuple(int(i) for i in k.split(",")): np.array([[complex(*z) for z in row] for row in t])
                for k, t in data["tau"].items()
            }
            return check_factors(got, data["entropy_production"])

        return check

    @staticmethod
    def _unfactored(stdout):
        data = json.loads(stdout)
        if data["exists"] is not False or data["tau"] is not None or not data["violations"]:
            return "entangled state reported as factoring"
        return None

    @staticmethod
    def _expect_exit_2(out):
        code, stdout, stderr = out.code, out.stdout, out.stderr
        if code != 2 or stdout or not stderr.startswith("error:"):
            return f"malformed input ended in exit {code} with stdout {stdout.strip()[:40]!r}"
        return None


WORKLOADS = {"gate": Gate, "large-blocks": LargeBlocks, "cli-json": CliJson}
