"""The benchmark's three workloads.

Each workload builds its inputs from the seed, then offers one round of
operations.  An operation is a timed call into scatter1d (``run``) plus
an untimed ``collect`` that turns its return value into what the checks
read and counts the bytes of any artifact it wrote.  Rounds repeat the
same operations, so every round attempts the same work and fails the
same way.

* ``sweep``: invisibility design, classification and CLI wavelength
  sweeps; all of it runs on the closed Bessel forms.
* ``oracle``: short slabs through the closed form, the evolution
  integrator and the shooting solver, plus ``validate all``.
* ``lasing``: Table-1 singularity solves, grid scans with their ODE
  validation, and direct evolution over 100 cells.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import mpmath as mp
import numpy as np

import checks
from scatter1d import cli, invisibility, shooting, singularity, transfer
from scatter1d import analytic, potential
from scatter1d.errors import NearZeroError


@dataclass
class Op:
    name: str                  # the query, as a failure report names it
    kind: str                  # which metric the operation's time counts toward
    run: Callable[[], Any]
    collect: Optional[Callable[[Any], tuple[Any, int]]] = None


@dataclass
class Record:
    op: Op
    seconds: float             # CPU time of the call
    value: Any = None
    error: Optional[BaseException] = None
    bytes_out: int = 0


def op_seconds(rounds: list[list[Record]]) -> dict[str, float]:
    """Each operation's time in the run, by name: the median of its runs.

    Noise on a shared machine comes in bursts that only ever add time; the
    median of an operation's runs passes over them.  The same statistic
    whatever the number of runs, so that a run that fits one round more or
    less than another measures the same thing.
    """
    samples: dict[str, list[float]] = {}
    for rnd in rounds:
        for r in rnd:
            samples.setdefault(r.op.name, []).append(r.seconds)
    return {name: statistics.median(v) for name, v in samples.items()}


def _done(rounds: list[list[Record]], kind: str) -> list[Record]:
    """The operations of ``kind`` in a round that succeeded."""
    return [r for r in rounds[0] if r.op.kind == kind and r.error is None]


def round_seconds(rounds: list[list[Record]], kind: Optional[str] = None) -> float:
    """One round's time (only its successful ``kind`` operations, if given)."""
    t = op_seconds(rounds)
    recs = rounds[0] if kind is None else _done(rounds, kind)
    return sum(t[r.op.name] for r in recs)


def _typical(rounds: list[list[Record]], kind: str) -> float:
    t = op_seconds(rounds)
    return statistics.median(t[name] for name in {r.op.name for r in _done(rounds, kind)})


def _read_artifact(path: Path):
    def collect(rc: int) -> tuple[Any, int]:
        data = path.read_bytes()
        return (rc, data), len(data)
    return collect


def _cli_op(name: str, kind: str, argv: list[str], out: Path) -> Op:
    return Op(name, kind, lambda: cli.main(argv), _read_artifact(out))


class Workload:
    name = ""

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def check(self, rounds: list[list[Record]]) -> list[str]:
        raise NotImplementedError

    def named_metrics(self, rounds: list[list[Record]]) -> dict[str, tuple[float, str]]:
        """This workload's metrics under their own names, with units."""
        raise NotImplementedError

    def work_per_s(self, rounds: list[list[Record]]) -> float:
        raise NotImplementedError

    def cli_s(self, rounds: list[list[Record]]) -> float:
        raise NotImplementedError


def _ok_records(rounds, op_name):
    """Records of one operation that did not fail, over every round."""
    return [r for rnd in rounds for r in rnd if r.op.name == op_name and r.error is None]


def _same_every_round(records: list[Record], label: str) -> list[str]:
    digests = {hashlib.sha256(repr(r.value).encode()).hexdigest() for r in records}
    if len(digests) > 1:
        return [f"{label}: output differs between rounds"]
    return []


# ---------------------------------------------------------------- sweep


@dataclass(frozen=True)
class Design:
    name: str
    gamma: float
    side: str
    zero: Any
    m: int
    L_um: float
    window_nm: Optional[tuple[float, float]]


#: Fig. 1 and two further designs; each is swept over 30 nm.
DESIGNS = (
    Design("fig1", 2.0062, "left", "imaginary_pair", 243, 260.0, (1050.0, 1080.0)),
    Design("hurwitz_4.5", 4.5, "left", "imaginary_pair", 243, 260.0, None),
    Design("right_real_zero", 1.3, "right", 1, 243, 260.0, None),
)
#: Fixed coupling z = 400 at k0 = 1 (real a = 20): Bessel's large-argument branch.
FIXED_COUPLING = 400.0
FIXED_GAMMA_RANGE = (1.6, 4.4)
SWEEP_SAMPLES = 2000
GRID_PER_CLASS = 12
ROWS_CHECKED = 12


def _design_lambda_nm(d: Design) -> float:
    return 2000.0 * d.L_um / (d.gamma * d.m)


class SweepWorkload(Workload):
    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.designs = {d.name: invisibility.design_unidirectional(d.gamma, d.side, d.zero)
                        for d in DESIGNS}
        self.sweeps = []       # (name, scenario path, csv path, coupling_of, m, L)
        for d in DESIGNS:
            point = self.designs[d.name]
            lam = _design_lambda_nm(d)
            lo, hi = d.window_nm or (lam - 15.0, lam + 15.0)
            block = {"eps0_re": point.eps0.real, "eps0_im": point.eps0.imag,
                     "m": d.m, "L_um": d.L_um, "gamma": d.gamma}
            self._classify_scenario(f"design_{d.name}", block, {"type": "classify"})
            eps0 = point.eps0
            self._sweep_scenario(d.name, block, lo, hi,
                                 lambda k, e=eps0: k * k * (1.0 - e), d.m, d.L_um)
        L = math.pi
        lo = 2000.0 * math.pi / FIXED_GAMMA_RANGE[1]
        hi = 2000.0 * math.pi / FIXED_GAMMA_RANGE[0]
        self._sweep_scenario("fixed_coupling_a20",
                             {"coupling_re": FIXED_COUPLING, "coupling_im": 0.0,
                              "m": 1, "L_um": L},
                             lo, hi, lambda k: complex(FIXED_COUPLING), 1, L)
        self.grid = self._grid()
        self.rows_checked = {name: sorted(self.rng.choice(SWEEP_SAMPLES, ROWS_CHECKED,
                                                          replace=False).tolist())
                             for name, *_ in self.sweeps}

    def _write(self, name: str, doc: dict) -> Path:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def _classify_scenario(self, name, block, analysis) -> None:
        self._write(name, {"potential": block, "analysis": analysis})

    def _sweep_scenario(self, name, block, lo, hi, coupling_of, m, L) -> None:
        csv = self.dir / f"{name}.csv"
        path = self._write(f"sweep_{name}", {
            "potential": block,
            "analysis": {"type": "sweep", "lambda_min_nm": lo, "lambda_max_nm": hi,
                         "samples": SWEEP_SAMPLES},
            "output": {"path": str(csv), "format": "csv"}})
        self.sweeps.append((name, path, csv, coupling_of, m, L))

    def _grid(self) -> list[tuple[str, str]]:
        """Classification points: (scenario name, expected verdict)."""
        rng = self.rng
        grid = []

        def off_integer(x, margin):
            return abs(x - round(x)) >= margin

        def coupling(a, m):
            return complex(a * m) ** 2   # L = pi, so k0 = m

        def block(z, m):
            return {"coupling_re": z.real, "coupling_im": z.imag, "m": m, "L_um": math.pi}

        def random_a():
            mag = rng.uniform(0.3, 3.0)
            phase = rng.uniform(-math.pi, math.pi)
            return mag * complex(math.cos(phase), math.sin(phase))

        for i in range(GRID_PER_CLASS):
            # kL in pi Z with gamma not an integer: mu = 0.
            m = int(rng.integers(2, 6))
            j = int(rng.integers(1, 5 * m))
            while j % m == 0:
                j = int(rng.integers(1, 5 * m))
            name = f"grid_bidirectional_{i}"
            self._classify_scenario(name, block(coupling(random_a(), m), m),
                                    {"type": "classify", "gamma": j / m})
            grid.append((name, "bidirectional"))
        for i in range(GRID_PER_CLASS):
            # a at a real zero of J_{gamma+1}, located by mpmath.
            m = int(rng.integers(1, 6))
            gamma = rng.uniform(0.2, 4.8)
            while not (off_integer(gamma, 0.1) and off_integer(m * gamma, 0.05)):
                gamma = rng.uniform(0.2, 4.8)
            a = float(mp.besseljzero(gamma + 1.0, int(rng.integers(1, 4))))
            name = f"grid_right_only_{i}"
            self._classify_scenario(name, block(coupling(a, m), m),
                                    {"type": "classify", "gamma": gamma})
            grid.append((name, "right_only"))
        for i in range(GRID_PER_CLASS):
            # Generic controls, kept clear of both Bessel zero sets.
            while True:
                m = int(rng.integers(1, 6))
                gamma = rng.uniform(0.2, 4.8)
                a = random_a()
                w = mp.mpc(a.real, a.imag)
                if (off_integer(gamma, 0.1) and off_integer(m * gamma, 0.05)
                        and abs(mp.besselj(gamma + 1, w)) > 1e-3
                        and abs(mp.besselj(1 - gamma, w)) > 1e-3):
                    break
            name = f"grid_visible_{i}"
            self._classify_scenario(name, block(coupling(a, m), m),
                                    {"type": "classify", "gamma": gamma})
            grid.append((name, "visible"))
        return grid

    def _classify_op(self, scenario: str, kind: str) -> Op:
        out = self.dir / f"{scenario}.out.json"
        return _cli_op(f"classify {scenario}", kind,
                       ["classify", "--scenario", str(self.dir / f"{scenario}.json"),
                        "--json", "--out", str(out)], out)

    def operations(self) -> list[Op]:
        ops = []
        for d in DESIGNS:
            ops.append(Op(f"design_unidirectional({d.gamma}, {d.side!r}, {d.zero!r})", "design",
                          lambda d=d: invisibility.design_unidirectional(d.gamma, d.side, d.zero),
                          lambda p: (p, 0)))
            ops.append(self._classify_op(f"design_{d.name}", "design_classify"))
        for name, path, csv, *_ in self.sweeps:
            ops.append(_cli_op(f"sweep {name}", "cli_sweep",
                               ["sweep", "--scenario", str(path)], csv))
        for name, _ in self.grid:
            ops.append(self._classify_op(name, "grid_classify"))
        return ops

    def check(self, rounds):
        errors = []
        for d in DESIGNS:
            label = f"design {d.name}"
            recs = _ok_records(rounds, f"design_unidirectional({d.gamma}, {d.side!r}, {d.zero!r})")
            errors += _same_every_round(recs, label)
            if recs:
                point = recs[-1].value
                errors += checks.check_design_zero(point.a_frak, d.gamma, d.side, label)
            recs = _ok_records(rounds, f"classify design_{d.name}")
            errors += _same_every_round(recs, f"classify at {label}")
            for r in recs[-1:]:
                rc, data = r.value
                doc = json.loads(data)
                errors += _exit_ok(rc, f"classify at {label}")
                errors += checks.check_verdict(doc, f"{d.side}_only", f"classify at {label}")
                errors += checks.check_design_witnesses(doc["witnesses"], d.side,
                                                        f"classify at {label}")
        for name, _path, _csv, coupling_of, m, L in self.sweeps:
            label = f"sweep {name}"
            recs = _ok_records(rounds, label)
            errors += _same_every_round(recs, label)
            for r in recs[-1:]:
                rc, data = r.value
                errors += _exit_ok(rc, label)
                errors += checks.check_csv_format(data, SWEEP_SAMPLES, label)
                rows = checks.parse_csv(data)
                sample = [rows[i] for i in self.rows_checked[name] if i < len(rows)]
                errors += checks.check_sweep_rows(sample, coupling_of, m, L, label)
                if name == "fig1":
                    errors += checks.check_dip(rows, _design_lambda_nm(DESIGNS[0]), label)
        for name, expected in self.grid:
            label = f"classify {name}"
            recs = _ok_records(rounds, label)
            errors += _same_every_round(recs, label)
            for r in recs:
                errors += _exit_ok(r.value[0], label)
            for r in recs[-1:]:
                errors += checks.check_verdict(json.loads(r.value[1]), expected, label)
        return errors

    def named_metrics(self, rounds):
        return {
            "sweep.points_per_s": (self.work_per_s(rounds), "points/s"),
            "sweep.verdicts_per_s": (len(_done(rounds, "grid_classify"))
                                     / round_seconds(rounds, "grid_classify"), "verdicts/s"),
        }

    def work_per_s(self, rounds):
        return (len(_done(rounds, "cli_sweep")) * SWEEP_SAMPLES
                / round_seconds(rounds, "cli_sweep"))

    def cli_s(self, rounds):
        return _typical(rounds, "grid_classify")


def _exit_ok(rc: int, label: str) -> list[str]:
    return [] if rc == 0 else [f"{label}: exit code {rc}"]


# --------------------------------------------------------------- oracle

ORACLE_CONFIGS = 15
#: Each round runs the ensemble this often, around one `validate all`, so
#: that every configuration is timed several times in a run.  Three passes
#: made a round of ~16 s here, and a run of 30 s then often held only one.
ORACLE_PASSES = 2
#: Configurations that also take the two left-reflection routes (m = 1, 2, 3).
LEFT_ROUTE_SUBSET = (0, 6, 12)
#: `validate all` runs at the package's default seed every time: its cost
#: moves by ~50% between seeds (5.7 s at 0x5EED, 8.7 s at 7), which would
#: swamp any bound.  The ensemble above carries the seeded variation.
VALIDATE_SEED = "0x5EED"


class OracleWorkload(Workload):
    name = "oracle"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        n = ORACLE_CONFIGS
        # Stratified: m cycles through 1..5, gamma and |a| each cover their
        # range in n strata under a fixed scramble; the seed picks the point
        # inside each stratum and the phase.  The round's cost then hardly
        # depends on the seed.
        self.configs = []
        for i in range(n):
            m = i % 5 + 1
            gamma = 0.1 + 4.9 * ((7 * i) % n + rng.uniform()) / n
            if abs(gamma - round(gamma)) < 1e-3:
                gamma += 2e-3
            mag = 0.05 + 1.95 * ((4 * i + 3) % n + rng.uniform()) / n
            phase = rng.uniform(-math.pi, math.pi)
            a = mag * complex(math.cos(phase), math.sin(phase))
            self.configs.append((m, float(gamma), a))

    @staticmethod
    def routes(m: int, gamma: float, a: complex, left_routes: bool) -> dict:
        spec = potential.PotentialSpec(coupling=(a * m) ** 2, m=m, L=math.pi)  # k0 = m
        k = gamma * spec.k0
        ana = analytic.amplitudes_analytic(potential.wave_context(spec, k))
        pot = transfer.SampledPotential.from_spec(spec)
        M = transfer.transfer_matrix(pot, k)
        evo = transfer.amplitudes_from_matrix(M)
        sho = shooting.shooting_amplitudes(pot, k)
        out = {"analytic": (ana.r_left, ana.r_right, ana.t),
               "evolution": (evo.r_left, evo.r_right, evo.t),
               "shooting": (sho.r_left, sho.r_right, sho.t),
               "det": M.determinant()}
        if left_routes:
            out["left_direct"] = evo.r_left
            out["left_conjugate"] = transfer.left_reflection_via_conjugate(pot, k)
            try:
                out["left_integral"] = transfer.left_reflection_integral(pot, k)
            except NearZeroError:
                pass   # documented: the conjugate route stands in for it
        return out

    @staticmethod
    def config_name(i: int, m: int, gamma: float, a: complex) -> str:
        return f"config {i}: m={m} gamma={gamma:.6f} a={a:.6f}"

    def operations(self):
        ensemble = [Op(self.config_name(i, m, gamma, a), "config",
                       lambda c=(m, gamma, a, i in LEFT_ROUTE_SUBSET): self.routes(*c),
                       lambda v: (v, 0))
                    for i, (m, gamma, a) in enumerate(self.configs)]
        validate = Op(f"validate all --seed {VALIDATE_SEED}", "validate", _validate_all,
                      lambda v: (v, len(v[1].encode())))
        return ensemble + [validate] + ensemble * (ORACLE_PASSES - 1)

    def check(self, rounds):
        errors = []
        for i, c in enumerate(self.configs):
            name = self.config_name(i, *c)
            recs = _ok_records(rounds, name)
            errors += _same_every_round(recs, name)
            for r in recs[-1:]:
                errors += checks.check_routes(r.value, name)
        for r in _ok_records(rounds, f"validate all --seed {VALIDATE_SEED}"):
            errors += checks.check_validate_output(*r.value, r.op.name)
        return errors

    def named_metrics(self, rounds):
        return {
            "oracle.configs_per_s": (self.work_per_s(rounds), "configs/s"),
            "oracle.validate_all_s": (self.cli_s(rounds), "s"),
        }

    def work_per_s(self, rounds):
        return len(_done(rounds, "config")) / round_seconds(rounds, "config")

    def cli_s(self, rounds):
        return round_seconds(rounds, "validate")


def _validate_all() -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["validate", "all", "--seed", VALIDATE_SEED])
    return rc, buf.getvalue()


# --------------------------------------------------------------- lasing

#: Scans that succeed today, with their default ODE validation.
SCANS = ((1.0, 1), (0.7, 1), (0.7, 2), (0.3, 5))
#: Scans that fail on every run until singularity._newton is damped: an
#: undamped Newton step leaves the Bessel domain and the AccuracyError it
#: raises is not among the errors scan_singularities catches.
FAILING_SCANS = ((2.5, 1), (2.0, 1))
#: Table-1 roots validated by direct evolution.  m = 250 (~5 s) and m = 500
#: (~9 s) are left out: either would leave a 30-second run too few rounds
#: to time the scans steadily.
VALIDATED_ROOTS = (100,)
TABLE1_REPEATS = 3


class LasingWorkload(Workload):
    name = "lasing"

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.roots = {s.m: s for s in singularity.table1_rows(VALIDATED_ROOTS)}

    def operations(self):
        ops = [Op("solve_half_integer(0, 1)", "half",
                  lambda: singularity.solve_half_integer(0, 1), lambda s: (s, 0))]
        for gamma, m in SCANS + FAILING_SCANS:
            ops.append(Op(f"scan_singularities({gamma:g}, {m})", "scan",
                          lambda g=gamma, m=m: singularity.scan_singularities(g, m),
                          lambda sols: ([s.a_frak for s in sols], 0)))
        for m in VALIDATED_ROOTS:
            ops.append(Op(f"validate_root_ode(table1 m={m})", "table1_validate",
                          lambda s=self.roots[m]: singularity.validate_root_ode(s),
                          lambda v: (v, 0)))
        # The same Table-1 query after each other operation, so that its
        # samples are spread over the whole run, and several times there,
        # so that a run has enough of its few-millisecond samples.
        out = self.dir / "table1.json"
        table1 = _cli_op("singularity --table1", "table1",
                         ["singularity", "--table1", "--out", str(out)], out)
        return [x for op in ops for x in (op,) + (table1,) * TABLE1_REPEATS]

    def check(self, rounds):
        errors = []
        label = "singularity --table1"
        recs = _ok_records(rounds, label)
        errors += _same_every_round(recs, label)
        for r in recs:
            rc, data = r.value
            errors += _exit_ok(rc, label)
            errors += checks.check_table1(json.loads(data)["solutions"], label)
        for r in _ok_records(rounds, "solve_half_integer(0, 1)")[-1:]:
            errors += checks.check_half_integer(r.value.eps0, r.op.name)
        for gamma, m in SCANS + FAILING_SCANS:
            label = f"scan_singularities({gamma:g}, {m})"
            recs = _ok_records(rounds, label)
            errors += _same_every_round(recs, label)
            for r in recs[-1:]:
                errors += checks.check_scan_roots(r.value, gamma, m, label)
        for m in VALIDATED_ROOTS:
            for r in _ok_records(rounds, f"validate_root_ode(table1 m={m})"):
                errors += checks.check_m22(r.value, r.op.name)
        return errors

    def scan_roots(self, rounds) -> int:
        """Roots per round found by the scans that succeeded."""
        return sum(len(r.value) for r in _done(rounds, "scan"))

    def named_metrics(self, rounds):
        return {
            "lasing.table1_s": (self.cli_s(rounds), "s"),
            "lasing.table1_validate_s": (round_seconds(rounds, "table1_validate"), "s"),
            "lasing.scan_roots_per_s": (self.work_per_s(rounds), "roots/s"),
            "lasing.scan_roots": (self.scan_roots(rounds), "roots"),
        }

    def work_per_s(self, rounds):
        return self.scan_roots(rounds) / round_seconds(rounds, "scan")

    def cli_s(self, rounds):
        return _typical(rounds, "table1")


WORKLOADS = {w.name: w for w in (SweepWorkload, OracleWorkload, LasingWorkload)}
