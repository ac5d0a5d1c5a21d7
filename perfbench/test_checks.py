"""Each benchmark check accepts a correct output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import checks

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _rows(coupling_of, m, L, lambdas):
    rows = []
    for lam in lambdas:
        k = 2000.0 * math.pi / lam
        rl, rr, t = checks.closed_form(coupling_of(k), m, L, k)
        rows.append((lam, abs(rl), abs(rr), abs(t - 1)))
    return rows


def _csv(rows) -> bytes:
    lines = [checks.CSV_HEADER] + [",".join(format(v, ".17g") for v in r).encode() for r in rows]
    return b"\r\n".join(lines) + b"\r\n"


def test_sweep_rows_reject_t_off_by_1e6():
    coupling_of = lambda k: 400.0    # noqa: E731  (real a = 20 at k0 = 1)
    rows = _rows(coupling_of, 1, math.pi, [1500.0, 2500.0, 3500.0])
    assert checks.check_sweep_rows(rows, coupling_of, 1, math.pi, "s") == []
    lam, rl, rr, t1 = rows[1]
    bad = rows[:1] + [(lam, rl, rr, t1 + 1e-6)] + rows[2:]
    assert checks.check_sweep_rows(bad, coupling_of, 1, math.pi, "s")


def test_csv_format_rejects_dropped_row_lf_and_header():
    rows = [(1.0, 0.1, 0.2, 0.3)] * 4
    data = _csv(rows)
    assert checks.check_csv_format(data, 4, "c") == []
    assert checks.check_csv_format(_csv(rows[:3]), 4, "c")
    assert checks.check_csv_format(data.replace(b"\r\n", b"\n"), 4, "c")
    assert checks.check_csv_format(data.replace(b"abs_R_left", b"R_left"), 4, "c")


def test_design_witnesses_reject_flipped_side():
    w = {"abs_R_left": 1e-16, "abs_R_right": 2e-3, "abs_T_minus_1": 1e-20}
    assert checks.check_design_witnesses(w, "left", "d") == []
    assert checks.check_design_witnesses(w, "right", "d")
    assert checks.check_design_witnesses(dict(w, abs_T_minus_1=1e-6), "left", "d")


def test_design_zero_rejects_moved_zero():
    a = float(mp.besseljzero(2.3, 1))     # zero of J_{gamma+1} at gamma = 1.3
    assert checks.check_design_zero(complex(a), 1.3, "right", "z") == []
    assert checks.check_design_zero(complex(a + 1e-4), 1.3, "right", "z")
    assert checks.check_design_zero(complex(a), 1.3, "left", "z")


def test_dip_rejects_shifted_minimum():
    rows = [(1066.60, 1e-3, 1e-2, 0.0), (1066.65, 1e-12, 1e-2, 0.0), (1066.80, 1e-4, 1e-2, 0.0)]
    assert checks.check_dip(rows, 1066.652, "f") == []
    assert checks.check_dip(rows, 1066.75, "f")
    assert checks.check_dip([(1066.65, 1e-12, 1e-5, 0.0)], 1066.652, "f")


def test_verdict_rejects_flip():
    assert checks.check_verdict({"kind": "right_only"}, "right_only", "v") == []
    assert checks.check_verdict({"kind": "left_only"}, "right_only", "v")


def _routes():
    amps = (0.1 + 0.2j, -0.3j, 0.9 + 0.1j)
    return {"analytic": amps, "evolution": amps, "shooting": amps, "det": 1 + 1e-14,
            "left_direct": amps[0], "left_conjugate": amps[0], "left_integral": amps[0]}


@pytest.mark.parametrize("route,index", [("evolution", 2), ("shooting", 2), ("analytic", 0)])
def test_routes_reject_t_off_by_1e6(route, index):
    assert checks.check_routes(_routes(), "r") == []
    result = _routes()
    amps = list(result[route])
    amps[index] += 2e-6
    result[route] = tuple(amps)
    assert checks.check_routes(result, "r")


def test_routes_reject_det_drift_and_left_route():
    assert checks.check_routes(dict(_routes(), det=1 + 1e-9), "r")
    assert checks.check_routes(dict(_routes(), left_integral=0.1 + 0.2j + 2e-6), "r")


def test_validate_output_rejects_fail_and_exit_code():
    text = ("scatter1d validate: suite=all seed=0x5eed\n"
            "  [PASS] bessel/a: ok\n  [PASS] transfer/b: ok\n  [PASS] analytic/c: ok\n"
            "  [info] bessel/probe: {}\n")
    assert checks.check_validate_output(0, text, "v") == []
    assert checks.check_validate_output(1, text, "v")
    assert checks.check_validate_output(0, text.replace("[PASS] transfer", "[FAIL] transfer"), "v")
    assert checks.check_validate_output(0, text.replace("  [PASS] analytic/c: ok\n", ""), "v")


def _table1():
    return [{"m": m, "a_re": a.real, "a_im": a.imag, "eps0_re": e.real, "eps0_im": e.imag}
            for m, (a, e) in checks.TABLE1.items()]


def test_table1_rejects_root_off_by_1e4():
    rows = _table1()
    assert checks.check_table1(rows, "t") == []
    rows[1]["a_re"] += 1e-4
    assert checks.check_table1(rows, "t")
    assert checks.check_table1(_table1()[:2], "t")
    assert checks.check_half_integer(complex(4.127542), "h") == []
    assert checks.check_half_integer(complex(4.127642), "h")


def test_m22_rejects_large_residual():
    assert checks.check_m22(1e-10, "m") == []
    assert checks.check_m22(1e-7, "m")


def test_scan_roots_reject_moved_and_duplicate_root():
    gamma, m = 0.7, 1
    rhs = 4 * gamma * mp.sin(mp.pi * gamma) / (mp.pi * (1 - mp.expj(2 * mp.pi * m * gamma)))
    root = complex(mp.findroot(
        lambda a: a * a * mp.besselj(1 - gamma, a) * mp.besselj(gamma + 1, a) - rhs,
        mp.mpc(1.4, -0.33)))
    assert checks.check_scan_roots([root], gamma, m, "s") == []
    assert checks.check_scan_roots([root + 1e-4], gamma, m, "s")
    assert checks.check_scan_roots([root, root + 1e-9], gamma, m, "s")
    assert checks.check_scan_roots([], gamma, m, "s")


def test_tracer_counts_evaluator_calls_and_restores_names():
    from tracing import Tracer
    import scatter1d
    from scatter1d import singularity, transfer

    original = singularity.transfer_matrix
    spec = scatter1d.PotentialSpec(coupling=0.25, m=2, L=math.pi)
    tracer = Tracer()
    tracer.install()
    try:
        assert singularity.transfer_matrix is not original
        scatter1d.transfer_matrix(transfer.SampledPotential.from_spec(spec), 2.6)
    finally:
        tracer.uninstall()
    assert singularity.transfer_matrix is original
    layer = tracer.layer_metrics(rounds=1, cli_bytes=0)
    assert layer["transfer.calls"] == 1
    assert layer["potential.evals"] > 0
    assert layer["transfer.evals_per_cell"] == layer["potential.evals"] / 2


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
