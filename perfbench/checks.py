"""Independent checks of the outputs the benchmark workloads produce.

Nothing here imports scatter1d.  Reference values are recomputed with
mpmath from the paper's closed forms, or the check asserts a property the
method must have (agreement between independent routes, det M = 1, a
published table value).  Every function returns a list of error strings;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30

CSV_HEADER = b"lambda_nm,abs_R_left,abs_R_right,abs_T_minus_1"

#: Published Table-1 lasing points: m -> (a, eps0).
TABLE1 = {
    100: (complex(0.174004, 0.435309), complex(1.159217, -0.151491)),
    250: (complex(0.140574, 0.347262), complex(1.100830, -0.097632)),
    500: (complex(0.119168, 0.292458), complex(1.071331, -0.069704)),
}
TABLE1_TOL = 1e-5
#: Published eps0 of the printed half-integer reduction at p = 0, m = 1.
HALF_INTEGER_EPS0 = 4.127542

#: Sweep rows against the mpmath closed form: |csv - ref| <= ATOL + RTOL |ref|.
SWEEP_ATOL = 1e-9
SWEEP_RTOL = 1e-7
#: Design witnesses: the invisible side must sit below, the other above.
INVISIBLE_BOUND = 1e-8
VISIBLE_BOUND = 1e-3
DESIGN_ZERO_BOUND = 1e-9
DIP_TOL_NM = 0.05
#: Three-route agreement.
CLOSED_VS_EVOLUTION = 1e-7
ANY_VS_SHOOTING = 1e-6
DET_DRIFT = 1e-10
LEFT_ROUTES = 1e-6
#: Lasing roots.
M22_BOUND = 1e-8
SINGULAR_RESIDUAL = 1e-9
DISTINCT_TOL = 1e-6


def _c(z: complex) -> mp.mpc:
    return mp.mpc(z.real, z.imag)


def closed_form(coupling: complex, m: int, L: float, k: float) -> tuple[complex, complex, complex]:
    """(R_left, R_right, T) of v = z exp(-2i k0 x) on [0, L], in mpmath.

    Uses the closed Bessel forms: with gamma = k/k0, a = sqrt(z)/k0 and
    mu = (1 - e^{2 pi i m gamma}) / (2i sin pi gamma),
    D = 2 gamma - i pi a^2 mu J_{1-gamma} J_{gamma+1}, T = 2 gamma / D,
    R^r = -i pi a^2 conj(mu) J_{-gamma-1} J_{gamma+1} / D and R^l from
    the time-reversal relation.  Integer gamma uses the exact limits.
    """
    k0 = mp.mpf(m) * mp.pi / mp.mpf(L)
    kk = mp.mpf(k)
    gamma = kk / k0
    a = mp.sqrt(_c(complex(coupling))) / k0
    c = 1j * mp.pi * a * a
    n = int(mp.nint(gamma))
    if abs(gamma - n) < 1e-9:
        jm, jp = mp.besselj(n - 1, a), mp.besselj(n + 1, a)
        den = 2 * n - c * m * jm * jp
        return (complex(-c * m * jm * jm / den), complex(-c * m * jp * jp / den),
                complex(2 * n / den))
    mu = (1 - mp.expj(2 * mp.pi * m * gamma)) / (2j * mp.sin(mp.pi * gamma))
    j_p, j_m = mp.besselj(gamma + 1, a), mp.besselj(1 - gamma, a)
    j_mm, j_pm = mp.besselj(-gamma - 1, a), mp.besselj(gamma - 1, a)
    den = 2 * gamma - c * mu * j_m * j_p
    t = 2 * gamma / den
    r_right = -c * mp.conj(mu) * j_mm * j_p / den
    rc = c * mu * j_m * j_pm / (2 * gamma + c * mp.conj(mu) * j_m * j_p)
    r_left = t * t * rc / (r_right * rc - 1)
    return complex(r_left), complex(r_right), complex(t)


def parse_csv(data: bytes) -> list[tuple[float, float, float, float]]:
    lines = data.split(b"\r\n")
    return [tuple(float(v) for v in line.split(b",")) for line in lines[1:] if line]


def check_csv_format(data: bytes, samples: int, label: str) -> list[str]:
    errors = []
    if not data.startswith(CSV_HEADER + b"\r\n"):
        errors.append(f"{label}: header is not {CSV_HEADER.decode()!r} + CRLF")
    if not data.endswith(b"\r\n") or data.count(b"\n") != data.count(b"\r\n"):
        errors.append(f"{label}: not every line ends in CRLF")
    rows = data.count(b"\r\n") - 1
    if rows != samples:
        errors.append(f"{label}: {rows} rows, {samples} requested")
    return errors


def check_sweep_rows(rows, coupling_of, m: int, L: float, label: str) -> list[str]:
    """Each (lambda, |R_l|, |R_r|, |T-1|) row against the mpmath closed form.

    ``coupling_of(k)`` gives the slab's coupling at wavenumber k (fixed, or
    k^2 (1 - eps0) for a fixed material).
    """
    errors = []
    for lam, rl, rr, t1 in rows:
        k = 2000.0 * math.pi / lam
        ref_l, ref_r, ref_t = closed_form(coupling_of(k), m, L, k)
        for name, got, ref in (("|R_left|", rl, abs(ref_l)), ("|R_right|", rr, abs(ref_r)),
                               ("|T-1|", t1, abs(ref_t - 1))):
            if not abs(got - ref) <= SWEEP_ATOL + SWEEP_RTOL * ref:
                errors.append(f"{label}: {name} at {lam!r} nm is {got:.10g}, "
                              f"closed form gives {ref:.10g}")
    return errors


def check_design_witnesses(witnesses: dict, side: str, label: str) -> list[str]:
    """Invisible side: |R| and |T-1| below 1e-8; other side: |R| above 1e-3."""
    hidden, shown = (("abs_R_left", "abs_R_right") if side == "left"
                     else ("abs_R_right", "abs_R_left"))
    errors = []
    for key in (hidden, "abs_T_minus_1"):
        if not witnesses[key] < INVISIBLE_BOUND:
            errors.append(f"{label}: {key} = {witnesses[key]:.3e} at the design point")
    if not witnesses[shown] > VISIBLE_BOUND:
        errors.append(f"{label}: {shown} = {witnesses[shown]:.3e}, expected > {VISIBLE_BOUND}")
    return errors


def check_design_zero(a: complex, gamma: float, side: str, label: str) -> list[str]:
    """The design coupling is a zero of J_{1-gamma} (left) or J_{gamma+1} (right)."""
    order = 1 - mp.mpf(gamma) if side == "left" else mp.mpf(gamma) + 1
    value = abs(mp.besselj(order, _c(a)))
    if not value < DESIGN_ZERO_BOUND:
        return [f"{label}: |J_{float(order):g}(a)| = {float(value):.3e} at a = {a}"]
    return []


def check_dip(rows, expected_nm: float, label: str) -> list[str]:
    """The |R_l| minimum, among rows with |R_r| > 1e-3, sits at the design wavelength."""
    visible = [r for r in rows if r[2] > VISIBLE_BOUND]
    if not visible:
        return [f"{label}: no row has |R_right| > {VISIBLE_BOUND}"]
    lam = min(visible, key=lambda r: r[1])[0]
    if not abs(lam - expected_nm) <= DIP_TOL_NM:
        return [f"{label}: |R_left| dip at {lam:.4f} nm, design wavelength {expected_nm:.4f} nm"]
    return []


def check_verdict(doc: dict, expected: str, label: str) -> list[str]:
    if doc.get("kind") != expected:
        return [f"{label}: verdict {doc.get('kind')!r}, expected {expected!r}"]
    return []


def check_routes(result: dict, label: str) -> list[str]:
    """Closed form, evolution and shooting agree; det M = 1; left routes agree.

    ``result`` holds (R_left, R_right, T) triples under ``analytic``,
    ``evolution`` and ``shooting``, the evolution matrix's ``det``, and,
    for the left-reflection subset, ``left_direct`` plus whichever of
    ``left_conjugate`` and ``left_integral`` ran.
    """
    def dist(x, y):
        return max(abs(p - q) for p, q in zip(x, y))

    errors = []
    d = dist(result["analytic"], result["evolution"])
    if not d < CLOSED_VS_EVOLUTION:
        errors.append(f"{label}: closed form vs evolution differ by {d:.2e}")
    for route in ("analytic", "evolution"):
        d = dist(result[route], result["shooting"])
        if not d < ANY_VS_SHOOTING:
            errors.append(f"{label}: {route} vs shooting differ by {d:.2e}")
    drift = abs(result["det"] - 1)
    if not drift < DET_DRIFT:
        errors.append(f"{label}: |det M - 1| = {drift:.2e}")
    for route in ("left_conjugate", "left_integral"):
        if route in result:
            d = abs(result[route] - result["left_direct"])
            if not d < LEFT_ROUTES:
                errors.append(f"{label}: {route} vs direct R_left differ by {d:.2e}")
    return errors


def check_validate_output(rc: int, text: str, label: str) -> list[str]:
    """`validate all` exits 0 and every property line of the three suites reads PASS."""
    errors = []
    if rc != 0:
        errors.append(f"{label}: exit code {rc}")
    statuses = [line.split("]")[0].strip(" [") for line in text.splitlines()
                if line.startswith("  [") and not line.startswith("  [info]")]
    if not statuses or any(s != "PASS" for s in statuses):
        errors.append(f"{label}: {statuses.count('FAIL')} FAIL among {len(statuses)} properties")
    for suite in ("bessel", "transfer", "analytic"):
        if f"] {suite}/" not in text:
            errors.append(f"{label}: no {suite} suite in the report")
    return errors


def check_table1(solutions: list[dict], label: str) -> list[str]:
    errors = []
    by_m = {s["m"]: s for s in solutions}
    for m, (a_ref, eps_ref) in TABLE1.items():
        if m not in by_m:
            errors.append(f"{label}: no m = {m} row")
            continue
        s = by_m[m]
        a = complex(s["a_re"], s["a_im"])
        eps0 = complex(s["eps0_re"], s["eps0_im"])
        if not (abs(a - a_ref) <= TABLE1_TOL and abs(eps0 - eps_ref) <= TABLE1_TOL):
            errors.append(f"{label}: m = {m} gives a = {a:.6f}, eps0 = {eps0:.6f}; "
                          f"published {a_ref}, {eps_ref}")
    return errors


def check_half_integer(eps0: complex, label: str) -> list[str]:
    if not abs(eps0 - HALF_INTEGER_EPS0) <= TABLE1_TOL:
        return [f"{label}: eps0 = {eps0:.6f}, published {HALF_INTEGER_EPS0}"]
    return []


def check_m22(m22: float, label: str) -> list[str]:
    if not m22 < M22_BOUND:
        return [f"{label}: |M22| = {m22:.2e} from direct evolution"]
    return []


def singularity_residual(a: complex, gamma: float, m: int) -> float:
    """|a^2 J_{1-gamma}(a) J_{gamma+1}(a) - rhs| / max(1, |rhs|), in mpmath.

    rhs = 4 gamma sin(pi gamma) / (pi (1 - e^{2 pi i m gamma})), whose
    integer-gamma limit is -2 i n / (pi m).
    """
    g = mp.mpf(gamma)
    n = int(mp.nint(g))
    if abs(g - n) < 1e-9:
        g, rhs = mp.mpf(n), -2j * n / (mp.pi * m)
    else:
        rhs = 4 * g * mp.sin(mp.pi * g) / (mp.pi * (1 - mp.expj(2 * mp.pi * m * g)))
    w = _c(a)
    f = w * w * mp.besselj(1 - g, w) * mp.besselj(g + 1, w) - rhs
    return float(abs(f) / max(1, abs(rhs)))


def check_scan_roots(roots: list[complex], gamma: float, m: int, label: str) -> list[str]:
    """Every root satisfies the singularity condition and no two coincide."""
    errors = []
    for a in roots:
        res = singularity_residual(a, gamma, m)
        if not res < SINGULAR_RESIDUAL:
            errors.append(f"{label}: root {a:.8f} has relative residual {res:.2e}")
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            if not abs(a - b) > DISTINCT_TOL:
                errors.append(f"{label}: roots {a:.8f} and {b:.8f} coincide")
    if not roots:
        errors.append(f"{label}: scan returned no root")
    return errors
