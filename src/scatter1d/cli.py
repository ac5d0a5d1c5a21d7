"""Command-line front end.

Subcommands: ``sweep``, ``singularity``, ``classify``, ``design``,
``validate``.  Scenario files are UTF-8 JSON documents, checked against
the field tables below (:func:`_check_scenario`) before anything runs; a
refusal names the dotted path of the key and its value.  Outputs are
byte-deterministic for a given scenario and seed (JSON floats use the
shortest round-trip form, CSV uses 17 significant digits and CRLF line
endings).

Exit codes: 0 success (including structured no-solution results),
1 validation-suite failure, 2 scenario/schema error (including an output
path that cannot be written), 3 numerical failure, 4 classifier
predicate/witness inconsistency.

``main(argv)`` can be called repeatedly in one process; each call parses
into a fresh namespace, so no option carries over from one call to the
next.  The parser from :func:`build_parser` is built, and binds each
subcommand to its handler, on the first call only; every later call gets
the same shared parser, which callers must not mutate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NoReturn, Optional

import numpy as np

from . import __version__
from .errors import (ConvergenceError, NoSolutionError, Scatter1dError,
                     SpectralSingularityError)
from .invisibility import (SWEEP_CSV_HEADER, SweepData, classify,
                           design_unidirectional, wavelength_sweep)
from .potential import PotentialSpec, from_permittivity, wave_context
from .singularity import (solve_general, solve_half_integer,
                          solve_integer_gamma, table1_rows)
from .validate import DEFAULT_SEED, SUITES, run_suite

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_INCONSISTENT = 4

# The scenario format.  Each block maps its keys to (kind, lower bound,
# exclusive?); a kind is "number" (int or float, not bool), "integer" (a
# number with an integral value, so 2.0 counts), "string", "zero" (an
# integer >= 1 or "imaginary_pair") or a tuple of the allowed strings.
_REAL = ("number", None, False)
_TEXT = ("string", None, False)
_POSITIVE = ("number", 0, True)
_COUNT = ("integer", 1, False)

_COUPLING_FIELDS = {"coupling_re": _REAL, "coupling_im": _REAL, "m": _COUNT,
                    "L_um": _POSITIVE}
_EPS0_FIELDS = {"eps0_re": _REAL, "eps0_im": _REAL, "m": _COUNT, "L_um": _POSITIVE,
                "gamma": _POSITIVE}

# analysis type -> (fields, required keys)
_ANALYSES = {
    "sweep": ({"type": _TEXT, "lambda_min_nm": _POSITIVE,
               "lambda_max_nm": _POSITIVE, "samples": ("integer", 2, False)},
              ("type", "lambda_min_nm", "lambda_max_nm", "samples")),
    "classify": ({"type": _TEXT, "gamma": _POSITIVE}, ("type",)),
    "design": ({"type": _TEXT, "gamma": _POSITIVE,
                "side": (("left", "right"), None, False), "zero": ("zero", None, False)},
               ("type", "gamma", "side", "zero")),
    "singularity": ({"type": _TEXT,
                     "mode": (("integer", "general", "half_integer"), None, False),
                     "n": _COUNT, "m": _COUNT, "gamma": _POSITIVE,
                     "p": ("integer", 0, False), "seed_re": _REAL, "seed_im": _REAL},
                    ("type", "mode")),
}

_OUTPUT_FIELDS = {"path": _TEXT, "format": (("csv", "json"), None, False)}

# The top level holds blocks, which _check_scenario checks one by one.
_SCENARIO_FIELDS = dict.fromkeys(("potential", "analysis", "output"))


class _SchemaError(Exception):
    pass


def _non_finite(literal: str) -> NoReturn:
    raise _SchemaError(f"number {literal} in scenario is not a finite double")


def _finite_float(literal: str) -> float:
    """``parse_float`` hook: ``1e400`` and the like would load as inf."""
    value = float(literal)
    if not math.isfinite(value):
        _non_finite(literal)
    return value


def _finite_int(literal: str) -> int:
    """``parse_int`` hook: the numerics convert every number to a double."""
    _finite_float(literal)
    return int(literal)


def _load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float,
                            parse_int=_finite_int)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _SchemaError(f"cannot read scenario {path}: {exc}") from exc
    _check_scenario(doc)
    return doc


def _invalid(where: str, problem: str) -> NoReturn:
    raise _SchemaError(f"scenario failed schema validation: {where}: {problem}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _check_value(where: str, value, kind, bound, exclusive: bool) -> None:
    if kind == "zero":
        if value != "imaginary_pair" and not (_is_integer(value) and value >= 1):
            _invalid(where, f'{json.dumps(value)} is not a positive integer '
                            'or "imaginary_pair"')
        return
    if isinstance(kind, tuple):
        if not (isinstance(value, str) and value in kind):
            _invalid(where, f"{json.dumps(value)} is not one of {json.dumps(list(kind))}")
        return
    if kind == "string":
        ok = isinstance(value, str)
    else:
        ok = _is_number(value) if kind == "number" else _is_integer(value)
    if not ok:
        _invalid(where, f"{json.dumps(value)} is not of type {kind!r}")
    if bound is not None and (value <= bound if exclusive else value < bound):
        relation = "less than or equal to" if exclusive else "less than"
        _invalid(where, f"{json.dumps(value)} is {relation} the minimum of {bound}")


def _check_block(where: str, block, fields: dict, required) -> None:
    """Refuse ``block`` unless it is an object of ``fields`` with every ``required`` key.

    A field whose entry is None holds a block, which the caller checks.
    """
    if not isinstance(block, dict):
        _invalid(where, f"{json.dumps(block)} is not of type 'object'")
    for key in required:
        if key not in block:
            _invalid(where, f"missing required key {key!r}")
    for key, value in block.items():
        if key not in fields:
            _invalid(where, f"unexpected key {key!r}")
        if fields[key] is not None:
            _check_value(f"{where}.{key}", value, *fields[key])


def _check_scenario(doc) -> None:
    """Refuse a scenario outside the format, naming the key and the value.

    The potential form follows from its keys and the analysis form from
    its ``type``: the forms of a block have disjoint required keys and
    admit no key outside their own, so no other form could accept it.
    """
    _check_block("scenario", doc, _SCENARIO_FIELDS, ("analysis",))
    if "potential" in doc:
        block = doc["potential"]
        coupling = isinstance(block, dict) and ("coupling_re" in block
                                                or "coupling_im" in block)
        fields = _COUPLING_FIELDS if coupling else _EPS0_FIELDS
        _check_block("potential", block, fields, fields)
    analysis = doc["analysis"]
    if isinstance(analysis, dict) and "type" in analysis:
        _check_value("analysis.type", analysis["type"], tuple(_ANALYSES), None, False)
        fields, required = _ANALYSES[analysis["type"]]
    else:
        fields, required = {}, ("type",)
    _check_block("analysis", analysis, fields, required)
    if "output" in doc:
        _check_block("output", doc["output"], _OUTPUT_FIELDS, ())


def _potential_from_block(block: dict) -> tuple[PotentialSpec, Optional[float]]:
    """Spec plus the design gamma when the eps0 form pins one."""
    m = block["m"]
    L = block["L_um"]
    if "coupling_re" in block:
        spec = PotentialSpec(coupling=complex(block["coupling_re"], block["coupling_im"]),
                             m=m, L=L)
        return spec, None
    gamma = block["gamma"]
    k = gamma * m * math.pi / L
    spec = from_permittivity(complex(block["eps0_re"], block["eps0_im"]), k, m, L)
    return spec, gamma


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _SchemaError(f"cannot write output {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_artifact(payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sweep_json(data: SweepData) -> str:
    rows = [
        dict(zip(SWEEP_CSV_HEADER, map(float, row)))
        for row in zip(data.lambda_nm, data.abs_r_left,
                       data.abs_r_right, data.abs_t_minus_1)
    ]
    return _json_artifact({"rows": rows})


def _scenario(args: argparse.Namespace, kind: str) -> tuple[dict, dict]:
    """The scenario of ``--scenario`` and its analysis block, a ``kind`` query.

    Sweep and classify scenarios must also have a potential block.
    """
    scenario = _load_scenario(args.scenario)
    analysis = scenario["analysis"]
    if analysis["type"] != kind:
        raise _SchemaError(f"scenario analysis block is not a {kind} query")
    if kind in ("sweep", "classify") and "potential" not in scenario:
        raise _SchemaError(f"{kind} scenario needs a potential block")
    return scenario, analysis


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario, analysis = _scenario(args, "sweep")
    block = scenario["potential"]
    lambdas = np.linspace(analysis["lambda_min_nm"], analysis["lambda_max_nm"],
                          analysis["samples"])
    if "coupling_re" in block:
        coupling = complex(block["coupling_re"], block["coupling_im"])
        data = wavelength_sweep(0.0, block["m"], block["L_um"], lambdas,
                                coupling=coupling)
    else:
        eps0 = complex(block["eps0_re"], block["eps0_im"])
        data = wavelength_sweep(eps0, block["m"], block["L_um"], lambdas)
    out = _output_path(scenario, args)
    fmt = scenario.get("output", {}).get("format", "csv")
    _emit(data.csv_text() if fmt == "csv" else _sweep_json(data), out)
    return EXIT_OK


def _output_path(scenario: dict, args: argparse.Namespace) -> Optional[str]:
    if getattr(args, "out", None):
        return args.out
    return scenario.get("output", {}).get("path")


def cmd_singularity(args: argparse.Namespace) -> int:
    if args.table1:
        rows = [s.as_record() for s in table1_rows()]
        _emit(_json_artifact({"solutions": rows}), args.out)
        return EXIT_OK
    if not args.scenario:
        raise _SchemaError("singularity needs --scenario or --table1")
    scenario, analysis = _scenario(args, "singularity")
    mode = analysis["mode"]
    try:
        if mode == "integer":
            sol = solve_integer_gamma(analysis["n"], analysis["m"])
        elif mode == "half_integer":
            sol = solve_half_integer(analysis["p"], analysis["m"])
        else:
            seed = complex(analysis.get("seed_re", 0.5), analysis.get("seed_im", 0.5))
            sol = solve_general(analysis["gamma"], analysis["m"], seed)
    except KeyError as exc:
        raise _SchemaError(f"singularity mode {mode!r} missing parameter {exc}") from exc
    except NoSolutionError as exc:
        _emit(_json_artifact({"solutions": [], "no_solution": str(exc)}),
              _output_path(scenario, args))
        return EXIT_OK
    _emit(_json_artifact({"solutions": [sol.as_record()]}),
          _output_path(scenario, args))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    scenario, analysis = _scenario(args, "classify")
    spec, pinned_gamma = _potential_from_block(scenario["potential"])
    gamma = analysis.get("gamma", pinned_gamma)
    if gamma is None:
        raise _SchemaError("classify needs gamma (in the analysis or eps0 block)")
    k = gamma * spec.k0
    verdict = classify(wave_context(spec, k))
    # At a spectral singularity the witnesses are infinite; JSON has no
    # token for that, so they are written null.
    witnesses = [v if math.isfinite(v) else None for v in verdict.witnesses]
    payload = {
        "kind": verdict.kind.value,
        "mechanism": verdict.mechanism.value,
        "witnesses": dict(zip(("abs_R_left", "abs_R_right", "abs_T_minus_1"),
                              witnesses)),
        "gamma": gamma,
    }
    inconsistency = verdict.inconsistency
    if inconsistency is not None:
        inconsistency = {**inconsistency, "witnesses": witnesses}
        payload["inconsistency"] = inconsistency
    if args.json:
        _emit(_json_artifact(payload), _output_path(scenario, args))
    else:
        lines = [f"kind: {verdict.kind.value}",
                 f"mechanism: {verdict.mechanism.value}",
                 f"|R_left| = {verdict.abs_r_left:.6e}",
                 f"|R_right| = {verdict.abs_r_right:.6e}",
                 f"|T - 1| = {verdict.abs_t_minus_1:.6e}"]
        if inconsistency is not None:
            lines.append("INCONSISTENCY: " + json.dumps(inconsistency, sort_keys=True))
        _emit("\n".join(lines) + "\n", _output_path(scenario, args))
    return EXIT_INCONSISTENT if inconsistency is not None else EXIT_OK


def cmd_design(args: argparse.Namespace) -> int:
    if args.scenario:
        scenario, analysis = _scenario(args, "design")
        gamma, side, zero = analysis["gamma"], analysis["side"], analysis["zero"]
        out = _output_path(scenario, args)
    else:
        if args.gamma is None or args.side is None:
            raise _SchemaError("design needs --gamma and --side (or --scenario)")
        gamma, side, zero, out = args.gamma, args.side, args.zero, args.out
    point = design_unidirectional(gamma, side, zero)
    _emit(_json_artifact({
        "gamma": point.gamma,
        "side": point.side,
        "a_re": point.a_frak.real,
        "a_im": point.a_frak.imag,
        "eps0_re": point.eps0.real,
        "eps0_im": point.eps0.imag,
    }), out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, seed=args.seed)
    print(f"scatter1d validate: suite={args.suite} seed={args.seed:#x}")
    for rep in reports:
        for res in rep.results:
            status = "PASS" if res.passed else "FAIL"
            print(f"  [{status}] {rep.suite}/{res.name}: {res.detail}")
        for key, record in rep.records.items():
            print(f"  [info] {rep.suite}/{key}: {json.dumps(record, sort_keys=True)}")
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_SUITE_FAILED


def _zero_selector(text: str):
    """``--zero``: a positive integer or ``imaginary_pair``."""
    if text == "imaginary_pair":
        return text
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(
        f"expected a positive integer or 'imaginary_pair', got {text!r}")


def _gamma(text: str) -> float:
    """``--gamma``: a positive finite number, as the scenario schema requires."""
    gamma = float(text)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return gamma


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, in any base ``int(text, 0)`` reads."""
    seed = int(text, 0)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser: built once per process, never to be mutated."""
    parser = argparse.ArgumentParser(
        prog="scatter1d",
        description="Scattering, invisibility and spectral singularities of the "
                    "truncated exponential slab")
    parser.add_argument("--version", action="version", version=f"scatter1d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="wavelength sweep to CSV/JSON")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="override the scenario output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("singularity", help="solve for spectral singularities")
    p.add_argument("--scenario")
    p.add_argument("--table1", action="store_true",
                   help="emit the built-in n=1, m=100/250/500 solutions")
    p.add_argument("--out")
    p.set_defaults(func=cmd_singularity)

    p = sub.add_parser("classify", help="invisibility verdict for (potential, k)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("design", help="coupling/permittivity for one-sided invisibility")
    p.add_argument("--scenario")
    p.add_argument("--gamma", type=_gamma)
    p.add_argument("--side", choices=["left", "right"])
    p.add_argument("--zero", type=_zero_selector, default="imaginary_pair",
                   help="1-based real-zero index or 'imaginary_pair'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("validate", help="run a property suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _SchemaError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ConvergenceError, SpectralSingularityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Scatter1dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
