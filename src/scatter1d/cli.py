"""Command-line front end.

Subcommands: ``sweep``, ``singularity``, ``classify``, ``design``,
``validate``.  Scenario files are JSON documents validated against the
schema below before anything runs; outputs are byte-deterministic for a
given scenario and seed (JSON floats use the shortest round-trip form,
CSV uses 17 significant digits and CRLF line endings).

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

_POTENTIAL_COUPLING = {
    "type": "object",
    "properties": {
        "coupling_re": {"type": "number"},
        "coupling_im": {"type": "number"},
        "m": {"type": "integer", "minimum": 1},
        "L_um": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["coupling_re", "coupling_im", "m", "L_um"],
    "additionalProperties": False,
}

_POTENTIAL_EPS0 = {
    "type": "object",
    "properties": {
        "eps0_re": {"type": "number"},
        "eps0_im": {"type": "number"},
        "m": {"type": "integer", "minimum": 1},
        "L_um": {"type": "number", "exclusiveMinimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["eps0_re", "eps0_im", "m", "L_um", "gamma"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "potential": {"oneOf": [_POTENTIAL_COUPLING, _POTENTIAL_EPS0]},
        "analysis": {
            "type": "object",
            "oneOf": [
                {
                    "properties": {
                        "type": {"const": "sweep"},
                        "lambda_min_nm": {"type": "number", "exclusiveMinimum": 0},
                        "lambda_max_nm": {"type": "number", "exclusiveMinimum": 0},
                        "samples": {"type": "integer", "minimum": 2},
                    },
                    "required": ["type", "lambda_min_nm", "lambda_max_nm", "samples"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "type": {"const": "classify"},
                        "gamma": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["type"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "type": {"const": "design"},
                        "gamma": {"type": "number", "exclusiveMinimum": 0},
                        "side": {"enum": ["left", "right"]},
                        "zero": {
                            "oneOf": [{"type": "integer", "minimum": 1},
                                      {"const": "imaginary_pair"}],
                        },
                    },
                    "required": ["type", "gamma", "side", "zero"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "type": {"const": "singularity"},
                        "mode": {"enum": ["integer", "general", "half_integer"]},
                        "n": {"type": "integer", "minimum": 1},
                        "m": {"type": "integer", "minimum": 1},
                        "gamma": {"type": "number", "exclusiveMinimum": 0},
                        "p": {"type": "integer", "minimum": 0},
                        "seed_re": {"type": "number"},
                        "seed_im": {"type": "number"},
                    },
                    "required": ["type", "mode"],
                    "additionalProperties": False,
                },
            ],
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
            "additionalProperties": False,
        },
    },
    "required": ["analysis"],
    "additionalProperties": False,
}


@functools.cache
def _scenario_validator():
    """The schema's validator, built on the first scenario read.

    jsonschema is imported here, not at start-up: ``singularity --table1``
    and ``design`` without ``--scenario`` read no scenario.  Built once,
    because jsonschema.validate would re-check the schema on every call.
    """
    import jsonschema
    return jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


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
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float,
                            parse_int=_finite_int)
    except (OSError, json.JSONDecodeError) as exc:
        raise _SchemaError(f"cannot read scenario {path}: {exc}") from exc
    from jsonschema.exceptions import best_match
    error = best_match(_scenario_validator().iter_errors(doc))
    if error is not None:
        raise _SchemaError(f"scenario failed schema validation: {error.message}")
    return doc


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
