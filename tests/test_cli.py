import argparse
import copy
import itertools
import json
import logging
import math
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import scatter1d
from scatter1d import cli
from scatter1d.cli import (EXIT_INCONSISTENT, EXIT_NUMERICAL, EXIT_OK,
                           EXIT_SCHEMA, build_parser, main)
from scatter1d.invisibility import InvisibilityVerdict, Mechanism, VerdictKind
from scatter1d.singularity import solve_integer_gamma

DESIGN_EPS0 = 1.0061426168124073
DESIGN_BLOCK = {"eps0_re": DESIGN_EPS0, "eps0_im": 0.0, "m": 243, "L_um": 260.0,
                "gamma": 2.0062}

# One scenario of each command that reads one.
SCENARIOS = {
    "sweep": {"potential": DESIGN_BLOCK,
              "analysis": {"type": "sweep", "lambda_min_nm": 1050.0,
                           "lambda_max_nm": 1080.0, "samples": 5}},
    "singularity": {"analysis": {"type": "singularity", "mode": "half_integer",
                                 "p": 0, "m": 1}},
    "classify": {"potential": DESIGN_BLOCK, "analysis": {"type": "classify"}},
    "design": {"analysis": {"type": "design", "gamma": 2.0062, "side": "left",
                            "zero": "imaginary_pair"}},
}


# The JSON Schema that scenarios were validated against before the field
# tables of scatter1d.cli replaced it, kept verbatim as their reference:
# cli._check_scenario must accept exactly the documents it accepts.
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


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which RFC 8259 lacks."""
    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")
    return json.loads(text, parse_constant=refuse)


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def sweep_scenario(tmp_path, out, samples=100):
    return write(tmp_path / "scen.json", {
        "potential": {"eps0_re": DESIGN_EPS0, "eps0_im": 0.0,
                      "m": 243, "L_um": 260.0, "gamma": 2.0062},
        "analysis": {"type": "sweep", "lambda_min_nm": 1050.0,
                     "lambda_max_nm": 1080.0, "samples": samples},
        "output": {"path": out, "format": "csv"},
    })


class TestSweep:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--scenario", sweep_scenario(tmp_path, str(out))])
        assert rc == EXIT_OK
        raw = out.read_bytes()
        lines = raw.split(b"\r\n")
        assert lines[0] == b"lambda_nm,abs_R_left,abs_R_right,abs_T_minus_1"
        assert len(lines) == 102  # header + 100 rows + trailing newline

    def test_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        scen = sweep_scenario(tmp_path, "unused")
        assert main(["sweep", "--scenario", scen, "--out", str(out1)]) == EXIT_OK
        assert main(["sweep", "--scenario", scen, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        scen = write(tmp_path / "s.json", {
            "potential": {"coupling_re": 0.0, "coupling_im": 0.0,
                          "m": 1, "L_um": 1.0},
            "analysis": {"type": "sweep", "lambda_min_nm": 500.0,
                         "lambda_max_nm": 600.0, "samples": 5},
            "output": {"path": str(out), "format": "json"},
        })
        assert main(["sweep", "--scenario", scen]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 5
        assert all(row["abs_R_left"] == 0.0 for row in doc["rows"])

    def test_schema_rejection(self, tmp_path):
        scen = write(tmp_path / "bad.json", {
            "potential": {"eps0_re": 1.0, "m": 1, "L_um": 1.0},
            "analysis": {"type": "sweep", "lambda_min_nm": 1,
                         "lambda_max_nm": 2, "samples": 5},
        })
        assert main(["sweep", "--scenario", scen]) == EXIT_SCHEMA

    def test_missing_file(self, tmp_path):
        assert main(["sweep", "--scenario", str(tmp_path / "nope.json")]) == EXIT_SCHEMA

    def test_non_finite_gamma_exits_3(self, tmp_path, capsys):
        # L = 1e308 um puts gamma = kL/(m pi) at inf
        scen = write(tmp_path / "scen.json", {
            "potential": {"eps0_re": DESIGN_EPS0, "eps0_im": 0.0,
                          "m": 243, "L_um": 1e308, "gamma": 2.0062},
            "analysis": {"type": "sweep", "lambda_min_nm": 1050.0,
                         "lambda_max_nm": 1080.0, "samples": 20},
            "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
        })
        assert main(["sweep", "--scenario", scen]) == EXIT_NUMERICAL
        assert ("lambda = 1050.000000 nm: gamma must be finite, got inf"
                in capsys.readouterr().err)

    def test_spectral_singularity_exits_3(self, tmp_path, capsys):
        # k0 = 2 pi/um, so 1000 nm is gamma = 1, where the Table-1 root for
        # m = 100 is a pole of the amplitudes
        a = solve_integer_gamma(1, 100).a_frak
        coupling = (2.0 * math.pi * a) ** 2
        scen = write(tmp_path / "scen.json", {
            "potential": {"coupling_re": coupling.real, "coupling_im": coupling.imag,
                          "m": 100, "L_um": 50.0},
            "analysis": {"type": "sweep", "lambda_min_nm": 999.0,
                         "lambda_max_nm": 1001.0, "samples": 3},
        })
        assert main(["sweep", "--scenario", scen]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: lambda = 1000.000000 nm: ")
        assert "spectral singularity" in err


class TestSingularity:
    def test_table1(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        assert main(["singularity", "--table1", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert [row["m"] for row in doc["solutions"]] == [100, 250, 500]
        row = doc["solutions"][0]
        assert abs(row["a_re"] - 0.174004) < 1e-5
        assert abs(row["a_im"] - 0.435309) < 1e-5

    def test_unwritable_out_is_schema_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t1.json"
        assert main(["singularity", "--table1", "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: cannot write output {out}:")
        assert "Traceback" not in err

    def test_half_integer_scenario(self, tmp_path):
        out = tmp_path / "h.json"
        scen = write(tmp_path / "s.json", {
            "analysis": {"type": "singularity", "mode": "half_integer",
                         "p": 0, "m": 1},
            "output": {"path": str(out), "format": "json"},
        })
        assert main(["singularity", "--scenario", scen]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["solutions"][0]["eps0_re"] - 4.127542) < 1e-5

    def test_general_no_solution_is_structured(self, tmp_path):
        out = tmp_path / "n.json"
        scen = write(tmp_path / "s.json", {
            "analysis": {"type": "singularity", "mode": "general",
                         "gamma": 0.5, "m": 2, "seed_re": 0.0, "seed_im": 1.0},
            "output": {"path": str(out), "format": "json"},
        })
        assert main(["singularity", "--scenario", scen]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["solutions"] == []
        assert "no_solution" in doc

    def test_missing_parameter_is_schema_error(self, tmp_path):
        scen = write(tmp_path / "s.json", {
            "analysis": {"type": "singularity", "mode": "integer", "n": 1},
        })
        assert main(["singularity", "--scenario", scen]) == EXIT_SCHEMA

    def test_needs_scenario_or_table1(self):
        assert main(["singularity"]) == EXIT_SCHEMA

    def test_general_solver_failure_exits_3(self, tmp_path, capsys):
        # from the default seed Newton leaves the supported |w| range
        scen = write(tmp_path / "s.json", {
            "analysis": {"type": "singularity", "mode": "general",
                         "gamma": 2.5, "m": 1},
        })
        assert main(["singularity", "--scenario", scen]) == EXIT_NUMERICAL
        assert "|w|=166 exceeds supported bound" in capsys.readouterr().err

    def test_integer_order_beyond_the_bound_exits_3(self, tmp_path, capsys):
        # n = 1e300 passes the schema; the solver refuses it before seeding
        scen = tmp_path / "s.json"
        scen.write_text('{"analysis": {"type": "singularity", "mode": "integer", '
                        '"n": 1e300, "m": 1}}')
        assert main(["singularity", "--scenario", str(scen)]) == EXIT_NUMERICAL
        assert "n=1e+300 needs the Bessel order" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                         pytest.param("1" + "0" * 400, id="int-1e400")])
    def test_non_finite_number_rejected(self, literal, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text('{"analysis": {"type": "singularity", "mode": "general", '
                        f'"gamma": {literal}, "m": 1}}}}')
        assert main(["singularity", "--scenario", str(scen)]) == EXIT_SCHEMA
        assert literal in capsys.readouterr().err


class TestClassify:
    @staticmethod
    def scenario(tmp_path, coupling, m, L, gamma):
        return write(tmp_path / "c.json", {
            "potential": {"coupling_re": coupling.real, "coupling_im": coupling.imag,
                          "m": m, "L_um": L},
            "analysis": {"type": "classify", "gamma": gamma},
        })

    def classify_rc(self, tmp_path, coupling, m, L, gamma, json_out=True):
        args = ["classify", "--scenario", self.scenario(tmp_path, coupling, m, L, gamma)]
        if json_out:
            args.append("--json")
        return main(args)

    def test_bidirectional(self, tmp_path, capsys):
        # m = 2, gamma = 3/2: kL is a multiple of pi but k is not of k0
        k0 = 2.0
        rc = self.classify_rc(tmp_path, (0.4 * k0) ** 2 * (1 + 0.5j), 2, math.pi, 1.5)
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert doc["kind"] == "bidirectional"
        assert doc["mechanism"] == "mu_zero"

    def test_left_only_design_point(self, tmp_path, capsys):
        m, L = 243, 260.0
        k = 2.0062 * m * math.pi / L
        coupling = k * k * (1 - DESIGN_EPS0)
        rc = self.classify_rc(tmp_path, complex(coupling), m, L, 2.0062)
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert doc["kind"] == "left_only"

    def test_visible_text_output(self, tmp_path, capsys):
        rc = self.classify_rc(tmp_path, complex(0.09), 1, math.pi, 1.0,
                              json_out=False)
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "kind: visible" in out

    def test_eps0_block_pins_gamma(self, tmp_path, capsys):
        scen = write(tmp_path / "c.json", {
            "potential": {"eps0_re": DESIGN_EPS0, "eps0_im": 0.0,
                          "m": 243, "L_um": 260.0, "gamma": 2.0062},
            "analysis": {"type": "classify"},
        })
        rc = main(["classify", "--scenario", scen, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK and doc["kind"] == "left_only"

    def test_writes_nothing_to_stderr(self, tmp_path, capsys):
        rc = self.classify_rc(tmp_path, complex(0.09), 1, math.pi, 1.0)
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert captured.out and captured.err == ""

    def test_bessel_overflow_exits_3(self, tmp_path, capsys):
        # J_{1-gamma}(a) at a = 1e-15 lies beyond the double range
        rc = self.classify_rc(tmp_path, complex(1e-30), 1, math.pi, 25.5)
        assert rc == EXIT_NUMERICAL
        assert "nu=-24.5" in capsys.readouterr().err

    def test_pole_witnesses_are_json_null(self, tmp_path, capsys):
        # the Table-1 root for m = 100 at gamma = 1: every witness is infinite
        a = solve_integer_gamma(1, 100).a_frak
        rc = self.classify_rc(tmp_path, (100.0 * a) ** 2, 100, math.pi, 1.0)
        doc = strict_json(capsys.readouterr().out)
        assert rc == EXIT_OK and doc["kind"] == "visible"
        assert doc["witnesses"] == {"abs_R_left": None, "abs_R_right": None,
                                    "abs_T_minus_1": None}

    def test_inconsistency_witnesses_are_json_null(self, tmp_path, monkeypatch, capsys):
        verdict = InvisibilityVerdict(
            kind=VerdictKind.VISIBLE, mechanism=Mechanism.BESSEL_ZERO_LEFT,
            abs_r_left=math.inf, abs_r_right=0.5, abs_t_minus_1=math.inf,
            inconsistency={"type": "predicate_witness_mismatch",
                           "witnesses": [math.inf, 0.5, math.inf]})
        monkeypatch.setattr(cli, "classify", lambda ctx: verdict)
        rc = self.classify_rc(tmp_path, complex(0.09), 1, math.pi, 1.0)
        doc = strict_json(capsys.readouterr().out)
        assert rc == EXIT_INCONSISTENT
        assert doc["inconsistency"]["witnesses"] == [None, 0.5, None]
        assert doc["witnesses"]["abs_R_right"] == 0.5

    @pytest.mark.parametrize("json_out", [True, False], ids=["json", "text"])
    def test_predicate_witness_mismatch_exits_4(self, tmp_path, capsys, json_out):
        # a sits 5e-9 off the first zero of J_2 (|J_2/J_3| ~ 5e-9, inside
        # the predicate's 1e-8) on a slab with m large enough that the
        # residual amplitudes are decisively visible (|T - 1| ~ 9e-5): the
        # zero-structure predicate and the witnesses then disagree
        rho = 5.135622301840683 + 5e-9
        m = 10000
        L = m * math.pi  # k0 = 1
        rc = self.classify_rc(tmp_path, complex(rho * rho), m, L, 1.0, json_out=json_out)
        out = capsys.readouterr().out
        assert rc == EXIT_INCONSISTENT
        if json_out:
            assert json.loads(out)["inconsistency"]["type"] == "predicate_witness_mismatch"
        else:
            [line] = [s for s in out.splitlines() if s.startswith("INCONSISTENCY: ")]
            assert '"type": "predicate_witness_mismatch"' in line


class TestDesign:
    def test_flag_interface(self, capsys):
        rc = main(["design", "--gamma", "2.0062", "--side", "left",
                   "--zero", "imaginary_pair"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert abs(doc["eps0_re"] - 1.006142617) < 1e-6
        assert abs(doc["a_im"] - 0.157236) < 1e-5

    def test_real_zero_index(self, capsys):
        rc = main(["design", "--gamma", "1.0", "--side", "right", "--zero", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert doc["eps0_re"] < 1

    def test_hurwitz_failure(self, capsys):
        rc = main(["design", "--gamma", "0.5", "--side", "left",
                   "--zero", "imaginary_pair"])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize("zero", ["abc", "0", "-1", "1.5"])
    def test_bad_zero_is_usage_error(self, zero, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--gamma", "2", "--side", "left", "--zero", zero])
        assert exc.value.code == EXIT_SCHEMA
        assert "argument --zero" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf", "abc"])
    def test_bad_gamma_is_usage_error(self, gamma, capsys):
        # the scenario schema refuses the same gamma (exclusiveMinimum 0,
        # finite numbers only) with the same exit code
        with pytest.raises(SystemExit) as exc:
            main(["design", "--gamma", gamma, "--side", "left"])
        assert exc.value.code == EXIT_SCHEMA
        assert "argument --gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["1e-200", "1e-160"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_tiny_gamma_exits_3_without_an_artifact(self, tmp_path, capsys, gamma, side):
        # such a gamma passes the option check, but snaps to 0
        out = tmp_path / "tiny.json"
        rc = main(["design", "--gamma", gamma, "--side", side, "--zero", "1",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        assert f"gamma={float(gamma)!r}" in err and "Traceback" not in err

    def test_zero_beyond_the_argument_bound_exits_3_without_an_artifact(self, tmp_path, capsys):
        # J_2.3 has only 17 real zeros below the |w| bound
        out = tmp_path / "f.json"
        rc = main(["design", "--gamma", "1.3", "--side", "right", "--zero", "30",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERICAL
        assert not out.exists()
        assert "lies beyond the |w| bound" in err and "Traceback" not in err

    def test_flags_without_gamma_exit_2(self, capsys):
        assert main(["design", "--side", "left"]) == EXIT_SCHEMA
        assert "design needs --gamma and --side" in capsys.readouterr().err

    def test_scenario_interface(self, tmp_path, capsys):
        scen = write(tmp_path / "d.json", {
            "analysis": {"type": "design", "gamma": 2.0062,
                         "side": "left", "zero": "imaginary_pair"},
        })
        rc = main(["design", "--scenario", scen])
        doc = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK and doc["side"] == "left"


class TestScenarioErrors:
    """Scenarios that pass the schema but do not fit their command exit 2."""

    @pytest.mark.parametrize("command,kind", itertools.permutations(SCENARIOS, 2))
    def test_another_commands_scenario(self, command, kind, tmp_path, capsys):
        scen = write(tmp_path / "s.json", SCENARIOS[kind])
        assert main([command, "--scenario", scen]) == EXIT_SCHEMA
        assert (f"scenario error: scenario analysis block is not a {command} query"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["sweep", "classify"])
    def test_missing_potential_block(self, command, tmp_path, capsys):
        scen = write(tmp_path / "s.json", {"analysis": SCENARIOS[command]["analysis"]})
        assert main([command, "--scenario", scen]) == EXIT_SCHEMA
        assert (f"scenario error: {command} scenario needs a potential block"
                in capsys.readouterr().err)

    def test_classify_coupling_form_needs_gamma(self, tmp_path, capsys):
        scen = write(tmp_path / "s.json", {
            "potential": {"coupling_re": 0.09, "coupling_im": 0.0, "m": 1,
                          "L_um": math.pi},
            "analysis": {"type": "classify"},
        })
        assert main(["classify", "--scenario", scen]) == EXIT_SCHEMA
        assert "scenario error: classify needs gamma" in capsys.readouterr().err


    @pytest.mark.parametrize("where,value,message", [
        ("potential", None, "potential: missing required key 'gamma'"),
        ("analysis.bogus", 1, "analysis: unexpected key 'bogus'"),
        ("potential.m", True, "potential.m: true is not of type 'integer'"),
        ("potential.m", 0, "potential.m: 0 is less than the minimum of 1"),
        ("potential.L_um", -0.0,
         "potential.L_um: -0.0 is less than or equal to the minimum of 0"),
        ("output.format", "txt", 'output.format: "txt" is not one of ["csv", "json"]'),
    ], ids=["missing", "unknown", "type", "minimum", "exclusive-minimum", "enum"])
    def test_refusal_names_the_key_and_value(self, where, value, message, tmp_path,
                                             capsys):
        doc = copy.deepcopy({**SCENARIOS["classify"], "output": {"format": "json"}})
        if value is None:
            del doc["potential"]["gamma"]
        else:
            block, key = where.split(".")
            doc[block][key] = value
        assert main(["classify", "--scenario", write(tmp_path / "s.json", doc)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"scenario error: scenario failed schema validation: {message}\n")

    def test_scenario_not_utf8(self, tmp_path, capsys):
        # a UTF-16 file (byte-order mark ff fe): JSON text is UTF-8 (RFC 8259)
        scen = tmp_path / "s.json"
        scen.write_bytes(json.dumps(SCENARIOS["design"]).encode("utf-16"))
        assert main(["design", "--scenario", str(scen)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: cannot read scenario {scen}: ")
        assert "Traceback" not in err

    def test_scenario_read_as_utf8(self, tmp_path):
        out = tmp_path / "\u03bb.json"
        scen = tmp_path / "s.json"
        scen.write_bytes(json.dumps({**SCENARIOS["design"], "output": {"path": str(out)}},
                                    ensure_ascii=False).encode("utf-8"))
        assert main(["design", "--scenario", str(scen)]) == EXIT_OK
        assert json.loads(out.read_text())["side"] == "left"


# Scenarios from the README and CI (the Fig. 1 sweep, the weak slab), the
# benchmark (an eps0 classify without gamma, a coupling sweep) and the
# tests above: the bases that TestScenarioCheck mutates.
MUTATION_BASES = [
    {"potential": {"eps0_re": 1.006142617, "eps0_im": 0.0, "m": 243, "L_um": 260.0,
                   "gamma": 2.0062},
     "analysis": {"type": "sweep", "lambda_min_nm": 1050, "lambda_max_nm": 1080,
                  "samples": 2000},
     "output": {"path": "fig1.csv", "format": "csv"}},
    {"potential": {"coupling_re": 0.01, "coupling_im": 0.0, "m": 1,
                   "L_um": 3.141592653589793},
     "analysis": {"type": "classify", "gamma": 4.7}},
    {"potential": DESIGN_BLOCK, "analysis": {"type": "classify"}},
    {"potential": {"coupling_re": 400.0, "coupling_im": 0.0, "m": 1,
                   "L_um": 3.141592653589793},
     "analysis": {"type": "sweep", "lambda_min_nm": 1256.6, "lambda_max_nm": 2094.4,
                  "samples": 2000},
     "output": {"path": "fixed.csv", "format": "csv"}},
    {"analysis": {"type": "design", "gamma": 1.3, "side": "right", "zero": 1},
     "output": {"path": "r.json"}},
    {"analysis": {"type": "singularity", "mode": "general", "gamma": 0.5, "m": 2,
                  "seed_re": 0.0, "seed_im": 1.0},
     "output": {"path": "n.json", "format": "json"}},
    {"analysis": {"type": "singularity", "mode": "integer", "n": 1, "m": 100}},
    *SCENARIOS.values(),
]
MUTATION_VALUES = [
    True, False, None, 0, 1, 2, -1, 2.0, -0.0, 0.0, 0.5, -2.5, 1e300,
    "imaginary_pair", "left", "right", "csv", "json", "txt", "sweep", "classify",
    "design", "singularity", "integer", "general", "half_integer", "", [], [1], {},
    *(block for doc in MUTATION_BASES for block in doc.values()),
]
MUTATION_KEYS = sorted({key for doc in MUTATION_BASES for block in doc.values()
                        for key in block} | {"potential", "analysis", "output", "bogus"})


def mutated(rng: random.Random, edits: int) -> dict:
    """A base scenario after ``edits`` edits of the scenario or one of its blocks.

    An edit replaces a key's value, deletes a key or adds one, each value
    drawn from ``MUTATION_VALUES`` (whole blocks included).  Only the
    scenario and its blocks are edited, so copying them is enough.
    """
    doc = {key: dict(block) for key, block in rng.choice(MUTATION_BASES).items()}
    for _ in range(edits):
        node = rng.choice([doc] + [v for v in doc.values() if isinstance(v, dict)])
        edit = rng.randrange(3)
        if edit < 2 and node:
            key = rng.choice(list(node))
            if edit == 0:
                node[key] = copy.copy(rng.choice(MUTATION_VALUES))
            else:
                del node[key]
        else:
            node[rng.choice(MUTATION_KEYS)] = copy.copy(rng.choice(MUTATION_VALUES))
    return doc


class TestScenarioCheck:
    """``cli._check_scenario`` accepts exactly what ``SCENARIO_SCHEMA`` accepts."""

    @staticmethod
    def accepts(doc) -> bool:
        try:
            cli._check_scenario(doc)
        except cli._SchemaError:
            return False
        return True

    def test_accepts_exactly_what_the_reference_accepts(self):
        # 20,000 seeded mutations; the reference judges each distinct
        # document once (a verdict does not depend on the order of keys)
        reference = Draft202012Validator(SCENARIO_SCHEMA)
        rng = random.Random(20261022)
        verdicts, valid, disagree = {}, 0, []
        for _ in range(20_000):
            doc = mutated(rng, rng.randint(1, 3))
            text = json.dumps(doc, sort_keys=True)
            if text not in verdicts:
                verdicts[text] = reference.is_valid(doc)
            valid += verdicts[text]
            if self.accepts(doc) != verdicts[text]:
                disagree.append(doc)
        assert disagree == []
        assert 1000 < valid < 19_000  # both sides of the format are exercised

    @pytest.mark.parametrize("base,block,key,value,accepted", [
        ("classify", "potential", "m", 2.0, True),
        ("design", "analysis", "zero", 2.0, True),
        ("singularity", "analysis", "p", -0.0, True),
        ("classify", "potential", "m", True, False),
        ("classify", "potential", "L_um", 0, False),
        ("classify", "potential", "L_um", -0.0, False),
        ("sweep", "analysis", "samples", 1, False),
        ("design", "analysis", "zero", True, False),
        ("design", "analysis", "zero", 0, False),
        ("classify", "potential", "coupling_re", 0.0, False),
        ("classify", "analysis", "type", None, False),
        ("classify", "analysis", "type", "txt", False),
        ("classify", "output", "format", "txt", False),
        ("classify", "output", "format", "json", True),
    ], ids=["m=2.0", "zero=2.0", "p=-0.0", "m=true", "L_um=0", "L_um=-0.0", "samples=1",
            "zero=true", "zero=0", "coupling_re-with-eps0_re", "no-analysis-type",
            "unknown-analysis-type", "format=txt", "format=json"])
    def test_edge_cases(self, base, block, key, value, accepted):
        doc = copy.deepcopy(SCENARIOS[base])
        node = doc.setdefault(block, {})
        if value is None:
            del node[key]
        else:
            node[key] = value
        assert Draft202012Validator(SCENARIO_SCHEMA).is_valid(doc) is accepted
        assert self.accepts(doc) is accepted


class TestValidate:
    def test_bessel_suite_passes(self, capsys):
        rc = main(["validate", "bessel"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "seed=0x5eed" in out
        assert "FAIL" not in out

    def test_seed_flag(self, capsys):
        rc = main(["validate", "bessel", "--seed", "7"])
        assert rc == EXIT_OK
        assert "seed=0x7" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", "abc", "0x"])
    def test_bad_seed_is_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "bessel", "--seed", seed])
        assert exc.value.code == EXIT_SCHEMA
        assert "argument --seed" in capsys.readouterr().err


class TestParserReuse:
    """Repeated ``main`` calls in one process share one parser."""

    def test_one_parser_tree_for_many_calls(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        try:
            scen = TestClassify.scenario(tmp_path, complex(0.09), 1, math.pi, 1.0)
            assert main(["classify", "--scenario", scen]) == EXIT_OK
            tree = len(built)
            assert tree == 6  # scatter1d and its five subcommands
            for argv in (["classify", "--scenario", scen, "--json"],
                         ["design", "--gamma", "2.0062", "--side", "left"],
                         ["validate", "bessel"],
                         ["singularity"],
                         ["classify", "--scenario", scen]):
                main(argv)
            assert len(built) == tree
        finally:
            build_parser.cache_clear()
        capsys.readouterr()

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        scen = TestClassify.scenario(tmp_path, complex(0.09), 1, math.pi, 1.0)
        out = tmp_path / "verdict.json"
        assert main(["classify", "--scenario", scen, "--json", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["kind"] == "visible"
        assert capsys.readouterr().out == ""
        assert main(["classify", "--scenario", scen]) == EXIT_OK
        assert capsys.readouterr().out.startswith("kind: visible\n")

    def test_repeated_table1_writes_the_same_bytes(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["singularity", "--table1", "--out", str(first)]) == EXIT_OK
        assert main(["singularity", "--table1", "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()


class TestEntry:
    def test_scenario_schema_is_valid(self):
        Draft202012Validator.check_schema(SCENARIO_SCHEMA)

    def test_package_logger_has_null_handler(self):
        handlers = logging.getLogger("scatter1d").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_python_m_scatter1d(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["scatter1d", "--version"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("scatter1d", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("scatter1d ")

    @pytest.mark.filterwarnings("ignore:'scatter1d.cli' found in sys.modules:RuntimeWarning")
    def test_python_m_scatter1d_cli(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["scatter1d.cli", "--version"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("scatter1d.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("scatter1d ")


# Runs main(argv) in a fresh interpreter and prints the modules it loads
# beyond numpy and scipy.special.
_MODULE_PROBE = """
import json, sys
import numpy, scipy.special
before = set(sys.modules)
from scatter1d.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "added": sorted(set(sys.modules) - before)}))
"""

# The same for one library transfer_matrix call.
_TRANSFER_PROBE = """
import json, sys
import numpy, scipy.special
before = set(sys.modules)
from scatter1d.potential import PotentialSpec
from scatter1d.transfer import SampledPotential, transfer_matrix
spec = PotentialSpec(coupling=0.3 + 0.1j, m=3, L=3.0)
transfer_matrix(SampledPotential.from_spec(spec), k=1.3)
print(json.dumps({"rc": 0, "added": sorted(set(sys.modules) - before)}))
"""


class TestDeferredImports:
    """Commands on the closed forms load no scipy solver, no command loads
    jsonschema, and no evolution loads scipy.integrate."""

    @staticmethod
    def added_modules(argv, probe=_MODULE_PROBE, module="scatter1d.cli"):
        env = dict(os.environ)
        src = str(Path(scatter1d.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])  # after the command's own output
        assert report["rc"] == EXIT_OK
        assert module in report["added"]
        return report["added"]

    @staticmethod
    def loaded(added, packages):
        return [m for m in added if any(m == p or m.startswith(p + ".") for p in packages)]

    def test_table1(self, tmp_path):
        added = self.added_modules(["singularity", "--table1",
                                    "--out", str(tmp_path / "t1.json")])
        assert self.loaded(added, ("scipy.integrate", "scipy.optimize", "jsonschema")) == []

    def test_classify(self, tmp_path):
        scenario = write(tmp_path / "scen.json", {
            "potential": {"eps0_re": DESIGN_EPS0, "eps0_im": 0.0,
                          "m": 243, "L_um": 260.0, "gamma": 2.0062},
            "analysis": {"type": "classify"},
        })
        added = self.added_modules(["classify", "--scenario", scenario, "--json",
                                    "--out", str(tmp_path / "verdict.json")])
        assert self.loaded(added, ("scipy.integrate", "scipy.optimize", "jsonschema")) == []

    def test_sweep(self, tmp_path):
        scenario = sweep_scenario(tmp_path, str(tmp_path / "sweep.csv"))
        added = self.added_modules(["sweep", "--scenario", scenario])
        assert self.loaded(added, ("scipy.integrate", "scipy.optimize", "jsonschema")) == []

    def test_design_scenario(self, tmp_path):
        scenario = write(tmp_path / "d.json", {**SCENARIOS["design"],
                                               "output": {"path": str(tmp_path / "d.out")}})
        added = self.added_modules(["design", "--scenario", scenario])
        assert self.loaded(added, ("scipy.integrate", "jsonschema")) == []

    def test_validate_transfer(self):
        added = self.added_modules(["validate", "transfer"])
        assert self.loaded(added, ("scipy.integrate", "jsonschema")) == []

    def test_library_transfer_matrix(self):
        added = self.added_modules([], _TRANSFER_PROBE, "scatter1d.transfer")
        assert self.loaded(added, ("scipy.integrate",)) == []
