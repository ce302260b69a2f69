import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chaoslab.cli import (SHADOW_MAX_M, _apply_config_file, build_parser, main,
                          write_csv)
from oracles import BENCH_EIGENVALUE_NORMALIZED

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, outdir):
    return main(args + ["--output-dir", str(outdir)])


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestDispatch:
    def test_no_arguments_usage(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_usage(self, tmp_path):
        assert run_cli(["spectrum", "--bogus", "1"], tmp_path) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 0.9\n")
        assert run_cli(["bogus", "--config", str(cfg)], tmp_path) == 2
        # options are spelled in full: an abbreviation is an unknown flag,
        # never a silently ignored --config
        assert run_cli(["nls-sim", "--conf", str(cfg), "--steps", "10"], tmp_path) == 2
        assert run_cli(["nls-sim", "--om", "3.4", "--steps", "10"], tmp_path) == 2

    def test_negative_value_after_space_or_equals(self, tmp_path):
        # a token of '-' and a digit is the value of the flag before it, in
        # either spelling; this pins the parser's negative-number pattern
        for command in ("nls-sim", "dashed-line"):
            args = [command, "--steps", "10", "--sample-every", "5"]
            a, b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
            assert run_cli(args + ["--kick", "-1e-3"], a) == 0
            assert run_cli(args + ["--kick=-1e-3"], b) == 0
            assert read(a / "trajectory.csv") == read(b / "trajectory.csv")

    def test_readme_commands_parse(self, monkeypatch):
        # every documented command line resolves its config and parses,
        # without running; paths in it are relative to the repository root
        root = os.path.join(os.path.dirname(__file__), "..")
        monkeypatch.chdir(root)
        with open("README.md") as fh:
            commands = re.findall(r"^(?:chaoslab|python -m chaoslab\.cli) (.*)$",
                                  fh.read(), re.M)
        assert len(commands) >= 10
        parser = build_parser()
        for command in commands:
            argv = shlex.split(command)
            try:
                args = parser.parse_args(_apply_config_file(parser, argv))
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")
            assert args.command == argv[0]

    def test_precondition_exit_code(self, tmp_path, capsys):
        malformed = tmp_path / "malformed.json"
        malformed.write_text("{not json\n")
        from chaoslab.darboux import shear_power_construction
        names = ("omega", "psi", "p", "f", "F")
        shear16 = dict(zip(names, shear_power_construction(0.3, 16)))

        def field_file(name, **fields):
            # the 16x16 shear-power fields, with the given ones replaced
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                {k: v.tolist() for k, v in {**shear16, **fields}.items()}))
            return str(path)

        nan_p = shear16["p"].copy()
        nan_p[3, 5] = np.nan
        cases = [
            # omega outside the lattice window
            ["nls-sim", "--N", "7", "--omega", "1.0", "--steps", "10"],
            # a sampling interval below one, in every integrating subcommand
            ["euler-sim", "--box", "3", "--steps", "10", "--sample-every", "0"],
            ["nls-sim", "--steps", "10", "--sample-every", "0"],
            ["dashed-line", "--steps", "10", "--sample-every", "0"],
            # a config file that is missing or does not parse
            ["nls-sim", "--config", str(tmp_path / "missing.cfg")],
            ["nls-sim", f"--config={malformed}"],
            # a zero step in the isospectrality evolution
            ["lax-check", "--case", "isospec", "--box", "2", "--dt", "0"],
            # a darboux field file that is not given, missing or not JSON
            ["darboux", "--construction", "custom-file"],
            ["darboux", "--construction", "custom-file",
             "--custom-file", str(tmp_path / "missing.json")],
            ["darboux", "--construction", "custom-file",
             "--custom-file", str(malformed)],
            # a Gamma or |Gamma| that is not finite
            ["spectrum", "--gamma", "1.5e308,1.5e308", "--trunc", "3"],
            ["spectrum", "--gamma", "nan,0", "--trunc", "3"],
            ["spectrum", "--gamma", "inf,0", "--trunc", "3"],
            # a truncation above the dense eigensolve's cap, rejected before
            # the 25.6 GB matrix is allocated
            ["spectrum", "--trunc", "20000"],
            # a saddle parameter that is not finite
            ["nls-saddle", "--omega", "nan"],
            # a shadow defect limit that is not a finite number >= 0; a NaN
            # one would fail every comparison and mean no limit at all
            ["shadow", "--map", "linear-test", "--delta", "nan"],
            ["shadow", "--map", "linear-test", "--delta", "inf"],
            ["shadow", "--map", "linear-test", "--delta", "-1"],
            # a segment of 2m + 1 < 1 points
            ["shadow", "--map", "linear-test", "--m", "-1"],
            ["shadow", "--map", "nls-poincare", "--m", "-1"],
            # an isospectrality horizon that is not a finite number > 0
            ["lax-check", "--case", "isospec", "--box", "2", "--T", "nan"],
            ["lax-check", "--case", "isospec", "--box", "2", "--T", "inf"],
            ["lax-check", "--case", "isospec", "--box", "2", "--T", "-1"],
            # a step count T / dt that overflows to infinity
            ["lax-check", "--case", "isospec", "--T", "1e300", "--dt", "1e-300"],
            # parameters that would give null residuals or no decay at all
            ["darboux", "--c", "nan"],
            ["lax-check", "--case", "rossby", "--beta-param", "nan"],
            ["euler-sim", "--box", "3", "--steps", "10", "--decay", "nan"],
            ["euler-sim", "--box", "3", "--steps", "10", "--decay", "-1"],
            # a spectrum tolerance that is not a finite number > 0
            ["spectrum", "--trunc", "3", "--refine", "--tol", "nan"],
            ["spectrum", "--trunc", "3", "--refine", "--tol", "inf"],
            ["spectrum", "--trunc", "3", "--refine", "--tol", "-1"],
            # a negative highest saddle mode, which would list no eigenvalues
            ["nls-saddle", "--n-max", "-1"],
            # a 3D grid that is not a power of two >= 16
            ["lax-check", "--case", "3dscalar", "--resolution", "0"],
            ["lax-check", "--case", "3dvector", "--resolution", "-4"],
            ["lax-check", "--case", "3dscalar", "--resolution", "1"],
            ["lax-check", "--case", "3dvector", "--resolution", "2"],
            # the same rule in the isospec case, which samples no grid
            ["lax-check", "--case", "isospec", "--box", "2", "--resolution", "-7"],
            # a non-finite float option, even one the run does not use
            ["nls-sim", "--alpha", "nan", "--steps", "10"],
            ["nls-sim", "--epsilon", "inf", "--steps", "10"],
            ["euler-sim", "--box", "3", "--steps", "10", "--amplitude", "inf"],
            ["dashed-line", "--steps", "10", "--epsilon", "nan"],
            ["shadow", "--map", "linear-test", "--epsilon", "nan"],
            # a time step that is not finite, in every integrating subcommand
            ["euler-sim", "--box", "3", "--steps", "10", "--dt", "inf"],
            ["dashed-line", "--steps", "10", "--dt", "inf"],
            ["lax-check", "--case", "isospec", "--box", "2", "--dt", "inf"],
            # a negative time step: every integrator runs forward in time
            ["dashed-line", "--steps", "10", "--dt=-0.001"],
            # a closed-form start that is not finite
            ["dashed-line", "--steps", "10", "--from-analytic=nan,0.3,1"],
            ["dashed-line", "--steps", "10", "--from-analytic=inf,0.3,1"],
            ["dashed-line", "--steps", "10", "--from-analytic=-2,nan,1"],
        ]
        cases += [
            ["darboux", "--construction", "custom-file", "--custom-file", path]
            for path in (
                # a NaN in p, which no residual comparison may pass over
                field_file("nan_p", p=nan_p),
                # grids whose side is not a power of two, that are not 2D,
                # or that differ in shape
                field_file("side12", **dict.fromkeys(names, np.zeros((12, 12)))),
                field_file("flat", **dict.fromkeys(names, np.zeros(16))),
                field_file("mixed", F=shear_power_construction(0.3, 32)[4]))]
        # a negative seed, which numpy's generator refuses, in every subcommand
        cases += [[*command, "--rng-seed=-1"] for command in (
            ["spectrum"], ["euler-sim"], ["dashed-line"], ["nls-sim"], ["nls-saddle"],
            ["lax-check", "--case", "isospec"], ["darboux"],
            ["shadow", "--map", "linear-test"], ["shadow", "--map", "nls-poincare"])]
        # a shadow word with a letter other than 0 and 1
        cases.append(["shadow", "--map", "linear-test", "--word", "0a1"])
        for args in cases:
            assert run_cli(args, tmp_path / "out") == 4, args
        # a compat2d grid too coarse for the doubled box of the time
        # derivative, with the resolution that the box needs in the message
        capsys.readouterr()
        for box, n in ((4, 16), (128, 512)):
            assert run_cli(["lax-check", "--case", "compat2d", "--box", str(box),
                            "--resolution", str(n)], tmp_path / "out") == 4
            assert (f"resolution {n} below 4*box + 2 = {4 * box + 2} for box {box}"
                    in capsys.readouterr().err)
        # inputs rejected before any work, so nothing overflows or warns on
        # the way: a shadow segment above the bound, before any orbit is
        # built; an isospectrality horizon shorter than one step or of more
        # than ISOSPEC_MAX_STEPS steps, before any step; a random initial
        # field whose modes all underflow, before it is scaled; a lattice
        # above nls.MAX_N sites, an omega (the saddle amplitude) at or
        # above the blow-up limit, a grid side above fourier.MAX_RESOLUTION
        # or a box above fourier.MAX_BOX, before any array is allocated
        assert SHADOW_MAX_M == 500
        quiet = [["shadow", "--map", name, "--m", "501"]
                 for name in ("linear-test", "dashed-line", "nls-poincare")] + [
            ["lax-check", "--case", "isospec", "--T", "0.05", "--dt", "1"],
            ["lax-check", "--case", "isospec", "--dt=1e-12"],
            ["lax-check", "--case", "isospec", "--T=1e300"],
            ["euler-sim", "--decay=1e12"],
            ["nls-sim", "--N", "1000000", "--dt", "1e-14", "--steps", "1"],
            ["shadow", "--map", "nls-poincare", "--N", "1000000", "--m", "1",
             "--word", "1"],
            ["nls-sim", "--N", "3", "--omega", "1e200", "--beta", "1e300",
             "--steps", "1"],
            ["shadow", "--map", "nls-poincare", "--N", "3", "--omega", "1e200",
             "--beta", "1e300"],
            *[["lax-check", "--case", case, "--resolution", str(2**40)]
              for case in ("jacobi", "compat2d", "rossby")],
            ["darboux", "--resolution", str(2**40)],
            ["euler-sim", "--box", str(2**40), "--steps", "1"],
            ["lax-check", "--case", "compat2d", "--box", str(2**40)],
            ["lax-check", "--case", "isospec", "--box", str(2**40)],
        ]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for args in quiet:
                assert run_cli(args, tmp_path / "out") == 4, args
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err
        # inputs that ask for unbounded work or memory, each stopped before
        # any work by a named cap, which the message names
        capped = [
            (["dashed-line", f"--trunc={2**40}"], "dashed_line.MAX_TRUNC"),
            (["dashed-line", f"--steps={2**40}"], "util.MAX_SAMPLE_VALUES"),
            (["nls-sim", f"--steps={2**40}"], "util.MAX_SAMPLE_VALUES"),
            (["nls-saddle", f"--n-max={2**40}"], "nls.MAX_MODE"),
            (["spectrum", "--p=100000000,1"], "fourier.MAX_CLASS_COMPONENT"),
            (["spectrum", "--khat=100000000,3"], "fourier.MAX_CLASS_COMPONENT"),
            # compat2d differentiates on the doubled box, so box 129 passes
            # the resolution rule at 1024 but doubles past fourier.MAX_BOX
            (["lax-check", "--case", "compat2d", "--box", "129", "--resolution", "1024"],
             "box 129 doubles to 258 for the time derivative, above fourier.MAX_BOX = 256"),
        ]
        for args, cap in capped:
            assert run_cli(args, tmp_path / "out") == 4, args
            assert cap in capsys.readouterr().err, args

    def test_nls_dt_bound_checked_before_the_saddle(self, tmp_path, monkeypatch):
        # the default dt is above the N = 1000 bound 1e-7; the saddle is
        # never solved
        import chaoslab.nls

        def unreachable(params):
            raise AssertionError("discrete_saddle ran before the dt check")

        monkeypatch.setattr(chaoslab.nls, "discrete_saddle", unreachable)
        assert run_cli(["nls-sim", "--N", "1000", "--omega", "3.3", "--beta", "5",
                        "--steps", "1"], tmp_path) == 4

    def test_overflow_exits_without_warnings(self, tmp_path):
        # code that finds an overflow by a finite check afterwards computes
        # under np.errstate, so no RuntimeWarning comes before the exit
        cases = [
            (["spectrum", "--gamma=1e300,0"], 3),
            (["euler-sim", "--box", "3", "--steps", "10", "--amplitude=1e300"], 3),
            (["nls-sim", "--steps", "10", "--beta=1e300"], 3),
            (["nls-sim", "--steps", "10", "--epsilon=1e300"], 3),
            (["shadow", "--map", "nls-poincare", "--beta=1e300"], 3),
            (["shadow", "--map", "nls-poincare", "--epsilon=1e300"], 3),
            (["darboux", "--c=1e300", "--resolution", "16"], 4),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, (args, code) in enumerate(cases):
                assert run_cli(args, tmp_path / str(i)) == code, args

    def test_from_analytic_values(self, tmp_path):
        # malformed values are usage errors; a sign other than exactly +-1
        # is a precondition error, never truncated to one
        base = ["dashed-line", "--steps", "10", "--sample-every", "5"]
        assert run_cli(base + ["--from-analytic=1,2"], tmp_path / "a") == 2
        assert run_cli(base + ["--from-analytic=a,0.3,1"], tmp_path / "b") == 2
        assert run_cli(base + ["--from-analytic=-2,0.3,1.5"], tmp_path / "c") == 4
        for name in "abc":
            assert not (tmp_path / name / "manifest.json").exists()
        # the manifest keeps the values as given
        assert run_cli(base + ["--from-analytic", "-2.0,0.3,1"], tmp_path / "d") == 0
        config = json.loads(read(tmp_path / "d" / "manifest.json"))["config"]
        assert config["from_analytic"] == ["-2.0", "0.3", "1"]

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # each case with the blow-up step its message reports, counted from
        # the start of the run, or None where no RK4 loop blows up
        cases = [
            # kick the dashed-line model hard enough to blow up
            (["dashed-line", "--epsilon", "1.0", "--kick", "1e4",
              "--dt", "0.05", "--steps", "200000"], 3),
            # a vorticity step far too large for the amplitude
            (["euler-sim", "--box", "3", "--dt", "10", "--amplitude", "100"], 2),
            # kick the lattice far off the saddle
            (["nls-sim", "--kick", "1e6", "--steps", "100", "--sample-every", "10"], 1),
            # an isospectrality evolution step far too large
            (["lax-check", "--case", "isospec", "--box", "2", "--dt", "50",
              "--T", "5000"], 3),
            # cosh(tau) of the closed-form dashed-line orbit overflows, in
            # dashed-line's residual and in shadow's heteroclinic segment
            (["dashed-line", "--from-analytic=-2,0.3,1", "--gamma", "1e200"], None),
            (["shadow", "--map", "dashed-line", "--gamma", "1e200", "--m", "2"], None),
            # a finite beta that overflows the Rossby operator
            (["lax-check", "--case", "rossby", "--resolution", "16",
              "--beta-param", "1e308"], None),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, (args, step) in enumerate(cases):
                out = tmp_path / str(i)
                capsys.readouterr()
                assert run_cli(args, out) == 3, args
                err = capsys.readouterr().err
                if step is not None:
                    assert f"blew up at step {step}\n" in err, args
                assert "RuntimeWarning" not in err, args
                for path in out.glob("*"):
                    assert b"nan" not in read(path), path
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_euler_blowup_step_counts_from_start(self, tmp_path, capsys):
        # one step per sampling chunk: the blow-up in the second step is
        # reported at its step from the start of the run, not of the chunk
        code = run_cli(["euler-sim", "--box", "3", "--dt", "10",
                        "--amplitude", "100", "--sample-every", "1"], tmp_path)
        assert code == 3
        assert "blew up at step 2" in capsys.readouterr().err

    def test_spectrum_benchmark_value(self, tmp_path):
        code = run_cli(["spectrum", "--khat", "-3,-2", "--p", "1,1",
                        "--gamma", "2,0", "--trunc", "50", "--refine"], tmp_path)
        assert code == 0
        doc = json.loads(read(tmp_path / "spectrum.json"))
        lam = complex(*doc["refined_normalized"])
        assert abs(lam - BENCH_EIGENVALUE_NORMALIZED) < 1e-12
        assert (tmp_path / "eigenvalues.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_lax_jacobi_battery(self, tmp_path):
        code = run_cli(["lax-check", "--case", "jacobi", "--resolution", "64"],
                       tmp_path)
        assert code == 0
        doc = json.loads(read(tmp_path / "report.json"))
        assert doc["residuals"]["jacobi_max"] < 1e-10


# the size and float values of the option sweep; 2**40 fails to allocate at
# once wherever a cap is missing, so no run can ask for unbounded work
SWEEP_SIZES = [-1, 0, 1, 2, 3, 5, 8, 12, 16, 17, 2**40]
SWEEP_FLOATS = ["0", "-1", "-0.0", "1e-300", "1e300", "1e-12", "1e12"]
NON_FINITE_TOKEN = re.compile(r"\b(?:nan|inf|infinity|null)\b", re.I)


def sweep_commands() -> list[list[str]]:
    """Every lax-check case with each grid and box size, the float options of
    the 2D cases and of darboux, and the darboux and euler-sim sizes."""
    cases = ("jacobi", "compat2d", "isospec", "rossby", "3dscalar", "3dvector")
    commands = [["lax-check", "--case", case, f"--{option}={size}"]
                for case in cases for option in ("resolution", "box")
                for size in SWEEP_SIZES]
    commands += [["lax-check", "--case", "isospec", f"--{option}={value}"]
                 for option in ("T", "dt") for value in SWEEP_FLOATS]
    commands += [["lax-check", "--case", "rossby", f"--beta-param={value}"]
                 for value in SWEEP_FLOATS]
    commands += [["darboux", f"--c={value}"] for value in SWEEP_FLOATS]
    commands += [["darboux", f"--resolution={size}"] for size in SWEEP_SIZES]
    commands += [["euler-sim", "--steps", "10", "--sample-every", "5", f"--box={size}"]
                 for size in SWEEP_SIZES]
    return commands


class TestOptionSweep:
    def test_grid_box_and_float_options_exit_cleanly(self, tmp_path, capsys):
        # each run exits 0, 3 or 4 with no warning and no traceback, and an
        # exit-0 run writes no nan, inf or null into its data outputs
        faults = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, args in enumerate(sweep_commands()):
                out = tmp_path / str(i)
                seen = len(caught)
                try:
                    code = run_cli(args, out)
                except Exception as exc:  # a traceback outside the CLI
                    code = repr(exc)
                err = capsys.readouterr().err
                if code not in (0, 3, 4):
                    faults.append((args, code))
                if len(caught) > seen or "Traceback" in err or "Warning" in err:
                    faults.append((args, "warning or traceback"))
                if code == 0:
                    faults += [(args, path.name) for path in out.iterdir()
                               if path.name != "manifest.json"
                               and NON_FINITE_TOKEN.search(path.read_text())]
        assert not faults


# Imports every chaoslab module with scipy blocked, then runs one small job
# of each subcommand; prints the exit codes as JSON.
NO_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None
import chaoslab
from chaoslab import cli
for info in pkgutil.iter_modules(chaoslab.__path__):
    importlib.import_module("chaoslab." + info.name)
jobs = {
    "spectrum": ["--trunc", "10", "--refine"],
    "euler-sim": ["--box", "2", "--steps", "10", "--sample-every", "5"],
    "dashed-line": ["--steps", "10", "--sample-every", "5", "--from-analytic=-2,0.3,1"],
    "nls-sim": ["--steps", "10", "--sample-every", "5", "--encode"],
    "nls-saddle": [],
    "lax-check": ["--case", "jacobi", "--resolution", "16"],
    "darboux": ["--resolution", "16"],
    "shadow": ["--map", "linear-test", "--m", "2"],
}
codes = {name: cli.main([name, *args, "--output-dir", name]) for name, args in jobs.items()}
print(json.dumps(codes))
"""


class TestRuntimeDependencies:
    def test_every_module_and_subcommand_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: scipy serves the tests alone
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes = json.loads(proc.stdout.splitlines()[-1])
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(codes) == set(subparsers.choices)
        assert codes == dict.fromkeys(codes, 0), proc.stderr


class TestDeterminism:
    def test_identical_config_byte_identical_outputs(self, tmp_path):
        args = ["euler-sim", "--box", "4", "--steps", "100", "--sample-every",
                "25", "--rng-seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(list(args), a) == 0
        assert run_cli(list(args), b) == 0
        assert read(a / "energy.csv") == read(b / "energy.csv")
        assert read(a / "final_state.json") == read(b / "final_state.json")
        # the manifest carries wall-clock timings and is excluded from the
        # byte-identical guarantee; its config must still match
        ma = json.loads(read(a / "manifest.json"))
        mb = json.loads(read(b / "manifest.json"))
        assert ma["config"] == mb["config"]

    def test_different_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["euler-sim", "--box", "4", "--steps", "50", "--rng-seed", "1"], a)
        run_cli(["euler-sim", "--box", "4", "--steps", "50", "--rng-seed", "2"], b)
        assert read(a / "energy.csv") != read(b / "energy.csv")


class TestConfigFiles:
    def test_flat_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 0.9\nalpha = 1.0\nbeta = 3.0\nepsilon = 0.02\n")
        out = tmp_path / "out"
        code = main(["nls-saddle", "--config", str(cfg),
                     "--output-dir", str(out)])
        assert code == 0
        doc = json.loads(read(out / "manifest.json"))
        assert doc["config"]["omega"] == 0.9
        assert doc["config"]["epsilon"] == 0.02
        # a negative exponent-form value loads as the value of its key
        cfg.write_text("kick = -1e-3\nsteps = 10\nsample_every = 5\n")
        out = tmp_path / "kick"
        code = main(["dashed-line", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 0
        assert json.loads(read(out / "manifest.json"))["config"]["kick"] == -1e-3

    def test_explicit_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 0.9\n")
        out = tmp_path / "out"
        code = main(["nls-saddle", "--config", str(cfg), "--omega", "0.7",
                     "--output-dir", str(out)])
        assert code == 0
        doc = json.loads(read(out / "manifest.json"))
        assert doc["config"]["omega"] == 0.7

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        # help is an option of the parser but not a config key
        for i, text in enumerate(["not_a_flag = 3\n", "help = 1\n"]):
            cfg.write_text(text)
            out = tmp_path / f"o{i}"
            assert main(["nls-saddle", "--config", str(cfg),
                         "--output-dir", str(out)]) == 4, text
            assert not (out / "manifest.json").exists(), text

    def test_manifest_config_records_every_option(self, tmp_path):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        cases = [
            ["spectrum", "--trunc", "10"],
            ["euler-sim", "--box", "2", "--steps", "2", "--sample-every", "1"],
            ["dashed-line", "--steps", "2", "--sample-every", "1"],
            ["nls-sim", "--steps", "2", "--sample-every", "1"],
            ["nls-saddle"],
            ["lax-check", "--case", "jacobi", "--resolution", "16"],
            ["darboux", "--resolution", "16"],
            ["shadow", "--m", "2"],
        ]
        assert sorted(args[0] for args in cases) == sorted(subparsers)
        for args in cases:
            out = tmp_path / args[0]
            assert run_cli(args, out) == 0, args
            options = {a.dest for a in subparsers[args[0]]._actions}
            config = json.loads(read(out / "manifest.json"))["config"]
            assert set(config) == options - {"output_dir", "config", "help"}, args

    def test_manifest_roundtrip_reproduces_outputs(self, tmp_path):
        cases = [
            (["euler-sim", "--box", "4", "--steps", "60",
              "--sample-every", "20", "--rng-seed", "3"],
             ["energy.csv", "final_state.json"]),
            (["dashed-line", "--kick", "0.3", "--steps", "50",
              "--sample-every", "10"], ["trajectory.csv"]),
            # the manifest records -1e-05, which must come back as a value
            (["nls-sim", "--kick=-1e-05", "--steps", "20", "--sample-every", "10"],
             ["trajectory.csv", "saddle.json"]),
            (["dashed-line", "--from-analytic=-2.0,0.3,-1", "--steps", "50",
              "--sample-every", "10"], ["trajectory.csv", "residual.json"]),
            (["shadow", "--map", "dashed-line", "--gamma", "1.5",
              "--word", "1", "--m", "2"], ["pseudo_orbit.csv"]),
            (["lax-check", "--case", "rossby", "--resolution", "32",
              "--beta-param", "0.9"], ["report.json"]),
        ]
        for i, (args, outputs) in enumerate(cases):
            a = tmp_path / f"a{i}"
            assert run_cli(args, a) == 0
            b = tmp_path / f"b{i}"
            code = main([args[0], "--config", str(a / "manifest.json"),
                         "--output-dir", str(b)])
            assert code == 0
            for name in outputs:
                assert read(a / name) == read(b / name), (args, name)

    def test_chaotic_demo_config_parses(self, tmp_path):
        # the recorded chaotic regime must stay loadable; run a short prefix
        cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                                "chaotic_demo.cfg")
        # both spellings of the option name the file
        for i, config in enumerate([["--config", cfg_path],
                                    [f"--config={cfg_path}"]]):
            out = tmp_path / f"out{i}"
            code = main(["nls-sim", *config, "--steps", "2000",
                         "--sample-every", "100", "--output-dir", str(out)])
            assert code == 0
            doc = json.loads(read(out / "manifest.json"))
            assert doc["config"]["omega"] == 3.35
            assert doc["config"]["encode"] is True
            assert (out / "symbols.txt").exists()


class TestOutputs:
    def test_csv_rows_streamed_and_failed_write_leaves_no_file(self, tmp_path):
        # rows reach the temporary file as they come; a row source that
        # raises partway leaves neither the target nor the temporary file
        seen = {}

        def rows(fail_at):
            for i in range(20000):
                if i == fail_at:
                    seen.update((p.name, p.stat().st_size) for p in tmp_path.iterdir())
                    raise RuntimeError("row source failed")
                yield (i, 0.5 * i)

        path = tmp_path / "rows.csv"
        write_csv(str(path), ["i", "x"], rows(None))
        assert read(path).decode() == "i,x\n" + "".join(
            f"{float(i)!r},{0.5 * i!r}\n" for i in range(20000))
        path.unlink()
        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(str(path), ["i", "x"], rows(10000))
        assert [name[:5] for name in seen] == [".tmp-"]
        assert min(seen.values()) > 0
        assert list(tmp_path.iterdir()) == []

    def test_nls_sim_outputs(self, tmp_path):
        code = run_cli(["nls-sim", "--N", "8", "--omega", "3.5", "--beta", "4.0",
                        "--steps", "500", "--sample-every", "100", "--encode"],
                       tmp_path)
        assert code == 0
        header = read(tmp_path / "trajectory.csv").decode().splitlines()[0]
        assert header.split(",")[:2] == ["t", "re_q0"]
        saddle = json.loads(read(tmp_path / "saddle.json"))
        assert len(saddle["eigenvalues"]) == 10  # 2(M+1) with M = 4

    def test_darboux_report(self, tmp_path):
        assert run_cli(["darboux", "--c", "0.2"], tmp_path) == 0
        doc = json.loads(read(tmp_path / "report.json"))
        assert doc["residuals"]["transformed_kernel"] < 1e-8

    def test_darboux_custom_file(self, tmp_path):
        from chaoslab.darboux import shear_power_construction
        omega, psi, p, f, F = shear_power_construction(0.25, 32)
        spec_file = tmp_path / "fields.json"
        spec_file.write_text(json.dumps({
            "omega": omega.tolist(), "psi": psi.tolist(), "p": p.tolist(),
            "f": f.tolist(), "F": F.tolist()}))
        code = run_cli(["darboux", "--construction", "custom-file",
                        "--custom-file", str(spec_file)], tmp_path)
        assert code == 0
        doc = json.loads(read(tmp_path / "report.json"))
        assert doc["residuals"]["transformed_kernel"] < 1e-8

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("CHAOSLAB_OUTDIR", str(target))
        assert main(["nls-saddle", "--omega", "0.8"]) == 0
        assert (target / "saddle.json").exists()

    def test_shadow_report(self, tmp_path):
        assert run_cli(["shadow", "--map", "dashed-line", "--word", "010",
                        "--m", "6"], tmp_path) == 0
        doc = json.loads(read(tmp_path / "report.json"))
        assert "delta" in doc and np.isfinite(doc["delta"])

    def test_shadow_dichotomy_fields(self, tmp_path):
        assert run_cli(["shadow", "--map", "linear-test"], tmp_path) == 0
        dichotomy = json.loads(read(tmp_path / "report.json"))["dichotomy"]
        assert np.allclose(dichotomy["rates"], [math.log(2.0), math.log(0.5)],
                           rtol=0.0, atol=1e-14)
        assert dichotomy["angle_min"] == math.pi / 2
        assert dichotomy["n_neutral"] == 0
        assert dichotomy["hyperbolic"] is True
