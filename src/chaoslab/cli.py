"""Unified command-line front end.

Every run resolves its full configuration (flags, optional --config file,
defaults), executes one subcommand, and writes its outputs plus a manifest
JSON (resolved config, package versions, wall-clock timings) into the output
directory.  Data outputs (CSV and report JSON) are deterministic for a fixed
config and seed; the manifest carries timings and is excluded from the
byte-identical guarantee.  Files are written atomically (temp + rename).

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 precondition
violation.  CHAOSLAB_OUTDIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import time

import numpy as np

from . import __version__, kernels
from .errors import NumericError, PreconditionError
from .util import blew_up, check_schedule

# the largest shadow --m: the linear-test segment 1e-9 * 2**j, j <= 2m,
# overflows float64 from about m = 526
SHADOW_MAX_M = 500


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(x))


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _parse_values(text: str, kind=int, count=2):
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(
            f"expected {count} comma-separated values: {text!r}")
    try:
        return tuple(kind(part) for part in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_pair(text: str):
    return _parse_values(text, int)


def _float_pair(text: str):
    return _parse_values(text, float)


def _analytic_start(text: str):
    """TAU0,THETA0,SIGN: three numbers, kept as the strings given, which the
    manifest records; the sign is checked against +-1 as a precondition."""
    _parse_values(text, float, 3)
    return tuple(text.split(","))


def _load_config_file(path: str) -> dict:
    """Flat key=value text, or a manifest/report JSON with a 'config' map."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read config file {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"malformed config file {path!r}: {exc}") from exc
        config = obj.get("config", obj)
        if not isinstance(config, dict):
            raise PreconditionError(f"config in {path!r} is not a key-value map")
        return config
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class _Run:
    """Output-directory handle that accumulates the manifest."""

    def __init__(self, command: str, config: dict, outdir: str):
        self.command = command
        self.config = config
        self.outdir = outdir
        self.outputs: list[str] = []
        self.t0 = time.monotonic()
        os.makedirs(outdir, exist_ok=True)

    def path(self, name: str) -> str:
        self.outputs.append(name)
        return os.path.join(self.outdir, name)

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config": self.config,
            "outputs": self.outputs,
            "versions": {
                "chaoslab": __version__,
                "numpy": np.__version__,
                "kernels": kernels.BACKEND,
            },
            "timings": {"wall_seconds": time.monotonic() - self.t0},
        }
        write_json(os.path.join(self.outdir, "manifest.json"), manifest)
        print(f"wrote {', '.join(self.outputs)} and manifest.json to {self.outdir}")


# -- subcommand handlers --------------------------------------------------------


def _cmd_spectrum(args, run) -> None:
    from .fourier import ClassIndex
    from .spectra import (build_class_operator, continued_fraction_eigen,
                          truncated_spectrum)

    if not args.tol > 0:
        raise PreconditionError("tol must be > 0")
    cls = ClassIndex(khat=args.khat, p=args.p)
    gamma = complex(args.gamma[0], args.gamma[1])
    op = build_class_operator(cls, gamma, args.trunc)
    report = truncated_spectrum(op)
    doc = report.to_json_dict()
    normalized = report.normalized()
    doc["normalized_eigenvalues"] = [[z.real, z.imag] for z in normalized]
    if args.refine and gamma != 0:
        candidates = normalized[np.abs(normalized.real) > args.tol]
        if candidates.size:
            pick = candidates[np.argmax(candidates.real + candidates.imag)]
            seed = pick * abs(gamma) / 2.0
            refined = continued_fraction_eigen(op, seed)
            doc["refined"] = [refined.real, refined.imag]
            lam_t = 2.0 * refined / abs(gamma)
            doc["refined_normalized"] = [lam_t.real, lam_t.imag]
    write_json(run.path("spectrum.json"), doc)
    write_csv(run.path("eigenvalues.csv"), ["re", "im"],
              [(z.real, z.imag) for z in np.sort_complex(report.eigenvalues)])


def _cmd_euler_sim(args, run) -> None:
    from .fourier import CoefficientField, integrate_galerkin

    check_schedule(args.dt, args.steps, args.sample_every)
    if args.box < 1 or args.steps < 1:
        raise PreconditionError("box >= 1 and steps >= 1 required")
    rng = np.random.default_rng(args.rng_seed)
    state = CoefficientField.random(args.box, rng, decay=args.decay)
    enstrophy = state.enstrophy()
    if enstrophy == 0.0:
        raise PreconditionError(
            f"the initial field's enstrophy is 0: its modes underflow at decay {args.decay}")
    state = state.scaled(args.amplitude / np.sqrt(enstrophy))
    # a field past the blow-up limit may overflow here; step 1 then fails
    with np.errstate(over="ignore"):
        rows = [(0.0, state.energy(), state.enstrophy())]

    sample_every = args.sample_every
    current = state
    remaining = args.steps
    t = 0.0
    while remaining > 0:
        chunk = min(sample_every, remaining)
        try:
            current = integrate_galerkin(current, args.dt, chunk)
        except NumericError as exc:
            blew_up(args.steps - remaining + exc.step)
        remaining -= chunk
        t += chunk * args.dt
        rows.append((t, current.energy(), current.enstrophy()))
    write_csv(run.path("energy.csv"), ["t", "energy", "enstrophy"], rows)
    write_json(run.path("final_state.json"), current.to_json_dict())


def _cmd_dashed_line(args, run) -> None:
    from .dashed_line import (DashedLineParams, HeteroclinicParams,
                              heteroclinic_states, integrate, orbit_residual)

    params = DashedLineParams(gamma=args.gamma, epsilon=args.epsilon,
                              trunc=args.trunc)
    if args.from_analytic is not None:
        tau0, theta0, sign = map(float, args.from_analytic)
        het = HeteroclinicParams(tau0=tau0, theta0=theta0, kappa_sign=sign)
        x0 = heteroclinic_states(0.0, het, args.gamma, trunc=args.trunc)
        residual = orbit_residual(het, args.gamma, np.linspace(-5.0, 5.0, 100))
        write_json(run.path("residual.json"),
                   {"config": run.config, "max_orbit_residual": residual})
    else:
        # the stationary line omega_p = Gamma, omega = 0, kicked at n = 1
        x0 = np.zeros(params.size + 1)
        x0[0] = args.gamma
        x0[1 + params.index(1)] += args.kick
    traj = integrate(x0, params, args.dt, args.steps, args.sample_every)
    header = ["t", "omega_p"] + [f"omega_{n}" for n in range(-args.trunc, args.trunc + 1)]
    write_csv(run.path("trajectory.csv"), header,
              [(t, *x) for t, x in zip(traj.times, traj.states)])


def _cmd_nls_sim(args, run) -> None:
    from .nls import NLSParams, center_wing_encode, discrete_saddle, simulate

    params = NLSParams(N=args.N, omega=args.omega, alpha=args.alpha,
                       beta=args.beta, epsilon=args.epsilon)
    params.check_dt(args.dt)  # before any work
    saddle = discrete_saddle(params)
    q0 = saddle.q
    if args.kick != 0.0:
        n = np.arange(args.N)
        q0 = q0 * (1.0 + args.kick * np.cos(2 * np.pi * n / args.N))
    traj = simulate(q0, params, args.dt, args.steps, args.sample_every)
    header = (["t"] + [f"re_q{n}" for n in range(args.N)]
              + [f"im_q{n}" for n in range(args.N)])
    rows = [(t, *q.real, *q.imag) for t, q in zip(traj.times, traj.states)]
    write_csv(run.path("trajectory.csv"), header, rows)
    saddle_doc = {"Q": [saddle.Q.real, saddle.Q.imag],
                  "I": abs(saddle.Q) ** 2,
                  "theta": float(np.angle(saddle.Q)),
                  "eigenvalues": [[z.real, z.imag] for z in
                                  np.sort_complex(saddle.eigenvalues)]}
    write_json(run.path("saddle.json"), saddle_doc)
    if args.encode:
        enc = center_wing_encode(traj.states)
        _write_atomic(run.path("symbols.txt"), enc.symbols + "\n")


def _cmd_nls_saddle(args, run) -> None:
    from .nls import eigenvalue_table

    info, _ = eigenvalue_table(args.omega, args.alpha, args.beta, args.epsilon,
                               n_max=args.n_max, n_cut=args.n_cut,
                               variant=args.variant)
    write_json(run.path("saddle.json"), info.to_json_dict())


def _cmd_lax_check(args, run) -> None:
    from .fourier import (CoefficientField, check_resolution,
                          coefficients_to_grid, grid_bracket, grid_coordinates)
    from .laxpairs import (LaxReport, VectorField3D, check_compat2d,
                           compatibility_residual_2d, isospectrality_check,
                           jacobi_defect, lax_3d_scalar, lax_3d_vector, rossby_L)

    check_resolution(args.resolution)
    rng = np.random.default_rng(args.rng_seed)
    n = args.resolution

    def rand_grid():
        box = max(2, n // 8)
        return coefficients_to_grid(CoefficientField.random(box, rng, decay=0.2), n)

    report = LaxReport()
    if args.case == "jacobi":
        worst = 0.0
        for _ in range(5):
            worst = max(worst, jacobi_defect(rand_grid(), rand_grid(), rand_grid()))
        report.residuals["jacobi_max"] = worst
    elif args.case == "compat2d":
        check_compat2d(args.box, n)  # before any field or grid is drawn
        omega = CoefficientField.random(args.box, rng, decay=0.2)
        phis = [rand_grid() for _ in range(3)]
        report = compatibility_residual_2d(omega, phis, n)
    elif args.case == "isospec":
        omega0 = CoefficientField.random(args.box, rng, decay=0.3)
        omega0 = omega0.scaled(0.1 / np.sqrt(omega0.enstrophy()))
        report = isospectrality_check(omega0, args.T, args.dt)
    elif args.case == "rossby":
        omega = rand_grid()
        phi = rand_grid()
        lhs = rossby_L(omega, args.beta_param, phi)
        zero_beta = rossby_L(omega, 0.0, phi)
        bracket = grid_bracket(omega, phi)
        report.residuals["beta0_reduction"] = float(np.max(np.abs(zero_beta - bracket)))
        report.residuals["rossby_norm"] = float(np.max(np.abs(lhs)))
    elif args.case in ("3dscalar", "3dvector"):
        m = min(args.resolution, 32)
        u = VectorField3D.abc_flow(m)
        omega3 = u.curl()
        if args.case == "3dscalar":
            x, y, z = grid_coordinates(m, 3)
            phi = np.cos(x) * np.sin(y) + np.cos(z)
            L, A = lax_3d_scalar(omega3, u, phi)
            report.residuals["beltrami_L_minus_A"] = float(np.max(np.abs(L - A)))
        else:
            L, A = lax_3d_vector(omega3, u, omega3)
            report.residuals["L_of_omega"] = float(
                max(np.max(np.abs(L.components[i])) for i in range(3)))
        report.residuals["div_u"] = u.divergence_defect()
    else:  # pragma: no cover
        raise PreconditionError(f"unknown case {args.case}")
    write_json(run.path("report.json"), report.to_json_dict())


def _cmd_darboux(args, run) -> None:
    from .darboux import shear_power_construction, verify_darboux

    if args.construction == "shear-power":
        omega, psi, p, f, F = shear_power_construction(args.c, args.resolution)
    else:
        if args.custom_file is None:
            raise PreconditionError(
                "--construction custom-file needs --custom-file PATH")
        try:
            with open(args.custom_file) as fh:
                spec = json.load(fh)
            omega, psi, p, f, F = (np.asarray(spec[k], dtype=float)
                                   for k in ("omega", "psi", "p", "f", "F"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise PreconditionError(
                f"unusable field file {args.custom_file!r}: {exc!r}") from exc
        if not all(np.isfinite(a).all() for a in (omega, psi, p, f, F)):
            raise PreconditionError(
                f"field file {args.custom_file!r} holds a non-finite value")
    report = verify_darboux(omega, psi, F, p, f)
    write_json(run.path("report.json"), report.to_json_dict())


def _cmd_shadow(args, run) -> None:
    from .shadowing import (find_shadow, hyperbolicity_estimate,
                            linear_map_system, palmer_assembly)

    if not args.delta >= 0:
        raise PreconditionError("delta must be >= 0")
    if args.m > SHADOW_MAX_M:
        raise PreconditionError(f"m must be <= {SHADOW_MAX_M}")
    rng = np.random.default_rng(args.rng_seed)

    if args.map == "linear-test":
        system = linear_map_system(np.diag([2.0, 0.5]))
        x0 = np.zeros(2)
        # synthetic segment through a point near the saddle (not homoclinic;
        # exercises the bookkeeping on an exactly known map)
        seed_pt = np.array([1e-9, 1.0])
        seg = system.orbit(seed_pt, 2 * args.m + 1)
    elif args.map == "dashed-line":
        from .dashed_line import (DashedLineParams, HeteroclinicParams,
                                  flow_map, heteroclinic_states)
        params = DashedLineParams(gamma=args.gamma, epsilon=0.0, trunc=5)
        system = flow_map(params, dt=0.05, steps=10)
        x0 = np.concatenate(([args.gamma], np.zeros(params.size)))
        het = HeteroclinicParams(tau0=0.0, theta0=0.0, kappa_sign=1)
        ts = 0.5 * np.arange(-args.m, args.m + 1)
        seg = heteroclinic_states(ts, het, args.gamma, trunc=5)
    elif args.map == "nls-poincare":
        from .nls import NLSParams, discrete_saddle, flow_map
        params = NLSParams(N=args.N, omega=args.omega, alpha=args.alpha,
                           beta=args.beta, epsilon=args.epsilon)
        dt = 0.5 * params.max_stable_dt()
        system = flow_map(params, dt=dt, steps=20)
        sad = discrete_saddle(params)
        x0 = np.concatenate([sad.q.real, sad.q.imag])
        kick = 1e-3 * rng.standard_normal(2 * args.N)
        seg = system.orbit(x0 + kick, 2 * args.m + 1)
    else:  # pragma: no cover
        raise PreconditionError(f"unknown map {args.map}")

    pseudo = palmer_assembly(x0, seg, args.word, system)
    report = {"delta": pseudo.delta, "word": args.word, "map": args.map}
    write_csv(run.path("pseudo_orbit.csv"),
              [f"x{i}" for i in range(system.dimension)], pseudo.points)
    if pseudo.delta > args.delta:
        report["note"] = (f"assembled defect {pseudo.delta:.3e} above requested "
                          f"delta {args.delta:.3e}; shadow solve skipped")
    else:
        result = find_shadow(pseudo, system)
        report["epsilon"] = result.epsilon
        report["newton_residuals"] = result.residual_history
        write_csv(run.path("shadow_orbit.csv"),
                  [f"x{i}" for i in range(system.dimension)], result.orbit)
        est = hyperbolicity_estimate(result.orbit, system)
        report["dichotomy"] = {
            "rates": list(map(float, est.rates)),
            "tail_rates": list(map(float, est.tail_rates)),
            "angle_min": est.angle_min,
            "hyperbolic": bool(est.hyperbolic),
            "n_neutral": est.details["n_neutral"],
        }
    write_json(run.path("report.json"), report)


# -- parser ---------------------------------------------------------------------

# A token that starts with '-' and then a digit or '.' is a value, never an
# option: a negative number (-0.5), an exponent form (-1e-3) or a pair (-3,-2).
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def build_parser() -> argparse.ArgumentParser:
    """The one reader of the command line.  Options are spelled in full."""
    parser = argparse.ArgumentParser(
        prog="chaoslab", allow_abbrev=False,
        description="Numerics for truncated vorticity spectra, lattice NLS "
                    "chaos diagnostics, Lax/Darboux checks, and shadowing.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp._negative_number_matcher = _NEGATIVE_VALUE  # private; tests pin it
        sp.set_defaults(func=func)
        sp.add_argument("--output-dir", default=os.environ.get("CHAOSLAB_OUTDIR", "."),
                        help="output directory (default: CHAOSLAB_OUTDIR or cwd)")
        sp.add_argument("--config", default=None,
                        help="key=value file or manifest JSON supplying defaults")
        sp.add_argument("--rng-seed", type=int, default=0)
        return sp

    sp = add("spectrum", "class-operator spectrum and refinement", _cmd_spectrum)
    sp.add_argument("--khat", type=_int_pair, default=(-3, -2))
    sp.add_argument("--p", type=_int_pair, default=(1, 1))
    sp.add_argument("--gamma", type=_float_pair, default=(2.0, 0.0))
    sp.add_argument("--trunc", type=int, default=50)
    sp.add_argument("--refine", action="store_true")
    sp.add_argument("--tol", type=float, default=0.05)

    sp = add("euler-sim", "truncated vorticity evolution", _cmd_euler_sim)
    sp.add_argument("--box", type=int, default=8)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--sample-every", type=int, default=100)
    sp.add_argument("--amplitude", type=float, default=1.0)
    sp.add_argument("--decay", type=float, default=0.15)

    sp = add("dashed-line", "dashed-line model trajectories", _cmd_dashed_line)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--epsilon", type=float, default=0.0)
    sp.add_argument("--trunc", type=int, default=10)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--steps", type=int, default=10000)
    sp.add_argument("--sample-every", type=int, default=100)
    sp.add_argument("--kick", type=float, default=1e-4)
    sp.add_argument("--from-analytic", type=_analytic_start, default=None,
                    metavar="TAU0,THETA0,SIGN")

    sp = add("nls-sim", "perturbed lattice NLS simulation", _cmd_nls_sim)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--omega", type=float, default=3.5)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=4.0)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--steps", type=int, default=100000)
    sp.add_argument("--sample-every", type=int, default=100)
    sp.add_argument("--kick", type=float, default=0.05)
    sp.add_argument("--encode", action="store_true")

    sp = add("nls-saddle", "continuum saddle data and eigenvalues", _cmd_nls_saddle)
    sp.add_argument("--omega", type=float, default=0.8)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=2.0)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--n-cut", type=int, default=10)
    sp.add_argument("--variant", choices=("regular", "singular"), default="regular")

    sp = add("lax-check", "Lax pair consistency batteries", _cmd_lax_check)
    sp.add_argument("--case", required=True,
                    choices=("jacobi", "compat2d", "isospec", "rossby",
                             "3dscalar", "3dvector"))
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--box", type=int, default=4)
    sp.add_argument("--beta-param", type=float, default=0.5)

    sp = add("darboux", "gauge/potential transform verification", _cmd_darboux)
    sp.add_argument("--construction", choices=("shear-power", "custom-file"),
                    default="shear-power")
    sp.add_argument("--c", type=float, default=0.3)
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--custom-file", default=None)

    sp = add("shadow", "pseudo-orbit assembly and shadow solving", _cmd_shadow)
    sp.add_argument("--map", choices=("linear-test", "dashed-line", "nls-poincare"),
                    default="linear-test")
    sp.add_argument("--word", default="010")
    sp.add_argument("--m", type=int, default=8)
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--omega", type=float, default=3.5)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=4.0)
    sp.add_argument("--epsilon", type=float, default=0.01)

    return parser


def _config_actions(parser, command: str) -> list:
    """The options of a subcommand that make up its config, or [] for an
    unknown subcommand (which parse_args then reports)."""
    sub_actions = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    subparser = sub_actions.choices.get(command)
    if subparser is None:
        return []
    return [a for a in subparser._actions
            if a.dest not in ("help", "output_dir", "config")]


def _apply_config_file(parser, argv):
    """Put the values of a --config PATH (or --config=PATH) file before the
    explicit flags, each as one --key=value token and a true store_true
    value as its bare flag; argparse lets the later, explicit flag win."""
    path = None
    for i, token in enumerate(argv):
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
        elif token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
    actions = {a.dest: a for a in _config_actions(parser, argv[0])}
    if path is None or not actions:
        return argv
    overrides = _load_config_file(path)
    unknown = set(overrides) - set(actions)
    if unknown:
        raise PreconditionError(f"unknown config keys: {sorted(unknown)}")
    extra = []
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        if actions[key].nargs == 0:  # store_true
            if str(value).strip().lower() in ("1", "true", "yes", "on"):
                extra.append(flag)
        elif value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            extra.append(f"{flag}={text}")
    return [argv[0]] + extra + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
        config = {}
        for action in _config_actions(parser, args.command):
            value = getattr(args, action.dest)
            values = value if isinstance(value, tuple) else (value,)
            if not all(np.isfinite(v) for v in values if isinstance(v, float)):
                raise PreconditionError(f"{action.option_strings[0]} must be finite")
            if action.dest == "rng_seed" and value < 0:
                raise PreconditionError(f"--rng-seed must be >= 0, got {value}")
            config[action.dest] = list(value) if isinstance(value, tuple) else value
        run = _Run(args.command, config, args.output_dir)
        args.func(args, run)
        run.finish()
        return 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
