"""The three workloads: fixed job lists whose inputs follow from the seed.

A job is one ``chaoslab`` command line.  ``cfg`` holds every parameter the
job resolves to, under the names the manifest uses; the command line is
built from it, so the checks know each value without trusting the program.
Jobs fed by a config file list only their overrides on the command line.

Every workload runs each subcommand that has an end-to-end metric and reaches
every traced layer, so every metric exists and reads above zero in every
workload; the jobs off a workload's side are kept tiny (a few steps, a small
box, grid or truncation), so the kernels they touch do next to no work there.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# Subcommand -> chaoslab modules its handler loads (set-up imports these).
MODULES = {
    "spectrum": ["chaoslab.fourier", "chaoslab.spectra"],
    "euler-sim": ["chaoslab.fourier"],
    "dashed-line": ["chaoslab.dashed_line"],
    "nls-sim": ["chaoslab.nls"],
    "nls-saddle": ["chaoslab.nls"],
    "lax-check": ["chaoslab.fourier", "chaoslab.laxpairs"],
    "darboux": ["chaoslab.fourier", "chaoslab.darboux"],
    "shadow": ["chaoslab.shadowing"],
}
SHADOW_MAP_MODULES = {"linear-test": [], "dashed-line": ["chaoslab.dashed_line"],
                      "nls-poincare": ["chaoslab.nls"]}

# Subcommands with an end-to-end metric of their own: summed job wall time.
TIMED = ("spectrum", "euler-sim", "dashed-line", "nls-sim", "lax-check", "shadow")


@dataclass
class Job:
    name: str
    command: str
    cfg: dict
    flags: list[str] | None = None   # command line after the subcommand; from cfg if None
    config_file: dict | None = None  # flat key=value file written before the run
    rerun_of: str | None = None      # job whose manifest.json is passed as --config
    extra: dict = field(default_factory=dict)  # checked values the manifest omits
    expect_exit: int = 0
    fault: str | None = None         # known program fault that makes this job fail

    def modules(self) -> list[str]:
        mods = list(MODULES[self.command])
        if self.command == "shadow":
            mods += SHADOW_MAP_MODULES[self.cfg["map"]]
        return mods

    def argv(self, round_dir: str, outdir: str) -> list[str]:
        if self.rerun_of is not None:
            flags = ["--config", os.path.join(round_dir, self.rerun_of, "manifest.json")]
        elif self.config_file is not None:
            flags = ["--config", os.path.join(round_dir, self.name + ".cfg")]
        else:
            flags = self.flags if self.flags is not None else to_flags(self.cfg)
        return [self.command, *flags, "--output-dir", outdir]


def to_flags(cfg: dict) -> list[str]:
    out = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            out.append(flag)
        elif isinstance(value, (list, tuple)):
            out.append(f"{flag}={','.join(str(v) for v in value)}")
        else:
            out += [flag, repr(value) if isinstance(value, float) else str(value)]
    return out


def read_flat_config(path: str) -> dict:
    """Parse a key = value file into ints, floats and booleans."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, value = (s.strip() for s in line.split("=", 1))
            if value.lower() in ("true", "false"):
                out[key] = value.lower() == "true"
            else:
                try:
                    out[key] = int(value)
                except ValueError:
                    out[key] = float(value)
    return out


# -- job constructors (every parameter explicit) ----------------------------------


def euler(name, rng_seed, box, steps, every, dt=1e-3, amplitude=1.0, decay=0.15, **kw):
    return Job(name, "euler-sim", {"box": box, "dt": dt, "steps": steps,
                                   "sample_every": every, "rng_seed": rng_seed,
                                   "amplitude": amplitude, "decay": decay}, **kw)


def spectrum(name, khat, p, gamma, trunc, refine, expect_refined=False):
    return Job(name, "spectrum", {"khat": list(khat), "p": list(p),
                                  "gamma": [gamma, 0.0], "trunc": trunc,
                                  "refine": refine, "tol": 0.05},
               extra={"expect_refined": expect_refined})


def nls_sim(name, rng_seed, steps, every, kick=0.05, encode=False):
    return Job(name, "nls-sim", {"N": 8, "omega": 3.5, "alpha": 1.0, "beta": 4.0,
                                 "epsilon": 0.01, "dt": 1e-3, "steps": steps,
                                 "sample_every": every, "encode": encode,
                                 "kick": kick, "rng_seed": rng_seed})


def dashed(name, steps, every, from_analytic=None, kick=1e-4):
    cfg = {"gamma": 1.0, "epsilon": 0.0, "trunc": 10, "dt": 1e-3, "steps": steps,
           "sample_every": every, "from_analytic": from_analytic}
    flags = to_flags(cfg) + ([] if from_analytic else ["--kick", repr(kick)])
    return Job(name, "dashed-line", cfg, flags=flags, extra={"kick": kick})


def shadow(name, rng_seed, map_, word, m, delta=1.0):
    cfg = {"map": map_, "word": word, "m": m, "delta": delta, "rng_seed": rng_seed}
    params = {"gamma": 1.0, "N": 8, "omega": 3.5, "alpha": 1.0, "beta": 4.0,
              "epsilon": 0.01}
    return Job(name, "shadow", cfg, flags=to_flags({**cfg, **params}), extra=params)


def lax(name, rng_seed, case, resolution=64, box=4, T=1.0, dt=0.01):
    return Job(name, "lax-check", {"case": case, "resolution": resolution, "T": T,
                                   "dt": dt, "rng_seed": rng_seed, "box": box})


def saddle(name, omega, beta, epsilon, n_max=6, variant="regular"):
    return Job(name, "nls-saddle", {"omega": omega, "alpha": 1.0, "beta": beta,
                                    "epsilon": epsilon, "n_max": n_max, "n_cut": 10,
                                    "variant": variant})


def darboux(name, c, resolution=64):
    return Job(name, "darboux", {"construction": "shear-power", "c": c,
                                 "resolution": resolution, "custom_file": None})


def tiny_shadows(rs, linear_word):
    """One small shadow solve per map: the flow maps on a one-block word."""
    return [shadow("shadow-linear", rs(), "linear-test", linear_word, 8),
            shadow("shadow-dashed-tiny", rs(), "dashed-line", "1", 2),
            shadow("shadow-nls-tiny", rs(), "nls-poincare", "1", 1)]


def tiny_lax_checks(rs):
    """The three grid and box batteries at resolution 16 or box 2."""
    return [lax("lax-jacobi16", rs(), "jacobi", resolution=16),
            lax("lax-compat16", rs(), "compat2d", resolution=16, box=2),
            lax("lax-isospec2", rs(), "isospec", box=2, T=0.1)]


# -- workloads -------------------------------------------------------------------------

# (khat, p): the benchmark class, a (2,1) class with a point eigenvalue, and two
# classes without one.
SPECTRUM_CLASSES = [((-3, -2), (1, 1)), ((-3, -1), (2, 1)), ((-4, -1), (1, 1)),
                    ((1, -2), (2, 1))]


def vorticity(seed: int, root: str) -> list[Job]:
    """Euler/Lax side: the dense box-16 convolution and a trunc-400 eigensolve."""
    r = random.Random(seed)
    rs = lambda: r.randrange(1_000_000)  # noqa: E731
    return [
        *(euler(f"euler-box16-{i}", rs(), box=16, steps=12, every=4) for i in range(3)),
        lax("lax-compat2d", rs(), "compat2d", box=8),
        lax("lax-jacobi", rs(), "jacobi"),
        lax("lax-isospec", rs(), "isospec", box=4),
        darboux("darboux", r.choice([0.2, 0.25, 0.3, 0.35, 0.4])),
        spectrum("spectrum-t400", (-3, -1), (2, 1), r.choice([1.5, 2.0, 2.5]), 400,
                 True, expect_refined=True),
        spectrum("spectrum-bench", (-3, -2), (1, 1), 2.0, 50, True, expect_refined=True),
        spectrum("spectrum-cont", (-4, -1), (1, 1), 2.0, 50, True),
        *(nls_sim(f"nls-token{i}", rs(), steps=20 * (i + 1), every=1, encode=i == 0)
          for i in range(3)),
        *(dashed(f"dashed-token{i}", steps=20 * (i + 1), every=1) for i in range(3)),
        *tiny_shadows(rs, "010"),
    ]


def lattice(seed: int, root: str) -> list[Job]:
    """Chaos side: lattice RK4, the Python flow maps and the shadow Newton."""
    r = random.Random(seed)
    rs = lambda: r.randrange(1_000_000)  # noqa: E731
    demo = os.path.join(root, "configs", "chaotic_demo.cfg")

    def chaotic(i):
        kick, rng_seed = r.choice([0.04, 0.045, 0.05, 0.055, 0.06]), rs()
        return Job(f"nls-chaotic{i}", "nls-sim",
                   {**read_flat_config(demo), "steps": 1500, "kick": kick,
                    "rng_seed": rng_seed},
                   flags=["--config", demo, "--steps", "1500", "--kick", repr(kick),
                          "--rng-seed", str(rng_seed)])

    return [
        *(chaotic(i) for i in range(3)),
        *(dashed(f"dashed-analytic{i}", steps=3000, every=100,
                 from_analytic=[r.choice(["-1.5", "-2.0", "-2.5"]), "0.3", "1"])
          for i in range(3)),
        shadow("shadow-nls0", rs(), "nls-poincare", "010", 3),
        shadow("shadow-nls1", rs(), "nls-poincare", "010", 3),
        shadow("shadow-dashed", rs(), "dashed-line", "010", 5, delta=2.0),
        saddle("nls-saddle", 0.8, 2.0, 0.01),
        spectrum("spectrum-bench", (-3, -2), (1, 1), 2.0, 50, True, expect_refined=True),
        *(spectrum(f"spectrum-token{i}", khat, p, 2.0, 20, False)
          for i, (khat, p) in enumerate(SPECTRUM_CLASSES[1:3])),
        *(euler(f"euler-token{i}", rs(), box=2, steps=4, every=4) for i in range(3)),
        *tiny_lax_checks(rs),
        darboux("darboux-token", 0.3, resolution=16),
    ]


def sweep(seed: int, root: str) -> list[Job]:
    """Many short jobs: set-up, config resolution and output encoding."""
    r = random.Random(seed)
    rs = lambda: r.randrange(1_000_000)  # noqa: E731
    flat = euler("euler-flat", rs(), box=3, steps=20, every=20, amplitude=0.5, decay=0.1)
    flat.config_file = dict(flat.cfg)
    demo = os.path.join(root, "configs", "chaotic_demo.cfg")
    return [
        euler("euler-box3", rs(), box=3, steps=200, every=10),
        euler("euler-box4", rs(), box=4, steps=200, every=10, dt=2e-3),
        flat,
        Job("euler-rerun", "euler-sim", {}, rerun_of="euler-box3"),
        nls_sim("nls-every", rs(), steps=400, every=1,
                kick=r.choice([0.03, 0.04, 0.05, 0.06]), encode=True),
        Job("nls-rerun", "nls-sim", {}, rerun_of="nls-every"),
        *(dashed(f"dashed-every{i}", steps=steps, every=1)
          for i, steps in enumerate((3000, 2000, 1000))),
        *(spectrum(f"spectrum-{i}", khat, p, 2.0, 50, True, expect_refined=i < 2)
          for i, (khat, p) in enumerate(SPECTRUM_CLASSES)),
        saddle("saddle-a", 0.8, 2.0, 0.01),
        saddle("saddle-b", 0.7, 2.0, 0.02, n_max=8),
        saddle("saddle-c", 0.9, 2.5, 0.01, variant="singular"),
        *tiny_shadows(rs, "0110"),
        *tiny_lax_checks(rs),
        darboux("darboux", 0.3, resolution=16),
        # Blow-up point: should exit 3; integrate_galerkin has no blow-up check,
        # so it writes nan energies and exits 0.
        euler("euler-blowup", 0, box=3, steps=1000, every=100, dt=10.0, amplitude=100.0,
              expect_exit=3, fault="euler-sim exits 0 with nan energies at a blow-up point"),
        # '--config=FILE' is ignored: only the separate '--config' token is read.
        Job("nls-config-eq", "nls-sim", {**read_flat_config(demo), "steps": 2000},
            flags=[f"--config={demo}", "--steps", "2000"],
            fault="nls-sim ignores --config=FILE and runs with the default omega"),
    ]


WORKLOADS = {"vorticity": vorticity, "lattice": lattice, "sweep": sweep}
