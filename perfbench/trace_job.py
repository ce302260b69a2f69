"""Run one chaoslab CLI job with spans recorded around its layers.

    python3 perfbench/trace_job.py SPANS.json JOB_ID -- <chaoslab arguments>

Wrappers are installed on the module attributes listed in TARGETS as each
module finishes loading, so modules that import those names later bind the
wrapped functions and no module is imported that the job would not load.
Each call records a span (name, start, end, parent) in memory; work counts
are added at the same boundaries.  The spans are written to SPANS.json when
the job ends, and the job's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import os
import sys
import time

TARGETS = {
    "chaoslab.kernels": ["galerkin_rhs", "pdnls_rhs", "pdnls_rk4", "dashed_rk4"],
    "chaoslab.fourier": ["integrate_galerkin", "grid_bracket"],
    "chaoslab.spectra": ["build_class_operator", "truncated_spectrum",
                         "continued_fraction_eigen"],
    "chaoslab.nls": ["simulate", "discrete_saddle", "center_wing_encode",
                     "pdnls_jacobian_full"],
    "chaoslab.dashed_line": ["integrate", "model_rhs", "model_jacobian"],
    "chaoslab.laxpairs": ["compatibility_residual_2d", "isospectrality_check",
                          "jacobi_defect"],
    "chaoslab.darboux": ["verify_darboux"],
    "chaoslab.shadowing": ["palmer_assembly", "find_shadow", "hyperbolicity_estimate"],
    "chaoslab.cli": ["write_csv", "write_json"],
}


def box_pairs(box: int) -> int:
    """Ordered pairs p + q = k with p, q, k nonzero and inside the box."""
    side = 2 * box + 1
    return sum((side - abs(k1)) * (side - abs(k2)) - 2
               for k1 in range(-box, box + 1) for k2 in range(-box, box + 1)
               if (k1, k2) != (0, 0))


# Work done by one call, from its arguments (and for files, the bytes written).
WORK = {
    "kernels.galerkin_rhs": lambda args: box_pairs(args[1]),
    "kernels.pdnls_rk4": lambda args: args[7],
    "kernels.dashed_rk4": lambda args: args[6],
    "cli.write_csv": lambda args: os.path.getsize(args[0]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start, end, parent index]
        self.stack: list[int] = [-1]
        self.work: dict[str, float] = {}

    def wrap(self, name: str, fn):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.ids[name]
        work = WORK.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work(args)
            return result

        return traced

    def patch(self, module) -> None:
        short = module.__name__.removeprefix("chaoslab.")
        for attr in TARGETS[module.__name__]:
            setattr(module, attr, self.wrap(f"{short}.{attr}", getattr(module, attr)))
        if module.__name__ == "chaoslab.shadowing":
            self._patch_map_system(module.MapSystem)
        if module.__name__ == "chaoslab.cli":
            build = module.build_parser

            def build_parser():
                parser = build()
                parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
                return parser

            module.build_parser = build_parser

    def _patch_map_system(self, cls) -> None:
        """Wrap the map and Jacobian callables of every MapSystem built."""
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for attr in ("map", "jacobian"):
                fn = getattr(obj, attr)
                if fn is not None:
                    setattr(obj, attr, self.wrap(f"shadowing.{attr}", fn))

        cls.__init__ = __init__

    def dump(self, path: str, job_id: str, exit_code: int) -> None:
        with open(path, "w") as fh:
            json.dump({"job": job_id, "exit": exit_code, "names": self.names,
                       "spans": self.spans, "work": self.work}, fh)


class PatchingFinder:
    """Meta-path finder that patches TARGETS modules right after they load."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in TARGETS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.tracer.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, job_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    sys.meta_path.insert(0, PatchingFinder(tracer))
    code = 1
    try:
        from chaoslab import cli
        code = cli.main(cli_args)
    finally:
        tracer.dump(spans_path, job_id, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
