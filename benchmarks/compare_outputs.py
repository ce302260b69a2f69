#!/usr/bin/env python3
"""Compare the exit codes and data outputs of two chaoslab source trees.

    python3 benchmarks/compare_outputs.py PARENT_TREE

Runs every README command (each line that starts with `chaoslab ` or
`python -m chaoslab.cli `) and every job of the perfbench workloads at seed
0, once from PARENT_TREE and once from the tree that holds this script.
Each run is a fresh `python -m chaoslab.cli` process with PYTHONPATH at its
tree's own src/; the perfbench jobs run through perfbench's own job runner.
It prints one JSON object: the number of commands, each command whose exit
code differs, and each data output (every file but manifest.json, which
carries timings) whose bytes differ or that only one tree wrote.  It exits
0 when nothing differs and 1 otherwise.  The outputs go to a temporary
directory, removed at the end.
"""

import filecmp
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import run as perfbench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
README_TIMEOUT_S = 600
README_COMMAND = re.compile(r"^(?:chaoslab|python -m chaoslab\.cli) (.*)$", re.M)


def readme_commands(trees) -> list[str]:
    """The README commands of every tree, each once, in order of appearance."""
    commands = []
    for tree in trees:
        with open(os.path.join(tree, "README.md")) as fh:
            commands += [c for c in README_COMMAND.findall(fh.read()) if c not in commands]
    return commands


def tree_env(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def run_readme(tree: str, commands, workdir: str) -> dict:
    """{command: (exit code, output directory)}, run from the tree's root,
    where the README's relative paths point."""
    out = {}
    for i, command in enumerate(commands):
        outdir = os.path.join(workdir, f"readme{i}")
        argv = [sys.executable, "-m", "chaoslab.cli", *shlex.split(command),
                "--output-dir", outdir]
        try:
            code = subprocess.run(argv, cwd=tree, env=tree_env(tree), timeout=README_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        out[command] = (code, outdir)
    return out


def run_perfbench(tree: str, workdir: str) -> dict:
    """{workload/job: (exit code, output directory)} for every perfbench job."""
    out = {}
    for name, make_jobs in WORKLOADS.items():
        runs, _ = perfbench.run_round(make_jobs(SEED, ROOT), os.path.join(workdir, name),
                                      False, tree_env(tree))
        out.update({f"{name}/{r.job.name}": (r.exit, r.outdir) for r in runs})
    return out


def data_files(outdir: str) -> set:
    if not os.path.isdir(outdir):
        return set()
    return {name for name in os.listdir(outdir) if name != "manifest.json"}


def compare(parent: dict, change: dict) -> dict:
    exits, outputs = [], []
    for key, (code_a, dir_a) in parent.items():
        code_b, dir_b = change[key]
        if code_a != code_b:
            exits.append({"command": key, "parent": code_a, "change": code_b})
        files_a, files_b = data_files(dir_a), data_files(dir_b)
        for name in sorted(files_a | files_b):
            if name not in files_b:
                outputs.append({"command": key, "file": name, "difference": "only in parent"})
            elif name not in files_a:
                outputs.append({"command": key, "file": name, "difference": "only in change"})
            elif not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name),
                                 shallow=False):
                outputs.append({"command": key, "file": name, "difference": "bytes differ"})
    return {"commands": len(parent), "exit_differences": exits, "output_differences": outputs}


def main() -> int:
    if len(sys.argv) != 2 or not os.path.isfile(os.path.join(sys.argv[1], "src", "chaoslab", "cli.py")):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_tree = os.path.abspath(sys.argv[1])
    commands = readme_commands((parent_tree, ROOT))
    results = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        for label, tree in (("parent", parent_tree), ("change", ROOT)):
            workdir = os.path.join(work, label)
            results.append({**run_readme(tree, commands, workdir),
                            **run_perfbench(tree, workdir)})
        report = compare(*results)
    print(json.dumps(report, indent=1))
    return 1 if report["exit_differences"] or report["output_differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
