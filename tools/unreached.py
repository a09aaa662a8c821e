"""List the functions of src/logmonoid that no program path enters.

    python3 tools/unreached.py

Runs, in this process under cProfile, every argv of tools/cli_sweep.py
(each `connection` subcommand on each fixture, `monoid-analyze`, and
selftest at five primes), then one connection-ladder round and one
monoid-analysis round of the benchmark's generator, each job run, checked
and re-checked as the benchmark does (perfbench/gen.py and
perfbench/workloads.py, only read).  It then walks the source with `ast`
and prints `module.function lines` for each `def` never entered (the
defs nested in one are its lines), and a total.  Stdlib only.
"""

from __future__ import annotations

import ast
import cProfile
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "logmonoid")
SEED = 7
sys.dont_write_bytecode = True  # write nothing next to perfbench's files
sys.path[:0] = [HERE, os.path.join(ROOT, "perfbench")]


def entered() -> set[tuple[str, int]]:
    """(file, first line) of every code object the programs enter, the
    calls made while the engine's modules load included."""
    os.chdir(ROOT)
    profile = cProfile.Profile()
    profile.enable()
    import cli_sweep  # puts ./src on the path
    import gen
    import workloads
    for argv in cli_sweep._argvs():
        cli_sweep._run(argv)
    for name, jobs in (("connection-ladder", gen.connection_round(SEED, 0)),
                       ("monoid-analysis", gen.monoid_round(SEED, 0))):
        run, check, oracle = workloads.RUNNERS[name]
        for job in jobs:
            result = run(job)
            check(job, result)
            if oracle:
                oracle(job, result)
    profile.disable()
    return {(os.path.realpath(f), line) for f, line, _ in pstats.Stats(profile).stats}


def unreached(path: str, seen: set[tuple[str, int]]):
    """(qualified name, lines) of each outermost def in path never entered."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if (path, first) not in seen:
                    yield f"{prefix}{child.name}", child.end_lineno - first + 1
                    continue
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from walk(child, f"{prefix}{child.name}." if named else prefix)

    with open(path, encoding="utf-8") as fh:
        module = os.path.basename(path)[:-3]
        yield from walk(ast.parse(fh.read()), f"{module}.")


def main() -> int:
    seen = entered()
    found = [hit for name in sorted(os.listdir(SRC)) if name.endswith(".py")
             for hit in unreached(os.path.realpath(os.path.join(SRC, name)), seen)]
    for name, lines in found:
        print(name, lines)
    print(f"total: {len(found)} functions, {sum(lines for _, lines in found)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
