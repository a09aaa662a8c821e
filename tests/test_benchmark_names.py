"""The names the benchmark in perfbench/ reads from the program: every
tracer target resolves on its home module, and every command line the
benchmark generates parses.  A refactor that renames one of them fails
here, not only in a benchmark run.  perfbench/ is read, never changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

from logmonoid.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    """perfbench/<name>.py, loaded from its file (perfbench is no package)
    with no bytecode written next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_tracer_target_resolves_on_its_home_module():
    """tracer.install looks each target up with no default; a Class.method
    target is patched in the class __dict__, so it must be defined there."""
    targets = _perfbench("tracer").TARGETS
    assert targets
    for modname, attr in targets:
        home = importlib.import_module(f"logmonoid.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), (modname, attr)
        else:
            assert callable(getattr(home, attr)), (modname, attr)


def test_every_generated_cli_argv_parses():
    """Each cli-batch job's argv, flags such as --l, --depth, --sigma and
    --all-faces included, parses with the program's own parser."""
    gen, parser = _perfbench("gen"), build_parser()
    flags = set()
    for seed in (7, 17001, 41001):
        for job in gen.cli_round(seed, 0):
            args = parser.parse_args(job["argv"])  # argparse exits 2 on an unknown flag
            assert args.command == job["argv"][0]
            flags |= {a for a in job["argv"] if a.startswith("--")}
    assert {"--l", "--depth", "--sigma", "--all-faces"} <= flags
