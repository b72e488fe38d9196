"""Run the benchmark's commands in two checkouts and compare every output byte.

    python3 tools/compare_outputs.py --parent ../parent --change . --seeds 31 32 33

For every workload of the change checkout's ``perfbench/workloads`` and
every seed, ``workloads.build`` writes the inputs once.  Each checkout then
runs the pass's nine commands once, through its own ``src``, in a child
process whose working directory holds a copy of those inputs under the
same relative paths, so the ``meta.command`` of every report matches.
Every output that differs, or that one side did not write, is printed; the
exit code is 1 if any does.  The summary ends with each checkout's line
count of ``src/``, the size that simplifications are meant to bring down.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

# argv: src dir, the commands' argv lists (JSON); prints each exit code
RUN = ("import json, os, sys; sys.path.insert(0, sys.argv[1]); from attrmeaning import cli; "
       "assert cli.__file__.startswith(os.path.join(sys.argv[1], '')), cli.__file__; "
       "codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]; "
       "print(json.dumps(codes))")


def _workloads(change):
    """The change checkout's ``perfbench/workloads`` module."""
    perfbench = os.path.abspath(os.path.join(change, "perfbench"))
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads

    return workloads


def _child(code, cwd, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child process in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def differences(parent_dir, change_dir, outputs):
    """The paths in ``outputs`` (relative) that either directory lacks or
    whose bytes differ between the two."""
    differ = []
    for path in outputs:
        a, b = (pathlib.Path(root, path) for root in (parent_dir, change_dir))
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            differ.append(path)
    return differ


def compare(parent, change, workload, seed, big=None):
    """Run one workload's commands in both checkouts; returns (outputs,
    differing outputs, exit codes per side)."""
    workloads = _workloads(change)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        os.makedirs(dirs["parent"])
        cwd = os.getcwd()
        os.chdir(dirs["parent"])
        try:
            commands = workloads.build(workload, seed, ".", big=big)
        finally:
            os.chdir(cwd)
        shutil.copytree(dirs["parent"], dirs["change"])
        argvs = json.dumps([command.argv for command in commands])
        codes = {}
        for side, checkout in (("parent", parent), ("change", change)):
            src = os.path.abspath(os.path.join(checkout, "src"))
            codes[side] = json.loads(_child(RUN, dirs[side], src, argvs).stdout.splitlines()[-1])
        outputs = [path for command in commands for path in command.outputs]
        return outputs, differences(dirs["parent"], dirs["change"], outputs), codes


def src_lines(checkout):
    """Lines in the checkout's ``src/attrmeaning/*.py``, counted as ``wc -l`` does."""
    modules = pathlib.Path(checkout, "src", "attrmeaning").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in modules)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    compared, differing, codes_differ = 0, 0, False
    for workload in _workloads(args.change).WORKLOADS:
        for seed in args.seeds:
            outputs, differ, codes = compare(args.parent, args.change, workload, seed)
            compared, differing = compared + len(outputs), differing + len(differ)
            if codes["parent"] != codes["change"]:
                codes_differ = True
                print(f"{workload} seed {seed}: exit codes {codes['parent']} -> {codes['change']}")
            for path in differ:
                print(f"{workload} seed {seed}: {path} differs")
            print(f"{workload} seed {seed}: {len(outputs) - len(differ)}/{len(outputs)} "
                  "outputs byte-identical", flush=True)
    print(f"{compared - differing}/{compared} outputs byte-identical")
    print(f"src/ lines: parent {src_lines(args.parent)}, change {src_lines(args.change)}")
    return 1 if differing or codes_differ else 0

if __name__ == "__main__":
    sys.exit(main())
