"""Cold cost of each CLI command, and the modules it imports on its own.

    python3 scripts/command_cost.py

Run from the root of a checkout; the program is imported from src/.  The
script imports `bhvphylo.cli` once and runs every command as
`bhvphylo.cli.main(argv)` in a fork of itself, the way the benchmark's
server (perfbench/child.py) does, so each command starts with empty
program caches and pays for every module that only it imports.  The
inputs are small and made by the commands themselves in a temporary
directory: `simulate` writes a 5-taxon alignment of 200 columns, `sample`
runs one chain of 60 iterations on it, and the estimators take 600 steps
on its 48 samples.

For each command the script prints the median wall time of `main` over
REPEATS forks and the modules the command imported that `import
bhvphylo.cli` had not.  A module that a newly imported module imported is
counted under it, so each listed module is one lazy import made by code
that was already loaded, followed by the number of modules it brought
in.  The script parses no arguments: argparse would import `gettext`,
and parsing would import `locale`, before the forks, so a command that
imported them itself would not show them.
"""

from __future__ import annotations

import importlib.abc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
# one BLAS thread, as the commands run in the benchmark
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import bhvphylo.cli as cli  # noqa: E402

REPEATS = 5
TREE = "((A:0.1,B:0.2):0.05,(C:0.3,D:0.1):0.07,O:0.1);"
OTHER = "((A:0.1,C:0.2):0.05,(B:0.3,D:0.1):0.07,O:0.1);"


def commands(work: str) -> list[tuple[str, list[str]]]:
    """Each command once, in an order in which every input exists."""
    aln = os.path.join(work, "aln.fasta")
    run = os.path.join(work, "run")
    samples = run + ".samples"
    estimate = ["--steps", "600", "--seed", "1"]
    return [
        ("simulate", ["simulate", TREE, "--columns", "200", "--seed", "1",
                      "--outgroup", "O", "--out", aln]),
        ("sample", ["sample", aln, "--out", run, "--seed", "1", "--iters", "60",
                    "--burnin", "12", "--outgroup", "O"]),
        ("mean", ["mean", samples] + estimate),
        ("median", ["median", samples] + estimate),
        ("compare", ["compare", samples] + estimate),
        ("consensus", ["consensus", samples]),
        ("splits", ["splits", samples]),
        ("distance", ["distance", TREE, OTHER]),
        ("interpolate", ["interpolate", TREE, OTHER, "--lambda", "0.5"]),
    ]


class _ImportRecorder(importlib.abc.MetaPathFinder):
    """Records, for each module imported from now on, the module whose
    code imported it; finds nothing itself."""

    def __init__(self):
        self.importer: dict[str, str] = {}

    def find_spec(self, name, path=None, target=None):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__", "").startswith(
            ("importlib", "_frozen_importlib")
        ):
            frame = frame.f_back
        self.importer.setdefault(name, frame.f_globals.get("__name__") if frame else "")
        return None


def lazy_imports(before: set[str], recorder: _ImportRecorder) -> dict[str, int]:
    """Each module imported by already loaded code -> modules it brought in."""
    # sys.modules lists modules in the order their loading finished
    new = [name for name in sys.modules if name not in before]
    counts: dict[str, int] = {}
    root = None
    for name in reversed(new):
        # a module that an extension put in sys.modules itself (a Cython
        # runtime module) has no importer: it counts under the import that
        # was running, the next one to finish
        if name in recorder.importer or root is None:
            root = name
            while recorder.importer.get(root) in new:
                root = recorder.importer[root]
        counts[root] = counts.get(root, 0) + 1
    return dict(sorted(counts.items()))


def run_in_fork(argv: list[str], out_path: str) -> dict:
    """Wall time, exit code and lazy imports of `cli.main(argv)` in a fork."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            before = set(sys.modules)
            recorder = _ImportRecorder()
            sys.meta_path.insert(0, recorder)
            with open(out_path, "w") as out, open(os.devnull, "w") as err:
                sys.stdout, sys.stderr = out, err
                start = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - start
            report = {"code": code, "seconds": seconds,
                      "imports": lazy_imports(before, recorder)}
            os.write(write_end, json.dumps(report).encode())
        finally:
            os._exit(code if isinstance(code, int) else 1)
    os.close(write_end)
    chunks = []
    while chunk := os.read(read_end, 65536):
        chunks.append(chunk)
    os.close(read_end)
    os.waitpid(pid, 0)
    if not chunks:
        raise RuntimeError(f"command failed: {' '.join(argv)}")
    return json.loads(b"".join(chunks))


def main() -> None:
    work = tempfile.mkdtemp(prefix="command_cost_")
    try:
        print(f"{'command':<12} {'ms':>8}  lazy imports (modules brought in)")
        for name, argv in commands(work):
            runs = [run_in_fork(argv, os.path.join(work, name + ".out"))
                    for _ in range(REPEATS)]
            if any(r["code"] != 0 for r in runs):
                raise RuntimeError(f"{name} exited {[r['code'] for r in runs]}")
            ms = 1e3 * statistics.median(r["seconds"] for r in runs)
            imports = ", ".join(f"{m} ({n})" for m, n in runs[0]["imports"].items())
            print(f"{name:<12} {ms:8.1f}  {imports or '-'}")
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
