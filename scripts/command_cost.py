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

First the script prints what every command pays before `main` runs, the
cold `import bhvphylo.cli`: the median and range of its wall time over
IMPORT_REPEATS fresh interpreters, then each package module's self time
(median over as many interpreters run with `-X importtime`), the
package's total and that of the other modules the import loads.  Fresh
interpreters compile the package's source unless a bytecode cache is
written and read, so the figures depend on PYTHONDONTWRITEBYTECODE.

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
import subprocess
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
IMPORT_REPEATS = 9
# the marker separates the interpreter's own start-up imports from the probe's
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.stderr.write('-- probe\\n'); sys.stderr.flush()\n"
    "start = time.perf_counter()\n"
    "import bhvphylo.cli\n"
    "print(time.perf_counter() - start)\n"
)
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


def fresh_import(*flags: str) -> subprocess.CompletedProcess:
    """Run IMPORT_PROBE in a new interpreter started with `flags`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *flags, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)


def module_self_times(importtime: str) -> dict[str, float]:
    """Self seconds of each module the probe imported, from the
    `-X importtime` lines ("import time: self | cumulative | name")."""
    times = {}
    for line in importtime.split("-- probe\n", 1)[1].splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = int(fields[0]) * 1e-6
    return times


def print_import_cost() -> None:
    wall = sorted(float(fresh_import().stdout) for _ in range(IMPORT_REPEATS))
    runs = [module_self_times(fresh_import("-X", "importtime").stderr)
            for _ in range(IMPORT_REPEATS)]
    package = sorted(name for name in runs[0] if name.split(".")[0] == "bhvphylo")

    def median_ms(names) -> float:
        return 1e3 * statistics.median(sum(run.get(n, 0.0) for n in names) for run in runs)

    print(f"import bhvphylo.cli: {1e3 * statistics.median(wall):.1f} ms median of "
          f"{IMPORT_REPEATS} fresh interpreters ({1e3 * wall[0]:.1f}-{1e3 * wall[-1]:.1f}), "
          f"bytecode cache {'off' if os.environ.get('PYTHONDONTWRITEBYTECODE') else 'on'}")
    print(f"{'module (self time)':<24} {'ms':>8}")
    for name in package:
        print(f"{name:<24} {median_ms([name]):8.1f}")
    print(f"{'bhvphylo, all modules':<24} {median_ms(package):8.1f}")
    others = {name for run in runs for name in run} - set(package)
    print(f"{'other modules':<24} {median_ms(others):8.1f}")
    print()


def main() -> None:
    print_import_cost()
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
