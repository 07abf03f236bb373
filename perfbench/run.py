"""Benchmark of the bhvphylo pipeline: sample -> mean/median -> consensus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A workload makes its inputs from the
seed (a few independent instances, so that one draw's luck does not set
the figure), then repeats a round -- every instance's sequence of CLI
commands -- until S seconds have passed.  Each command runs as
`bhvphylo.cli.main(argv)` in a fork of an interpreter that has just
imported the program (child.py).  After each round three fresh
interpreters are timed back to back: one imports the program, the two
around it only numpy and scipy.special (the reference).  Every command of the
first round is checked (checks.py, verify.py); every later round must
reproduce the first byte for byte.  An operation is one command; it
fails if it exits non-zero or its output fails a check.

The last line of standard output is one JSON object.  With --trace 0 it
holds the end-to-end metrics: setup_s (launch to `bhvphylo.cli` ready),
pipeline_s (the commands' wall time after set-up, summed over a round,
median over rounds) and peak_rss_mb (largest command of a round, median
over rounds).  Both times are stated at a fixed host speed: each program
import and each round's time is divided by the mean of the two reference
imports timed right after the round and multiplied by REFERENCE_S,
before the median is taken.  With --trace 1 the
rounds alternate untraced and traced, and it holds the per-layer
metrics of the traced rounds (medians, in seconds as measured) and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# the checks import the program under test from this checkout
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
from child import BLAS_THREADS, COMMAND_TIMEOUT, EXIT_NO_PROGRAM  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
# one BLAS thread, as the commands run: the pools OpenBLAS starts at
# import would otherwise make the import time depend on the other core
PROBE_ENV = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
# setup_s and pipeline_s are stated at the host speed where the
# reference import (numpy and scipy.special in a fresh interpreter) takes
# this many seconds, its median on the 2-core host the benchmark was
# written on.  There the speed of the same work drifted by a third within
# minutes, and the reference drifted with it (README, "How times are
# stated").
REFERENCE_S = 0.38


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, failed set-up)."""


def probe(flag) -> float:
    """Seconds from starting an interpreter to the end of `child.py flag`."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD, flag], capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT, env=PROBE_ENV)
    if proc.returncode != 0:
        raise BenchmarkError(proc.stderr.strip() or f"set-up probe {flag} failed")
    return json.loads(proc.stdout)["ready"] - spawned


def probe_setup() -> tuple[float, float, float]:
    """(reference, program, reference) imports, timed back to back right
    after a round, so that the references see the host as the round did."""
    return probe("--reference"), probe("--probe"), probe("--reference")


def at_reference_speed(seconds, probe) -> float:
    """`seconds` at the reference host speed, gauged by the two reference
    imports of the probe taken right after them."""
    before, _, after = probe
    return seconds * 2 / (before + after) * REFERENCE_S


class Command:
    """The outcome of one CLI command run in a fork of the server."""

    def __init__(self, op, files, reply, result):
        self.op = op
        self.files = files
        self.exit = reply.get("exit")
        self.ok = self.exit == 0 and result is not None and result["code"] == 0
        self.result = result
        self.run_s = result["end"] - result["start"] if self.ok else 0.0
        self.spans = result.get("spans") if self.ok else None
        self.bytes = sum(os.path.getsize(f) for f in files if os.path.exists(f))


class Server:
    """child.py serving commands; one per run."""

    def __init__(self, work):
        self.stderr = open(os.path.join(work, "server.err"), "w")
        self.proc = subprocess.Popen([sys.executable, CHILD], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True)

    def run(self, op, argv, directory, files=(), trace=False) -> Command:
        stdout = os.path.join(directory, f"{op}.out")
        result_path = os.path.join(directory, f"{op}.result.json")
        request = {"argv": argv, "stdout": stdout, "result": result_path, "trace": int(trace)}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            self.proc.wait()
            if self.proc.returncode == EXIT_NO_PROGRAM:
                with open(self.stderr.name) as handle:
                    raise BenchmarkError(handle.read().strip())
            raise BenchmarkError(f"command server ended; see {self.stderr.name}")
        result = None
        try:
            with open(result_path) as handle:
                result = json.load(handle)
        except (OSError, ValueError):  # the fork died before writing it
            pass
        return Command(op, [stdout, *files], json.loads(line), result)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# ---------------------------------------------------------------------------
# Workloads.  A workload prepares its instances once; commands() lists a
# round's commands for one instance as (operation, argv, files written
# besides standard output); check() returns the problems per operation.


class Workload:
    def __init__(self, work, seed, server):
        self.instances = []
        for k in range(self.INSTANCES):
            directory = os.path.join(work, "inputs", str(k))
            os.makedirs(directory)
            self.instances.append(self.prepare(directory, seed * 100 + k, server))

    def simulate(self, server, directory, tree, patterns, seed):
        path = os.path.join(directory, "aln.fasta")
        done = server.run("simulate", [
            "simulate", tree, "--columns", str(inputs.SIMULATED_COLUMNS),
            "--seed", str(seed), "--outgroup", "O", "--out", path], directory)
        if not done.ok:
            raise BenchmarkError(f"simulate failed in {directory}")
        inputs.truncate_to_patterns(path, patterns)
        return path

    def summaries(self, samples, seed):
        """mean, median, consensus, splits of one samples file."""
        estimator = ["--steps", str(self.STEPS), "--seed", str(seed)]
        return [
            ("mean", ["mean", samples, *estimator], []),
            ("median", ["median", samples, *estimator], []),
            ("consensus", ["consensus", samples], []),
            ("splits", ["splits", samples], []),
        ]

    def sample_command(self, instance, prefix):
        # the documented proposal (tau 0.9, sigma 0.05) and a burn-in of a
        # fifth, as in the documented 20000/4000; only the length is short
        argv = ["sample", instance["fasta"], "--out", prefix, "--seed", str(instance["seed"]),
                "--chains", str(self.CHAINS), "--iters", str(self.ITERS),
                "--burnin", str(self.BURNIN), "--outgroup", "O"]
        files = [prefix + ext for ext in (".samples", ".trace.csv", ".manifest.json")]
        return ("sample", argv, files)


class Pipeline5(Workload):
    """The paper's scale: simulate 5 taxa, sample, then every summary."""

    INSTANCES = 6
    PATTERNS = 8
    CHAINS, ITERS, BURNIN = 1, 60, 12
    STEPS = 600

    def prepare(self, directory, seed, server):
        fasta = self.simulate(server, directory, inputs.TREE_5, self.PATTERNS, seed)
        return {"fasta": fasta, "seed": seed}

    def commands(self, instance, directory):
        prefix = os.path.join(directory, "run")
        return [self.sample_command(instance, prefix),
                *self.summaries(prefix + ".samples", instance["seed"])]

    def check(self, instance, directory, outputs):
        import verify

        prefix = os.path.join(directory, "run")
        problems = {"sample": verify.sample(self, instance, prefix)}
        problems.update(verify.summaries(self, instance, prefix + ".samples", outputs,
                                         every_input=True, oracle=True))
        return problems


class Sample8(Workload):
    """Two chains on 8 taxa: nearly all time in the polynomial likelihood."""

    INSTANCES = 2
    PATTERNS = 12
    CHAINS, ITERS, BURNIN = 2, 10, 2

    def prepare(self, directory, seed, server):
        fasta = self.simulate(server, directory, inputs.TREE_8, self.PATTERNS, seed)
        return {"fasta": fasta, "seed": seed}

    def commands(self, instance, directory):
        return [self.sample_command(instance, os.path.join(directory, "run"))]

    def check(self, instance, directory, outputs):
        import verify

        return {"sample": verify.sample(self, instance, os.path.join(directory, "run"))}


class Summary32(Workload):
    """Summaries of a generated 32-taxon posterior-like set; no likelihood."""

    INSTANCES = 4
    TREES = 30
    STEPS = 200
    CHECKED_INPUTS = 10

    def prepare(self, directory, seed, server):
        samples = os.path.join(directory, "trees32.samples")
        with open(samples, "w") as handle:
            for line in inputs.tree_set(seed, trees=self.TREES):
                handle.write(line + "\n")
        return {"samples": samples, "seed": seed}

    def commands(self, instance, directory):
        return self.summaries(instance["samples"], instance["seed"])

    def check(self, instance, directory, outputs):
        import verify

        return verify.summaries(self, instance, instance["samples"], outputs,
                                every_input=False, oracle=False)


WORKLOADS = {
    "pipeline-5taxa": Pipeline5,
    "sample-8taxa": Sample8,
    "summary-32taxa": Summary32,
}


# ---------------------------------------------------------------------------
# Rounds


def run_round(workload, server, directory, trace):
    """Every instance's commands; returns [(instance index, Command)]."""
    done = []
    for k, instance in enumerate(workload.instances):
        sub = os.path.join(directory, str(k))
        os.makedirs(sub)
        for op, argv, files in workload.commands(instance, sub):
            done.append((k, server.run(op, argv, sub, files, trace)))
    return done


def same_outputs(command, reference) -> bool:
    return all(
        os.path.exists(mine) and filecmp.cmp(mine, theirs, shallow=False)
        for mine, theirs in zip(command.files, reference.files)
    )


def check_first_round(workload, directory, first) -> dict:
    """{(instance, operation): problems} for the first round.

    Only operations that exited 0 are checked; the others have failed
    already.  A check that raises marks every operation of its instance."""
    problems = {}
    for k, instance in enumerate(workload.instances):
        outputs = {c.op: c.files[0] for i, c in first if i == k and c.ok}
        try:
            found = workload.check(instance, os.path.join(directory, str(k)), outputs)
        except Exception as exc:
            found = {op: [f"check raised {type(exc).__name__}: {exc}"] for op in outputs}
        for op, items in found.items():
            if op in outputs:
                problems[(k, op)] = items
    return problems


def report_missing(traced) -> set[str]:
    """Span names that cannot be recorded, because a wrapped function is
    gone from the program; their metrics are left out.  Names that exist
    but never ran on this workload are listed too; their metrics read 0."""
    commands = [c for done in traced for _, c in done if c.ok]
    gone = {name for c in commands for name in c.result.get("missing", [])}
    called = {span[0] for c in commands for span in c.spans}
    wrapped = {name for _, _, name, _ in tracing.TARGETS} | {tracing.STEP_TARGET[2]}
    for name in sorted(gone):
        print(f"missing: {name} is not in the program", file=sys.stderr)
    for name in sorted(wrapped - called):
        print(f"not called: {name}", file=sys.stderr)
    return tracing.unrecorded(gone)


def median(values):
    return statistics.median(values) if values else 0.0


def pipeline_s(done) -> float:
    return sum(c.run_s for _, c in done)


def measure(args, work, server):
    began = time.monotonic()
    workload = WORKLOADS[args.workload](work, args.seed, server)
    started = time.monotonic()
    first = run_round(workload, server, os.path.join(work, "round0"), trace=False)
    rounds = [(False, first, [c.ok for _, c in first])]
    setups = [probe_setup()]
    while time.monotonic() - started < args.seconds or len(rounds) < 1 + args.trace:
        trace = args.trace == 1 and len(rounds) % 2 == 1
        directory = os.path.join(work, f"round{len(rounds)}")
        done = run_round(workload, server, directory, trace)
        # a later round must reproduce the first, which is checked below
        ok = [c.ok and same_outputs(c, ref) for (_, c), (_, ref) in zip(done, first)]
        rounds.append((trace, done, ok))
        if trace:
            with open(os.path.join(work, f"spans{len(rounds) - 1}.json"), "w") as handle:
                json.dump([[k, c.op, c.spans] for k, c in done], handle)
        shutil.rmtree(directory)
        setups.append(probe_setup())
    checking = time.monotonic()
    problems = check_first_round(workload, os.path.join(work, "round0"), first)
    print(f"{args.workload}: inputs {started - began:.1f} s, {len(rounds)} rounds "
          f"{checking - started:.1f} s, checks {time.monotonic() - checking:.1f} s; "
          f"import {median([p for _, p, _ in setups]):.4f} s, reference import "
          f"{median([r for a, _, b in setups for r in (a, b)]):.4f} s (medians)",
          file=sys.stderr)
    print("round times: " + " ".join(f"{pipeline_s(done):.3f}" for _, done, _ in rounds),
          file=sys.stderr)
    with open(os.path.join(work, "times.json"), "w") as handle:
        json.dump({"rounds": [[c.run_s for _, c in done] for trace, done, _ in rounds
                              if not trace], "probes": setups}, handle)
    return rounds, setups, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/bhvphylo/cli.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    work = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    server = Server(work)
    try:
        rounds, setups, problems = measure(args, work, server)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        server.close()

    first = rounds[0][1]
    for k, c in first:
        if not c.ok:
            print(f"command failed: {args.workload} instance {k} {c.op}: exit {c.exit}",
                  file=sys.stderr)
    for (k, op), found in sorted(problems.items()):
        for problem in found:
            print(f"check failed: {args.workload} instance {k} {op}: {problem}",
                  file=sys.stderr)
    correct = not any(problems.values())
    attempted = sum(len(done) for _, done, _ in rounds)
    failed = sum(
        not (good and not problems.get((k, c.op)))
        for _, done, ok in rounds for (k, c), good in zip(done, ok)
    )
    plain = [done for trace, done, _ in rounds if not trace]
    traced = [done for trace, done, _ in rounds if trace]
    if args.trace == 0:
        metrics = {
            "setup_s": (median([at_reference_speed(probe[1], probe) for probe in setups]), "s"),
            "pipeline_s": (median([at_reference_speed(pipeline_s(done), probe)
                                   for (trace, done, _), probe in zip(rounds, setups)
                                   if not trace]), "s"),
            "peak_rss_mb": (median([max([c.result["maxrss_kb"] for _, c in done if c.ok],
                                        default=0) / 1024.0 for done in plain]), "MB"),
        }
    else:
        per_round = [
            tracing.round_metrics([c.spans for _, c in done if c.ok],
                                  sum(c.bytes for _, c in done))
            for done in traced
        ]
        values = {name: median([r[name] for r in per_round]) for name in per_round[0]}
        values["bench.trace_overhead_s"] = (median([pipeline_s(d) for d in traced])
                                            - median([pipeline_s(d) for d in plain]))
        unrecorded = report_missing(traced)
        metrics = {name: (values[name], unit) for name, unit, spans in tracing.PER_LAYER
                   if not unrecorded.intersection(spans)}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
