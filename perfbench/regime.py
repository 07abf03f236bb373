"""Do the sampler workloads' short chains cost what a long chain costs per step?

    python3 perfbench/regime.py [--seed N] [--factor F]

For pipeline-5taxa and sample-8taxa, runs each instance's `sample`
command traced as the workload runs it, then again with F times the
iterations (burn-in a fifth, as in the workload), on the same alignment.
Prints, for both chain lengths, the time per `log_posterior` call, the
share of `sample` time that is the chain's own work (mcmc self time),
the share of posterior calls spent on chain starts, and the move mix.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets up the import paths)
import tracing  # noqa: E402


def traced_sample(workload, server, directory, iters):
    """Per-layer metrics of every instance's sample command, summed."""
    workload.ITERS, workload.BURNIN = iters, iters // 5
    spans, written = [], 0
    for k, instance in enumerate(workload.instances):
        sub = os.path.join(directory, str(k))
        os.makedirs(sub)
        op, argv, files = workload.sample_command(instance, os.path.join(sub, "run"))
        done = server.run(op, argv, sub, files, trace=True)
        if not done.ok:
            raise SystemExit(f"sample failed in {sub}")
        spans.append(done.spans)
        written += done.bytes
    return tracing.round_metrics(spans, written)


def describe(workload, iters, m) -> str:
    starts = workload.INSTANCES * workload.CHAINS
    steps = m["mcmc.steps"]
    return (f"{workload.CHAINS} chain(s) x {iters:5d} iterations: "
            f"{m['phylo_model.posterior_ms']:7.3f} ms per posterior call, "
            f"mcmc self {m['mcmc.self_s'] / m['cli.sample_s']:6.2%} of sample, "
            f"chain starts {starts / m['phylo_model.posterior_calls']:5.1%} of calls, "
            f"NNI proposals {m['mcmc.nni_calls'] / steps:5.1%} of {steps} steps "
            f"(accepted: {m['mcmc.accepted_nni']} NNI, {m['mcmc.accepted_length']} length)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--factor", type=int, default=10)
    args = parser.parse_args()
    base = os.path.join(HERE, "out", "regime")
    shutil.rmtree(base, ignore_errors=True)
    for name in ("pipeline-5taxa", "sample-8taxa"):
        work = os.path.join(base, name)
        os.makedirs(work)
        server = run.Server(work)
        try:
            workload = run.WORKLOADS[name](work, args.seed, server)
            short = workload.ITERS
            for iters in (short, short * args.factor):
                m = traced_sample(workload, server, os.path.join(work, str(iters)), iters)
                print(f"{name}: {describe(workload, iters, m)}", flush=True)
        finally:
            server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
