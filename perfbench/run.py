"""Benchmark of the afcdepth certificate chain.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

One process, one closed-loop client: each op starts when the previous one
and its check have finished.  The timed region runs whole rounds (every op
of the workload once, in a fixed order) until the summed op time reaches
``--seconds``, so every run measures the same mix of ops.  Op and set-up
times are scaled to reference-speed seconds by a kernel timed between ops
(``hostspeed.py``).  Checks run outside the timed region.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs every op once plain and
once with spans around the library calls, and prints the per-layer metrics
(per round) and the tracing overhead.  The last line of standard output is
the JSON result; the lines before it give the run conditions and a summary.
Spans are written to ``perfbench/_run/<workload>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3


def source_revision():
    """Commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "afcdepth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def conditions(args):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": source_revision(), "source_sha256": source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "client": "closed loop, 1 client, 1 process",
    }


def run_ops(ops, seconds, tracer, kernel):
    """Whole rounds until the summed reference-speed op time reaches
    ``seconds``, so a run measures about as many rounds on a slow host.

    Returns (samples, failures, rounds); a sample is (seconds, traced,
    scale), ``scale`` turning the seconds into reference-speed seconds from
    the kernel passes before and after the op.  With a tracer every op runs
    twice, plain and traced, the order alternating from op to op.
    """
    samples, failures, rounds = [], [], 0
    before = kernel.seconds()
    while rounds == 0 or sum(s * scale for s, _, scale in samples) < seconds:
        for index, op in enumerate(ops):
            modes = (False,) if tracer is None else \
                ((False, True) if (index + rounds) % 2 == 0 else (True, False))
            for traced in modes:
                elapsed, error = run_one(op, tracer if traced else None)
                after = kernel.seconds()
                samples.append((elapsed, traced, kernel.scale(before, after)))
                before = after
                if error:
                    failures.append(f"{op.kind}: {error}")
        rounds += 1
    return samples, failures, rounds


def run_one(op, tracer):
    """Time one op, then check it; returns (seconds, error text or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
            elapsed = time.perf_counter() - start
        else:
            tracer.op_id += 1
            with tracer.instrumented():
                start = time.perf_counter()
                with tracer.span(f"op.{op.kind}"):
                    result = op.run()
                elapsed = time.perf_counter() - start
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return time.perf_counter() - start, _describe(exc)
    try:
        op.check(result)
    except Exception as exc:  # CheckFailed, or an output too broken to read
        return elapsed, f"check failed: {_describe(exc)}"
    return elapsed, None


def _describe(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def end_to_end(samples, failures, setup_s):
    times = [elapsed * scale for elapsed, _, scale in samples]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1.0 - len(failures) / len(times), "ratio"),
        "setup_s": (setup_s, "s"),
    }


CALLS = ("depthbound.certify_depth", "depthbound.bound_curve",
         "echosim.simulated_contrast", "echoanalysis.fit_echo",
         "photonstats.excitation_probabilities", "cli.main")
BUSY = ("depthbound.certify_depth", "depthbound.bound_curve", "echosim.absorb",
        "echosim.simulated_contrast", "echosim.load_comb_trace",
        "echoanalysis.from_csv", "echoanalysis.fit_echo", "echoanalysis.echo_contrast",
        "echoanalysis.contrast_sweep", "photonstats.load_channel_config",
        "photonstats.excitation_probabilities", "cli.main")
COUNTS = (("depthbound.certify_depth.evaluations", "depthbound.certify_depth", "evaluations"),
          ("depthbound.bound_curve.points", "depthbound.bound_curve", "points"),
          ("depthbound.monotone_violations", "depthbound.bound_curve", "monotone_violations"),
          ("echosim.tooth_samples", "echosim.simulated_contrast", "tooth_samples"),
          ("echoanalysis.contrast_sweep.rows", "echoanalysis.contrast_sweep", "rows"),
          ("echoanalysis.contrast_sweep.row_errors", "echoanalysis.contrast_sweep",
           "row_errors"))


def per_layer(tracer, samples, rounds):
    """Layer metrics per round of traced ops, plus the tracing overhead."""
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (tracer.calls(name) / rounds, "count")
    for name in BUSY:
        metrics[f"{name}.busy_s"] = (tracer.busy(name) / rounds, "s")
    for metric, name, key in COUNTS:
        metrics[metric] = (tracer.count(name, key) / rounds, "count")
    metrics["cli.self_s"] = (tracer.self_time("cli.main") / rounds, "s")
    plain = [s * scale for s, is_traced, scale in samples if not is_traced]
    traced = [s * scale for s, is_traced, scale in samples if is_traced]
    plain_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
    metrics["trace.ops_per_s_untraced"] = (plain_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced_rate / plain_rate, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "afcdepth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no afcdepth sources under {SRC}")
    # single-threaded baseline: set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()  # imports count toward setup_s
    import afcdepth
    import hostspeed
    import workloads
    from afcdepth import cli, echoanalysis
    from tracing import Tracer
    import_s = time.perf_counter() - started
    kernel = hostspeed.ReferenceKernel()
    passes = [kernel.seconds()]
    if Path(afcdepth.__file__).resolve().parent != SRC / "afcdepth":
        sys.exit(f"perfbench: imported afcdepth from {afcdepth.__file__}, not {SRC}")

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    build, expected_layers = workloads.WORKLOADS[args.workload]
    lib = workloads.entry_points()
    workdir = ROOT / "perfbench" / "_run" / args.workload
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        ops = build(lib, workdir, args.seed)
        ops[0].run()  # untimed warm-up op
        setups.append(time.perf_counter() - start)
        passes.append(kernel.seconds())
    setup_s = (import_s + statistics.median(setups)) * kernel.scale(*passes)

    tracer = None
    if args.trace:
        tracer = Tracer(workloads.COUNTERS, namespaces=(lib, cli), classmethods=(
            (echoanalysis.TimeHistogram, "from_csv", "echoanalysis.from_csv"),))
    samples, failures, rounds = run_ops(ops, args.seconds, tracer, kernel)
    for failure in failures[:10]:
        print(f"perfbench: {failure}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(samples, failures, setup_s)
    else:
        tracer.write(workdir / "spans.jsonl")
        tracer.validate(expected_layers)
        metrics = per_layer(tracer, samples, rounds)

    print(json.dumps({"conditions": conditions(args)}, sort_keys=True))
    raw = [elapsed for elapsed, _, _ in samples]
    print(json.dumps({"summary": {
        "rounds": rounds, "ops_per_round": len(ops), "op_samples": len(samples),
        "error_rate": len(failures) / len(samples), "setup_runs_s": setups,
        "import_s": import_s, "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_s": statistics.median(raw),
        "reference_speed_scale_p50": statistics.median(s for _, _, s in samples),
        "waiting": "not applicable: one process, no queue"}}, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": len(samples), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
