"""adapterkit benchmark: one command for every workload, metric and output check.

    python3 perfbench/run.py --workload {train,serve,hub} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; adapterkit is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything runs closed-loop in one process and one thread.
"""

import os

# pinned before numpy loads OpenBLAS
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
RUN_DIR = ROOT / ".perfbench-run"
OUT_DIR = ROOT / ".perfbench-out"


def import_program():
    """Import adapterkit from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "adapterkit" / "__init__.py").is_file():
        sys.exit(f"error: no adapterkit sources under {src}")
    sys.path.insert(0, str(src))
    import adapterkit
    if Path(adapterkit.__file__).resolve().parent != (src / "adapterkit").resolve():
        sys.exit(f"error: imported adapterkit from {adapterkit.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "hub"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    import fixture
    import spans
    import workloads

    mix = workloads.MIXES[args.workload]
    run_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer()
    restore = spans.instrument(tracer) if args.trace else None
    setup_times = []

    def setup(dirpath):
        t0 = perf_counter()
        fx = fixture.build(dirpath, args.seed, mix.cards)
        setup_times.append(perf_counter() - t0)
        return fx

    def spread_setups(elapsed):
        """Repeat the set-up, timed, at even intervals through the run."""
        while len(setup_times) < SETUP_REPEATS and elapsed >= len(setup_times) * args.seconds / SETUP_REPEATS:
            extra = run_dir / f"setup{len(setup_times)}"
            setup(extra)
            shutil.rmtree(extra)

    try:
        fx = setup(run_dir)
        runner = workloads.Runner(fx, mix, args.seed, tracer)
        if not args.trace:
            rounds, elapsed = workloads.run_rounds(runner, args.seconds, between=spread_setups)
            while len(setup_times) < SETUP_REPEATS:
                spread_setups(args.seconds)
            metrics = workloads.end_to_end(runner, setup_times)
        else:
            # untraced half, then the same rounds again with tracing on
            rounds, untraced = workloads.run_rounds(runner, args.seconds / 2)
            runner.counts.clear()
            tracer.on = True
            with tracer.span("bench.consumer_load"):
                fixture.load_consumer(fx.checkpoint, fx.packages)
            _, traced = workloads.run_rounds(runner, 0, first=0, count=rounds)
            tracer.on = False
            overhead = 100.0 * (traced / untraced - 1.0)
            metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                       for name, value in spans.per_layer(tracer.spans, runner.counts, overhead).items()}
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            elapsed = untraced + traced
    finally:
        if restore:
            restore()
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()

    summary(args, runner, rounds, elapsed, metrics, workloads)
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def summary(args, runner, rounds, elapsed, metrics, workloads):
    """Human-readable lines before the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"{elapsed:.1f} s  attempted {runner.attempted}  failed {runner.failed}  "
          f"correct {not runner.problems}")
    for kind, n in sorted(runner.malformed_failures.items()):
        print(f"  malformed input not rejected: {kind} x{n}")
    for name, m in metrics.items():
        line = f"  {name:44s} {m['value']:14.4f} {m['unit']}"
        variants = runner.samples.get(name)
        if variants and not args.trace:
            samples = [x for v in variants.values() for x in v]
            median, pct, tail = workloads.median_and_tail(samples)
            line += f"   ({len(samples)} samples, {len(variants)} variants; median {median:.4f}"
            line += (f", p{pct} {tail:.4f})" if pct else ")")
        print(line)
    workloads.report_errors(runner)


if __name__ == "__main__":
    sys.exit(main())
