"""Benchmark of the bwfrechet partial-effect test, end to end and by layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload size-ex1-n200 --seed 1 --seconds 50 --trace 0

Set-up (import the package, draw or write the inputs) is timed five times:
once in this process, and in fresh interpreters twice before the measurement
and twice after it, so that the median spans the run. The run repeats
whole rounds of the workload until the next round would end after
``--seconds``, checks every output against references built apart from the
program, and prints one JSON line. ``--trace 1`` instead runs the first
round twice untraced (a warm-up, then the baseline), replays it through the
public stage functions with spans, writes the
spans under ``perfbench/out/`` and reports the per-layer metrics.
``--selfcheck`` runs every workload in both modes at tiny sizes.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per process: the threaded fit path adds its own threads,
# and the machine the reference figures come from has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2  # fresh-interpreter set-ups before the measurement, and again after it
PROBE_TIMEOUT_S = 120


def timed_import():
    """Import the program first, before numpy or scipy, so the time is whole."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import bwfrechet.cli  # noqa: F401  the package, its CLI and all it loads
    return time.perf_counter() - t0


def setup(args, workdir):
    """Import and make the inputs; returns (bench, timing sample)."""
    import_s = timed_import()
    import workloads

    if args.workload not in workloads.SPECS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}")
    spec = workloads.SPECS[args.workload]
    if args.tiny:
        spec = spec.tiny()
    bench = workloads.Bench(spec, args.seed, str(workdir))
    t0 = time.perf_counter()
    bench.make_inputs()
    return bench, {"import_s": import_s, "setup_s": import_s + time.perf_counter() - t0}


def probe_setup(args, workdir):
    """Set up again in a fresh interpreter; returns its timing sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_setups(args, workdir, first):
    """``SETUP_PROBES`` fresh set-ups, in work directories numbered from ``first``."""
    samples = []
    for k in range(first, first + SETUP_PROBES):
        probe_dir = workdir / f"probe-{k}"
        probe_dir.mkdir()
        samples.append(probe_setup(args, probe_dir))
    return samples


def timed_rounds(bench, seconds):
    """Whole rounds until the next would end after ``seconds``; at least one."""
    attempted = failed = 0
    times, outputs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        a, f, out = bench.run_round(len(times))
        times.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        outputs.append(out)
    return attempted, failed, times, outputs


def metric_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args):
    end_to_end, per_layer = metric_units()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench, first = setup(args, workdir)
        samples = [first] + probe_setups(args, workdir, 0)
        import checks

        correct = True
        if args.trace:
            import workloads

            try:
                attempted, values, rec, header = workloads.traced_run(bench)
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                return 1
            rec.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", **header)
            failed, units = 0, per_layer
        else:
            attempted, failed, times, outputs = timed_rounds(bench, args.seconds)
            print("round times (s): " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            try:
                bench.check_outputs([o for o in outputs if o is not None])
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            values = {
                "run_s": statistics.median(times),
                "tests_per_s": (attempted - failed) / sum(times),
                "peak_rss_mb": peak_rss_mb,
            }
            units = end_to_end
        samples += probe_setups(args, workdir, SETUP_PROBES)
        if args.trace:
            values["cli.import_s"] = statistics.median(s["import_s"] for s in samples)
        else:
            values["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def setup_probe(args):
    bench, sample = setup(args, Path(args.workdir))
    print(json.dumps(sample))
    return 0


def selfcheck(args):
    """Every workload in both modes at tiny sizes; each result must be whole."""
    timed_import()
    import workloads

    end_to_end, per_layer = metric_units()
    bad = 0
    for name in workloads.SPECS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            units = per_layer if trace else end_to_end
            ok = (result is not None and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in result["metrics"].items()} == units)
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={trace}", flush=True)
            if not ok:
                print(done.stdout + done.stderr, file=sys.stderr)
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    parser.add_argument("--selfcheck", action="store_true", help="run every workload at tiny sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "bwfrechet" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'bwfrechet'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
