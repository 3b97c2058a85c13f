"""qasfg benchmark: one seeded, closed-loop workload per run, one client.

    python3 perfbench/run.py --workload {design,sweep,depleted,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
Each op's output is checked against the oracles in oracle.py outside the
timed region; an op that raises or fails its check counts as failed.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters reaching ready), op_s_p50, op_s_tail, points_per_s and
peak_rss_mb. --trace 1 wraps the program's public functions (tracing.py),
runs the ops traced for half the time, each followed by an untraced rerun
for the tracing overhead, and prints the per-layer metrics. The last line of
standard output is the JSON result; the lines before it repeat every
metric with its unit and sample count, the inputs and the environment.
"""

import os

# Pin the numeric libraries to one thread in this process and, through the
# environment, in every child: the load stays within one core per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4  # fresh interpreters timed for setup_s
# Seconds the calibration kernel takes on the reference machine (2 vCPUs,
# Intel Xeon Processor at 2.1 GHz, Python 3.11.7, numpy 2.4.6) when the host
# is quiet. Times are reported at this reference speed; see calibrate().
CAL_REF_S = 0.005


def calibrate():
    """Seconds one pass of a fixed kernel takes right now.

    The host this benchmark was built on drifts by +-25 % over minutes as
    neighbouring machines load it; the program's ops and this kernel slow
    down together (their ratio holds to a few per cent). The kernel mixes
    what the program spends its time on: scalar complex arithmetic in a
    Python loop and numpy passes over a 4001-point grid. It runs before
    every op, outside the op's clock.
    """
    t0 = time.perf_counter()
    a, b = 1.0 + 0.0j, 0.5j
    for _ in range(12000):
        a = a * 0.9999 + b * 1e-4
        b = b - a * 1e-4
    x = np.linspace(0.0, 1.0, 4001)
    for _ in range(20):
        (np.sin(x) * np.exp(1j * x)).sum()
    return time.perf_counter() - t0


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "threads": os.environ["OMP_NUM_THREADS"]}


def measure_setup(workload, seed):
    """Median seconds from spawning a fresh interpreter to its ready mark."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-setup",
                              "--workload", workload, "--seed", str(seed)],
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(times), times


class Record:
    __slots__ = ("op", "seconds", "checked", "cal")

    def __init__(self, op, seconds, checked, cal):
        self.op, self.seconds, self.checked, self.cal = op, seconds, checked, cal


def run_ops(wl, rounds, seconds=None, tracer=None, check=True, replay=None):
    """Execute rounds of ops in a closed loop, starting rounds until
    `seconds` of op time in reference seconds have passed (or rounds run
    out), so that the host's speed does not change how many rounds a run
    holds. Each check runs after its op's clock has stopped. With a replay
    list, every traced op is run again at once untraced, so that drift of
    the machine's speed cancels in the tracing overhead."""
    records = []
    elapsed = 0.0
    for ops in rounds:
        if seconds is not None and elapsed >= seconds:
            break
        for op in ops:
            elapsed += _run_op(wl, op, tracer, check, records) * CAL_REF_S / records[-1].cal
            if replay is not None:
                trace_dir, wl.tracer_dir = wl.tracer_dir, None
                _run_op(wl, op, None, False, replay)
                wl.tracer_dir = trace_dir
    return records


def _run_op(wl, op, tracer, check, records):
    """Time one op, check it and append its record; return its wall time."""
    from workloads import Checked
    cal = calibrate() if wl.calibrated else CAL_REF_S
    out, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.execute(op)
        else:
            with tracer.op(op.kind):
                out = wl.execute(op)
                for spans in wl.child_spans(out):
                    tracer.add_child_spans(spans)
    except Exception as err:  # the op failed; count it and go on
        error = f"{type(err).__name__}: {err}"
    wall = time.perf_counter() - t0
    op_seconds = [wall] if out is None else wl.op_seconds(out, wall)
    if error is not None:
        checked = Checked(False, error)
    elif not check:
        checked = Checked(True)
    else:
        try:
            checked = wl.check(op, out)
        except Exception as err:  # a check that cannot run is a failed op
            checked = Checked(False, f"check raised {type(err).__name__}: {err}")
    records.append(Record(op, op_seconds, checked, cal))
    return wall


def input_properties(records):
    """What the executed inputs looked like: op kinds, sizes and how often
    an op's dimensionless optimisation problem repeats an earlier one."""
    kinds, sizes, seen = {}, [], set()
    keyed = repeats = 0
    for r in records:
        kinds[r.op.kind] = kinds.get(r.op.kind, 0) + 1
        sizes.append(r.op.points)
        if r.op.key is not None:
            keyed += 1
            repeats += r.op.key in seen
            seen.add(r.op.key)
    sizes.sort()
    return {"ops": len(records), "kinds": kinds,
            "points_min": sizes[0] if sizes else 0,
            "points_median": statistics.median(sizes) if sizes else 0,
            "points_max": sizes[-1] if sizes else 0,
            "repeat_share": repeats / len(records) if records else 0.0,
            "keyed_ops": keyed}


def tail(times):
    """Time at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def speed_scale(records):
    """Factor that turns this run's seconds into reference seconds."""
    return CAL_REF_S / statistics.median(r.cal for r in records)


def end_to_end(wl, records, setup):
    scale = speed_scale(records)
    times = [t * scale for r in records for t in r.seconds]
    points = sum(r.op.points * len(r.seconds) for r in records)
    t_tail, pct = tail(times)
    n = len(times)
    return {
        "setup_s": (setup[0] * scale, "s", f"median of {len(setup[1])} interpreters"),
        "op_s_p50": (statistics.median(times), "s", f"n={n}"),
        "op_s_tail": (t_tail, "s", f"p{pct:.1f}, n={n}"),
        "points_per_s": (points / sum(times), "1/s", f"{points} points, n={n}"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB", "peak resident set"),
    }


def per_layer(wl, records, replay, tracer):
    import tracing
    n = sum(len(r.seconds) for r in records)
    m = tracing.layer_metrics(tracer.spans, n)
    props = input_properties(records)
    m["sensitivity.repeat_share"] = props["repeat_share"]
    m["propagation.max_abs_deta"] = max((r.checked.max_abs_deta for r in records), default=0.0)
    m.update(wl.cli_metrics(records))
    traced = sum(t for r in records for t in r.seconds)
    untraced = sum(t for r in replay for t in r.seconds)
    m["trace.overhead_s"] = (traced - untraced) / max(n, 1)
    scale = speed_scale(records)
    units = {"calls": "count", "steps": "count", "q_evals": "count",
             "bytes_written": "bytes"}
    return {k: (v * scale if k.endswith("_s") else v,
                units.get(k.rsplit(".", 1)[1], "s" if k.endswith("_s") else "1"), f"n={n}")
            for k, v in sorted(m.items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=11.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qasfg", "__init__.py")):
        _fail(f"no qasfg sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    if args.probe_setup:
        wl.setup()
        print(time.perf_counter())
        return 0

    setup = measure_setup(args.workload, args.seed) if not args.trace else None
    wl.setup()
    warm = wl.warmup_op()
    if warm is not None:
        run_ops(wl, [[warm]], check=False)

    tracer = None
    try:
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            wl.tracer_dir = workdir
            tracer.install()
            replay = []
            try:
                records = run_ops(wl, wl.rounds(), args.seconds / 2.0, tracer,
                                  replay=replay)
            finally:
                tracer.uninstall()
            metrics = per_layer(wl, records, replay, tracer)
        else:
            records = run_ops(wl, wl.rounds(), args.seconds)
            metrics = end_to_end(wl, records, setup)
    finally:
        wl.close()

    attempted = sum(len(r.seconds) for r in records)
    failed = sum(len(r.seconds) for r in records if not r.checked.ok)
    env = environment()
    props = input_properties(records)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(props, sort_keys=True))
    if wl.calibrated:
        print(f"speed scale {speed_scale(records):.4f} (reference {CAL_REF_S * 1e3:g} ms / "
              f"median calibration {statistics.median(r.cal for r in records) * 1e3:.3f} "
              "ms); times below are reference seconds")
    else:
        print("speed scale 1 (ops run in child processes); times below are wall seconds")
    for r in records:
        if not r.checked.ok:
            print(f"FAILED {r.op.kind} {r.op.params}: {r.checked.reason}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} ({note})")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} {'1':6s} ({failed}/{attempted})")
    if tracer is not None:
        os.makedirs(os.path.dirname(workdir), exist_ok=True)
        tracer.dump(os.path.join(os.path.dirname(workdir),
                                 f"trace-{args.workload}-{args.seed}.json"),
                    {"env": env, "inputs": props,
                     "metrics": {k: v[0] for k, v in metrics.items()}})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v[0], "unit": v[1]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
