"""segstack benchmark: one workload, one process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train_mk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
of that checkout. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics from
traced units interleaved with untraced ones. Every run checks the
workload's outputs. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only if every check passed. See ``perfbench/NOTES.md``.
"""

import os
import sys

# Thread settings must be in place before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up runs SETUP_MIN_REPS times before the warm-up, then again between
# timed units for SETUP_SHARE of the last unit's wall time (at least once),
# so that its median, setup_s, samples the whole run and not one stretch of
# a few seconds, over which the host's speed can differ from the rest.
SETUP_MIN_REPS = 3
SETUP_SHARE = 0.1

# End-to-end metrics, reported by every workload. An iteration is one
# training step (train_*) or one 512x512 scene (predict_fused).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_mpx_per_s": "Mpx/s",
    "iter_s.p50": "s",
    "iter_s.tail": "s",
    "peak_rss_mb": "MB",
}


# glibc sysconf names (bits/confname.h), absent from os.sysconf_names.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _cache_sizes():
    """{"L2": bytes, "L3": bytes} as the C library reports them."""
    sizes = {}
    for level, name in (("L2", _SC_LEVEL2_CACHE_SIZE),
                        ("L3", _SC_LEVEL3_CACHE_SIZE)):
        try:
            size = os.sysconf(name)
        except (OSError, ValueError):
            continue
        if size > 0:
            sizes[level] = size
    return sizes


def _git_commit():
    """HEAD of the checkout, read from its .git directory if it has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_digest():
    """sha256 over the library's source files. It identifies the code in
    a tree exported without git metadata (``git archive``), where
    ``_git_commit`` finds nothing."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "segstack")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed, np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def tail(values):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, never below the median (the median itself when
    fewer than 20 samples exist)."""
    n = len(values)
    if n < 20:
        return 50.0, statistics.median(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_loop(wl, seconds, setup_times):
    """Closed loop: keep starting units (a training call or a scene)
    while the next one would end nearer to ``seconds`` than stopping
    now; at least one unit. Between units, set-up runs again and its
    times are added to ``setup_times``. Returns (iteration times, summed
    unit wall time, output pixels)."""
    times, wall, pixels = [], 0.0, 0
    start = time.perf_counter()
    while True:
        unit_times, unit_wall, unit_px = wl.iterate()
        times += unit_times
        wall += unit_wall
        pixels += unit_px
        if time.perf_counter() - start + unit_wall / 2 > seconds:
            return times, wall, pixels
        setup_times += _setup(wl, 1, SETUP_SHARE * unit_wall)


def expected_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "segstack")):
        print(f"perfbench: no segstack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import segstack as ss
    import tracing
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    env = environment(args.seed, np)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    try:
        wl = workloads.make(args.workload, args.seed, work)
        wl.prepare()
        if args.trace:
            report, metrics = traced_run(wl, args.seconds, ss, tracing, stem)
        else:
            report, metrics = untraced_run(wl, args.seconds)
        wl.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.update(wl.quality())
    report["failed_frac"] = wl.failed / wl.attempted
    report["failures"] = wl.failures
    report["env"] = env
    report["workload"] = args.workload
    key = "per_layer" if args.trace else "end_to_end"
    if sorted(metrics) != sorted(expected_names(key)):
        differ = set(expected_names(key)) ^ set(metrics)
        print(f"perfbench: metrics disagree with BENCHMARK.json {key}: "
              f"{sorted(differ)}", file=sys.stderr)
        return 2
    with open(stem + ".json", "w") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1,
                  sort_keys=True)
    for name, value in sorted(report.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"  {name} = {value:.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in wl.failures:
        print(f"  FAILED: {problem}")
    correct = wl.failed == 0 and not wl.failures
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(wl, min_reps, min_s):
    """Set up at least ``min_reps`` times and until ``min_s`` seconds of
    set-up have passed; returns the time of each."""
    times = []
    while len(times) < min_reps or sum(times) < min_s:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def untraced_run(wl, seconds):
    setup_times = _setup(wl, SETUP_MIN_REPS, 0.0)
    wl.warmup()
    times, wall, pixels = run_loop(wl, seconds, setup_times)
    tail_q, tail_v = tail(times)
    p50 = statistics.median(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_mpx_per_s": pixels / wall / 1e6,
        "iter_s.p50": p50,
        "iter_s.tail": tail_v,
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    report = {"setup_count": len(setup_times), "iter_times_s": times,
              "iter_s.tail_percentile": tail_q, "iter_count": len(times),
              "timed_wall_s": wall}
    return report, metrics


def traced_run(wl, seconds, ss, tracing, stem):
    """Units alternate untraced and traced, so both halves see the same
    machine conditions; the per-layer metrics come from the traced
    units only, and their time over the untraced units' is the tracing
    overhead."""
    tracer = tracing.Tracer()
    tracer.phase = "setup"
    with tracing.install(tracer, ss):
        setups = len(_setup(wl, SETUP_MIN_REPS, SETUP_SHARE * seconds))
    tracer.register_units(wl.unit_weights())
    wl.warmup()
    plain = [0, 0.0]   # iterations, wall
    traced = [0, 0.0]
    start = time.perf_counter()
    while True:
        times, wall, _ = wl.iterate()
        plain[0] += len(times)
        plain[1] += wall
        tracer.phase = "loop"
        with tracing.install(tracer, ss):
            t_times, t_wall, _ = wl.iterate(tracer)
        tracer.phase = None
        traced[0] += len(t_times)
        traced[1] += t_wall
        if time.perf_counter() - start + (wall + t_wall) / 2 > seconds:
            break
    tracing.write_spans(stem + ".spans.tsv", tracer.spans)
    untraced_iter_s = plain[1] / plain[0]
    values, conv_units = tracing.layer_metrics(
        tracer.spans, setups=setups, iters=traced[0], loop_wall=traced[1],
        threads=wl.threads, train=wl.kind == "train",
        untraced_iter_s=untraced_iter_s)
    metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
               for k, v in values.items()}
    report = {"untraced_iter_s.mean": untraced_iter_s,
              "traced_iter_s.mean": traced[1] / traced[0],
              "traced_iterations": traced[0], "conv_units": conv_units,
              "spans": len(tracer.spans)}
    return report, metrics


if __name__ == "__main__":
    sys.exit(main())
