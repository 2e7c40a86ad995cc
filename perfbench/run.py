"""srak benchmark: seeded workloads, answer checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload pbw --seed 1 --seconds 25 --trace 0

Workloads: pbw, center, scan, be_iso (see NOTES.md), or ``all`` for the
four in turn.  One closed-loop client in one process: each job runs to its
verdict before the next starts.  ``--trace 0`` runs as many passes of
the workload's jobs as take ``--seconds`` at the workload's nominal pass
time (at least one) and prints the end-to-end metrics;
``setup_s`` comes from fresh interpreters running setup_probe.py.
``--trace 1`` runs pass 0 once untraced and once traced, and prints the
per-layer metrics of the traced pass.  Every answer is checked; the last
line of stdout is one JSON object (correct, attempted, failed, metrics),
and the exit code is 1 when any check failed.  A copy of the result,
stamped with the backends and machine, goes to .perfbench_out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES_BEFORE = 3  # cold set-ups before the first pass
SETUP_PROBES_MIN = 5
SETUP_PROBE_EVERY_S = 1.5  # at most one more after each job, this far apart
WORKLOAD_NAMES = ("pbw", "center", "scan", "be_iso")
TRACED_MODULES = ("srak.coeffs", "srak.coeffs._kernel", "srak.groups", "srak.sra", "srak.linalg",
                  "srak.cherednik", "srak.centralizer", "srak.completion", "srak.report")


def srak_sources():
    """The srak package directory of this checkout; exits when there is none."""
    path = os.path.join(SRC, "srak")
    if not os.path.isfile(os.path.join(path, "__init__.py")):
        raise SystemExit("perfbench: no srak sources under %s" % SRC)
    return path


def import_srak():
    """Import srak from this checkout's sources; returns the seconds taken."""
    srak_sources()
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import srak.cli  # noqa: F401  (the whole package: cli imports every layer)
    took = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(sys.modules["srak"].__file__))
    if where != os.path.join(SRC, "srak"):
        raise SystemExit("perfbench: imported srak from %s, not from %s" % (where, SRC))
    return took


def cache_bytecode():
    """Byte-compile srak's sources next to them (``__pycache__``), so that
    this process and the set-up probes read bytecode, as the user of an
    installed package does, whether or not this environment writes bytecode
    on import (PYTHONDONTWRITEBYTECODE); otherwise ``setup_s`` would time
    compiling.  A separate interpreter compiles, so that compiling does not
    count in this process's ``peak_rss_mb``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", srak_sources()], check=True, timeout=120)


def stamp(srak_threads):
    from srak import __version__
    from srak.coeffs import KERNEL_BACKEND, RAT_BACKEND

    return {"srak_version": __version__, "kernel_backend": KERNEL_BACKEND, "rat_backend": RAT_BACKEND,
            "python": platform.python_version(), "cpu_count": os.cpu_count(), "srak_threads": srak_threads}


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_pass(workload, seed, index, built, golden, tracer=None, between=None):
    """Run one pass; returns (wall seconds, job latencies, [(job key, problems)]).

    Each answer is checked as soon as its job ends, so that no pass holds
    all its answers, and the pass clock stops while the benchmark checks
    and while ``between()``, if given, runs after each job.
    Garbage left by earlier passes is collected first, outside the timing,
    so that each pass starts from the same heap, as a fresh process would.
    """
    gc.collect()
    latencies, checked = [], []
    untimed = 0.0
    first = time.perf_counter()
    for n, job in enumerate(workload.pass_jobs(seed, index, built, golden)):
        if tracer is not None:
            tracer.job = "p%dj%d" % (index, n)
        start = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception:  # a crashing job is a failed job, the loop goes on
            out, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        latencies.append(end - start)
        if error is None:
            try:
                problems = job.check(out)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=3)]
        else:
            problems = ["raised: " + error]
        checked.append((job.key, problems))
        if between is not None:
            between()
        untimed += time.perf_counter() - end
    return time.perf_counter() - first - untimed, latencies, checked


def timed_run(workload, seed, seconds, built, golden):
    """``seconds`` of passes at the workload's nominal pass time, at least one.

    The pass count comes from a fixed nominal time, not from the clock, so
    that both sides of a comparison (and a fast and a slow spell of a shared
    host) run the same passes.  The set-up probes are spread over the run.
    """
    probes = SetupProbes(workload.name)
    for _ in range(SETUP_PROBES_BEFORE):
        probes.probe()
    walls, latencies, checked = [], [], []
    for index in range(max(1, int(seconds // workload.nominal_pass_s))):
        wall, lat, chk = run_pass(workload, seed, index, built, golden, between=probes.maybe)
        walls.append(wall)
        latencies += lat
        checked += chk
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "job_s.p50": (statistics.median(latencies), "s", len(latencies)),
        "job_s.p90": (percentile(latencies, 90), "s", len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "setup_s": probes.finish(),
    }
    return metrics, checked


def traced_run(workload, seed, built, golden):
    from tracing import Tracer

    untraced, _, checked = run_pass(workload, seed, 0, built, golden)
    tracer = Tracer()
    tracer.install({name: sys.modules[name] for name in TRACED_MODULES})
    try:
        traced, _, checked_traced = run_pass(workload, seed, 0, built, golden, tracer)
        cache_entries = tracer.cache_entries()
    finally:
        tracer.uninstall()
    tracer.release_algebras()
    raw = tracer.metrics(traced, untraced, cache_entries)
    metrics = {name: (value, unit, 1) for name, (value, unit) in raw.items()}
    return metrics, tracer.shares(traced), checked + checked_traced, tracer


class SetupProbes:
    """Cold set-ups of a workload: fresh interpreters that import srak and
    build the workload's groups and algebras once, as a user pays it.

    A few run before the first pass and, after each job, one more if
    SETUP_PROBE_EVERY_S have passed since the last, so that the median
    spans the run rather than one moment of a shared host.
    """

    def __init__(self, name):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), name]
        self.times = []
        self.last = 0.0

    def probe(self):
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(done.stdout))
        self.last = time.perf_counter()

    def maybe(self):
        if time.perf_counter() - self.last >= SETUP_PROBE_EVERY_S:
            self.probe()

    def finish(self):
        """(median seconds, samples), topped up to SETUP_PROBES_MIN."""
        while len(self.times) < SETUP_PROBES_MIN:
            self.probe()
        return statistics.median(self.times), "s", len(self.times)


def run_workload(name, seed, seconds, trace, srak_threads):
    import workloads as W

    workload = W.WORKLOADS[name]()
    golden = W.load_golden().get(name, {})
    built = workload.build()
    tracer, shares = None, None
    if trace:
        metrics, shares, checked, tracer = traced_run(workload, seed, built, golden)
    else:
        metrics, checked = timed_run(workload, seed, seconds, built, golden)
    failed = [(key, problems) for key, problems in checked if problems]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "stamp": stamp(srak_threads),
              "attempted": len(checked), "failed": len(failed), "failures": failed[:20],
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}}
    if shares is not None:
        result["self_time_shares"] = shares
    return result, tracer


def print_result(result):
    out = sys.stdout
    st = result["stamp"]
    out.write("workload %s seed %d trace %d | kernel=%s rat=%s python=%s cpus=%s SRAK_THREADS=%s\n" % (
        result["workload"], result["seed"], result["trace"], st["kernel_backend"], st["rat_backend"],
        st["python"], st["cpu_count"], st["srak_threads"]))
    for name, m in result["metrics"].items():
        value = "%14d" % m["value"] if isinstance(m["value"], int) else "%14.6g" % m["value"]
        out.write("  %-32s %s %-6s (n=%d)\n" % (name, value, m["unit"], m["samples"]))
    out.write("  %-32s %14.6g %-6s (n=%d)\n" % ("error_rate", result["failed"] / result["attempted"], "ratio",
                                                result["attempted"]))
    if "self_time_shares" in result:
        out.write("  self-time shares of the traced pass: %s\n" % ", ".join(
            "%s %.1f%%" % (layer, 100 * share) for layer, share in
            sorted(result["self_time_shares"].items(), key=lambda kv: -kv[1])))
    for key, problems in result["failures"]:
        out.write("  FAILED %s: %s\n" % (key, "; ".join(p.strip() for p in problems)))


def write_out(result, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (result["workload"], result["seed"], result["trace"]))
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.dump(base + "-spans.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one client, one process: a set SRAK_THREADS would start a scan pool
    srak_threads = os.environ.pop("SRAK_THREADS", None)
    cache_bytecode()
    import_srak()
    chosen = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in chosen:
        result, tracer = run_workload(name, args.seed, args.seconds, args.trace, srak_threads)
        print_result(result)
        write_out(result, tracer)
        results.append(result)
    prefix = len(results) > 1
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(r["workload"] + "." if prefix else "") + k: {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }
    sys.stdout.write(json.dumps(line) + "\n")
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
