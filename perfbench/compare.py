"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by run.py (.perfbench_out/*.json)
or directories of them.  For each (workload, trace, metric) it prints the
median and quartiles of each side and the change of the medians.  It
refuses (exit 2) to compare results whose stamps differ in the kernel or
rational backend, the Python version, the CPU count or SRAK_THREADS,
since those change the timings more than most code changes do.
"""

import glob
import json
import os
import statistics
import sys

STAMP_KEYS = ("kernel_backend", "rat_backend", "python", "cpu_count", "srak_threads")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for name in files:
        if name.endswith("-spans.json"):
            continue
        with open(name, "r", encoding="utf-8") as fh:
            out.append(json.load(fh))
    if not out:
        raise SystemExit("compare: no results in %s" % path)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    stamps = {tuple((k, r["stamp"][k]) for k in STAMP_KEYS) for r in base + new}
    if len(stamps) != 1:
        sys.stderr.write("compare: refusing, the results were taken under different stamps:\n")
        for s in sorted(stamps, key=str):
            sys.stderr.write("  %s\n" % dict(s))
        return 2
    groups = {}
    for side, results in (("base", base), ("new", new)):
        for r in results:
            for metric, m in r["metrics"].items():
                key = (r["workload"], r["trace"], metric)
                groups.setdefault(key, {"base": [], "new": [], "unit": m["unit"]})[side].append(m["value"])
    print("%-8s %-32s %-6s %24s %24s %8s" % ("workload", "metric", "unit", "base q1/med/q3", "new q1/med/q3",
                                            "change"))
    for (workload, _trace, metric), g in sorted(groups.items()):
        if not g["base"] or not g["new"]:
            continue
        b, n = quartiles(g["base"]), quartiles(g["new"])
        change = "%+7.1f%%" % (100.0 * (n[1] / b[1] - 1)) if b[1] else "n/a"
        print("%-8s %-32s %-6s %24s %24s %8s (runs %d/%d)" % (
            workload, metric, g["unit"], "%.4g/%.4g/%.4g" % b, "%.4g/%.4g/%.4g" % n, change,
            len(g["base"]), len(g["new"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
