"""Record the report bytes the regression guard compares against.

    python3 perfbench/record_golden.py [--workload NAME ...]

Runs every input of each chosen workload's pool once, checks the answer
against the oracles, and stores a digest of its report (for ``scan``,
the per-value check records) in golden.json, keeping the entries of the
workloads not chosen.  Run it only on a commit whose reports are known to
be right; it refuses to record an answer that fails an oracle.
"""

import argparse
import json
import os
import sys

import run


def record(name):
    import workloads as W

    if name == "pbw":
        wl = W.Pbw()
        _, _, alg = wl.build()
        out = {}
        for i in range(len(wl.pool)):
            left, associative = wl._job(alg, i, {}).run()
            if not associative:
                raise SystemExit("pbw triple %d is not associative" % i)
            out[str(i)] = W.digest(left.to_str())
        return out
    if name == "scan":
        code, text = W.run_cli(W.scan_argv(W.SCAN_POOL))
        report = json.loads(text)
        if code != 0:
            raise SystemExit("scan exited %r" % code)
        records = {}
        for c, rec in zip(W.SCAN_POOL, report["checks"]):
            verdict, dim = W.oracles.scan_verdict(c, W.SCAN_CUTOFF)
            if rec["data"]["c"] != str(c) or rec["data"]["verdict"] != verdict or (
                    dim is not None and rec["data"]["dim"] != dim):
                raise SystemExit("scan record for c=%s disagrees with the oracle: %s" % (c, rec["data"]))
            records[str(c)] = json.dumps(rec)  # as text: golden.json is written with sorted keys
        return {"version": report["version"], "records": records}
    if name == "center":
        wl = W.Center()
        out = {}
        for c in (None,) + W.CENTER_POOL:
            job = wl._job(c, {})
            result = job.run()
            key = "generic" if c is None else str(c)
            problems = [p for p in job.check(result) if not p.startswith("no recorded report")]
            if problems:
                raise SystemExit("center c=%s: %s" % (key, problems))
            out[key] = W.digest(result[1])
            print("center", key, out[key], flush=True)
        return out
    if name == "be_iso":
        out = {}
        for b in W.BE_POOL:
            code, text = W.run_cli(W.be_iso_argv(b))
            problems = W.be_iso_problems(code, text)
            key = ",".join(str(x) for x in b)
            if problems:
                raise SystemExit("be_iso b=%s: %s" % (key, problems))
            out[key] = W.digest(text)
            print("be_iso", key, out[key], flush=True)
        return out
    raise SystemExit("unknown workload %s" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = ap.parse_args()
    run.import_srak()
    import workloads as W

    golden = W.load_golden() if os.path.exists(W.GOLDEN_PATH) else {}
    for name in args.workload or run.WORKLOAD_NAMES:
        golden[name] = record(name)
        with open(W.GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print("recorded", name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
