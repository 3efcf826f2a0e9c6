#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py --base parent/*.json --change change/*.json
    python3 bench/e2e/compare.py --check-spec smoke_records.json
    python3 bench/e2e/compare.py --selftest

Each file holds one result record (run.py --out) or a list of them.
The two sets are a parent and a change, or two sets from one commit.
For every workload and end-to-end metric, both sides' median,
quartiles and run count are printed with the first verdict that
applies:

  regression    the change's median is worse than the base's by more
                than the metric's bound in BENCHMARK.json;
  unresolved    either side's spread (interquartile range over median)
                is wider than the bound, and not every change run beats
                every base run (then the verdict is "better");
  gain          the change wins at least 9/10 of the runs paired in
                order and the medians differ by more than the base's
                interquartile range;
  within bound  none of the above.

It also prints per-layer deltas from traced runs, tracing overhead
(traced trace.wall_ns_per_event over untraced wall_ns_per_event), failed runs, and any output
fingerprint that differs between runs of one workload and seed. The
exit code is 1 on a regression, an unresolved metric, a failed run or a
fingerprint mismatch.

--check-spec reads the records dpx_bench --smoke writes and checks that
every workload BENCHMARK.json names emits exactly its end-to-end metrics
untraced and its per-layer metrics traced, each with the spec's unit.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
TESTDATA = os.path.join(HERE, "testdata")


def load_records(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        records.extend(data if isinstance(data, list) else [data])
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def verdict(base, change, bound, lower_is_better):
    """Verdict for one metric; base and change are run values."""
    if not base or not change:
        return "missing"
    sign = 1.0 if lower_is_better else -1.0
    b, c = summary(base), summary(change)
    worse = sign * (c["median"] - b["median"]) / b["median"]
    better = [sign * (b_v - c_v) > 0 for b_v, c_v in zip(base, change)]
    every_better = (max(change) < min(base) if lower_is_better
                    else min(change) > max(base))
    if worse > bound:
        return "regression"
    if max(b["spread"], c["spread"]) > bound:
        return "better" if every_better else "unresolved"
    if (worse < 0 and sum(better) >= 0.9 * len(better) and
            abs(c["median"] - b["median"]) > b["q3"] - b["q1"]):
        return "gain"
    return "within bound"


def values_of(records, workload, name, traced):
    return [r["metrics"][name]["value"] for r in records
            if r["workload"] == workload and r["trace"] == traced
            and name in r["metrics"]]


def compare(spec, base, change, out=sys.stdout):
    """Print the comparison; return {(workload, metric): verdict} and
    the list of problems that make the exit code non-zero."""
    verdicts = {}
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    present = {r["workload"] for r in base + change}
    for workload in [w for w in workloads if w in present]:
        out.write("== %s\n" % workload)
        out.write("  %-18s %-6s %3s %12s %12s %12s  %s\n"
                  % ("metric", "side", "n", "median", "q1", "q3",
                     "verdict"))
        for m in spec["end_to_end"]:
            name = m["name"]
            b = values_of(base, workload, name, False)
            c = values_of(change, workload, name, False)
            v = verdict(b, c, m["bound"], m["better"] == "lower")
            verdicts[(workload, name)] = v
            if v in ("regression", "unresolved"):
                problems.append("%s %s: %s" % (workload, name, v))
            for side, vals in (("base", b), ("change", c)):
                if not vals:
                    continue
                s = summary(vals)
                note = v if side == "change" else \
                    "bound %g, spread %.1f%%" % (m["bound"],
                                                 100 * s["spread"])
                out.write("  %-18s %-6s %3d %12.6g %12.6g %12.6g  %s\n"
                          % (name, side, s["n"], s["median"], s["q1"],
                             s["q3"], note))

        for side, records in (("base", base), ("change", change)):
            traced = values_of(records, workload, "trace.wall_ns_per_event",
                               True)
            plain = values_of(records, workload, "wall_ns_per_event", False)
            if traced and plain:
                over = statistics.median(traced) / statistics.median(plain)
                out.write("  tracing overhead (%s): %+.1f%% of wall time\n"
                          % (side, 100 * (over - 1)))

        rows = []
        for m in spec["per_layer"]:
            b = values_of(base, workload, m["name"], True)
            c = values_of(change, workload, m["name"], True)
            if b and c:
                mb, mc = statistics.median(b), statistics.median(c)
                delta = (mc - mb) / mb if mb else 0.0
                rows.append((m["name"], m["unit"], mb, mc, delta))
        if rows:
            out.write("  per-layer (traced medians)\n")
            for name, unit, mb, mc, delta in rows:
                out.write("    %-34s %12.6g -> %12.6g %-5s %+7.1f%%\n"
                          % (name, mb, mc, unit, 100 * delta))

    seen = {}
    for r in base + change:
        seen.setdefault((r["workload"], r["seed"]), set()).add(
            r["outputs_fnv"])
        if not r["correct"] or r["failed"]:
            problems.append("%s seed %s: run failed its output checks"
                            % (r["workload"], r["seed"]))
    for (workload, seed), fnvs in sorted(seen.items()):
        if len(fnvs) > 1:
            problems.append("%s seed %s: outputs_fnv differs: %s"
                            % (workload, seed, " ".join(sorted(fnvs))))
    for p in problems:
        out.write("PROBLEM %s\n" % p)
    return verdicts, problems


def check_spec(spec, records, out=sys.stdout):
    """Problems with the metrics @p records emit, against @p spec."""
    problems = []
    for w in spec["workloads"]:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            runs = [r for r in records
                    if r["workload"] == w["name"] and r["trace"] == traced]
            if not runs:
                problems.append("%s: no %s record" % (w["name"], key))
            for r in runs:
                got = {n: m["unit"] for n, m in r["metrics"].items()}
                for name in sorted(set(want) - set(got)):
                    problems.append("%s: %s metric %s not emitted"
                                    % (w["name"], key, name))
                for name in sorted(set(got) - set(want)):
                    problems.append("%s: %s is not a %s metric"
                                    % (w["name"], name, key))
                for name in sorted(set(want) & set(got)):
                    if want[name] != got[name]:
                        problems.append("%s: %s has unit %s, the spec says "
                                        "%s" % (w["name"], name, got[name],
                                                want[name]))
    for p in problems:
        out.write("PROBLEM %s\n" % p)
    out.write("check-spec: %s\n" % ("FAILED" if problems else "ok"))
    return problems


def selftest():
    """Every verdict on the fixture sets under testdata/."""
    with open(os.path.join(TESTDATA, "spec.json")) as fh:
        spec = json.load(fh)
    base = load_records([os.path.join(TESTDATA, "base.json")])
    expect = {
        "base.json": ({"wall_ns_per_event": "within bound",
                       "cpu_ns_per_event": "within bound"}, 0),
        "gain.json": ({"wall_ns_per_event": "gain",
                       "cpu_ns_per_event": "within bound"}, 0),
        "regression.json": ({"cpu_ns_per_event": "regression"}, 1),
        "noisy.json": ({"wall_ns_per_event": "unresolved",
                        "cpu_ns_per_event": "better",
                        "setup_s": "regression"}, 2),
        "fingerprint.json": ({"wall_ns_per_event": "within bound"}, 1),
    }
    failed = 0
    sink = open(os.devnull, "w")
    for name, (want, problems) in sorted(expect.items()):
        change = load_records([os.path.join(TESTDATA, name)])
        got, found = compare(spec, base, change, out=sink)
        for metric, v in want.items():
            if got[("fig5", metric)] != v:
                print("FAIL %s: %s is %r, want %r"
                      % (name, metric, got[("fig5", metric)], v))
                failed += 1
        if len(found) != problems:
            print("FAIL %s: %d problems, want %d: %s"
                  % (name, len(found), problems, found))
            failed += 1
    sink.close()
    print("compare selftest: %s" % ("FAILED" if failed else "ok"))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--spec", default=SPEC)
    parser.add_argument("--check-spec", metavar="RECORDS")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    with open(args.spec) as fh:
        spec = json.load(fh)
    if args.check_spec:
        return 1 if check_spec(spec, load_records([args.check_spec])) else 0
    if not args.base or not args.change:
        parser.error("need --base and --change result files")
    _, problems = compare(spec, load_records(args.base),
                          load_records(args.change))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
