#!/usr/bin/env python3
"""Normalize and compare google-benchmark JSON output (stdlib only).

Usage:
  bench_baseline.py normalize <raw.json>
      Print a normalized baseline document to stdout: per-benchmark
      items/s and wall time in ns, rounded to 3 significant digits, plus the
      host the run came from (nproc, build type, compiler). Everything else
      about the machine (host name, date, CPU scaling) is stripped, so the
      committed BENCH_engine.json diffs only when performance or the host
      moves.

  bench_baseline.py compare <baseline.json> <raw.json> [threshold]
      Compare a fresh run against the committed baseline. Exits 3 without
      comparing if the two runs come from different hosts (the baseline's
      host is missing, or any of nproc, build type and compiler differs):
      micro numbers from another host say nothing about this change.
      Otherwise prints one line per benchmark with the items/s ratio and
      exits 2 if any benchmark's items/s dropped by more than `threshold`
      (default 0.25, i.e. 25%), 0 if none did. Intended for the warn-only
      --bench leg of check.sh.
"""

import json
import sys

_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

HOST_MISMATCH = 3


def _sig3(x):
    return float(f"{x:.3g}")


def _load(path):
    with open(path) as f:
        return json.load(f)


def _iterations(raw):
    for b in raw.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) when repetitions are used.
        if b.get("run_type", "iteration") != "iteration":
            continue
        yield b


def host(raw):
    """The host context micro_engine reports (bench/micro_engine.cc main)."""
    context = raw.get("context", {})
    return {"nproc": context.get("num_cpus"),
            "build_type": context.get("flint_build_type"),
            "compiler": context.get("flint_compiler")}


def normalize(raw):
    benchmarks = {}
    for b in _iterations(raw):
        entry = {"real_time_ns": _sig3(b["real_time"] * _NS.get(b.get("time_unit", "ns"), 1.0))}
        if "items_per_second" in b:
            entry["items_per_second"] = _sig3(b["items_per_second"])
        benchmarks[b["name"]] = entry
    return {"schema": 2, "host": host(raw), "benchmarks": benchmarks}


def host_mismatch(baseline, raw):
    """Returns why the two runs are not comparable, or None if they are."""
    base_host = baseline.get("host")
    cur_host = host(raw)
    if base_host is None:
        return "baseline records no host"
    diffs = ["%s %s vs %s" % (k, base_host.get(k), cur_host.get(k))
             for k in sorted(cur_host) if base_host.get(k) != cur_host.get(k)]
    return "; ".join(diffs) if diffs else None


def compare(baseline, raw, threshold):
    current = normalize(raw)["benchmarks"]
    regressions = []
    for name, base in sorted(baseline.get("benchmarks", {}).items()):
        base_ips = base.get("items_per_second")
        cur_ips = current.get(name, {}).get("items_per_second")
        if not base_ips:
            continue
        if not cur_ips:
            print(f"  {name}: missing from current run")
            continue
        ratio = cur_ips / base_ips
        flag = ""
        if ratio < 1.0 - threshold:
            flag = f"  <-- regression (>{threshold:.0%} below baseline)"
            regressions.append(name)
        print(f"  {name}: {ratio:.2f}x baseline items/s{flag}")
    return regressions


def main(argv):
    if len(argv) >= 2 and argv[0] == "normalize":
        json.dump(normalize(_load(argv[1])), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if len(argv) >= 3 and argv[0] == "compare":
        threshold = float(argv[3]) if len(argv) > 3 else 0.25
        baseline, raw = _load(argv[1]), _load(argv[2])
        mismatch = host_mismatch(baseline, raw)
        if mismatch is not None:
            print(f"HOST MISMATCH: not comparing against {argv[1]} ({mismatch})")
            return HOST_MISMATCH
        regressions = compare(baseline, raw, threshold)
        if regressions:
            print(f"{len(regressions)} benchmark(s) regressed beyond {threshold:.0%}")
            return 2
        return 0
    sys.stderr.write(__doc__)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
