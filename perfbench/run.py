#!/usr/bin/env python3
"""The annulus benchmark: named workloads, end to end and per layer.

One run, as the benchmark contract has it (from the repository root):

    python3 perfbench/run.py --workload horizontal-p5 --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with no instrumentation.
`--trace 1` runs one pass untraced and the same pass again traced, prints the
per-layer metrics and the tracing overhead, and writes the spans to
`.perfbench/spans/`. Either way the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Every
call's output is compared with an expected answer the library does not
compute (see workloads.py); a call that raises or differs counts as failed.

Every workload, several seeds, one table of every metric with its unit:

    python3 perfbench/run.py --all --runs 10 --out .perfbench/base.jsonl

Two such result files, metric by metric, against the bounds in
BENCHMARK.json:

    python3 perfbench/run.py --compare .perfbench/base.jsonl .perfbench/new.jsonl

Runs are single-threaded, on the pure-Python scalar kernel, in a closed loop
(the next call starts when the last one returns). A run makes whole passes
over its workload's job while another is expected to end within --seconds.

End-to-end metrics (`--trace 0`):
  wall_s       time of the job's calls, median over the run's passes
  call_p50_ms  median per-call latency over every call of the run
  call_p90_ms  90th percentile of the same; every job has >= 100 calls
  setup_s      import annulus + load the golden table + one warm-up call,
               median of SETUP_REPEATS fresh interpreters
  peak_rss_mb  peak resident memory of the run's process
Failed calls over calls attempted are the `failed` and `attempted` fields.
Times are rescaled to a nominal machine speed; see PROBE_NOMINAL_S.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
os.environ["ANNULUS_PURE"] = "1"

from workloads import WORKLOADS, Context, Golden, canonical, digest  # noqa: E402


def _require_source() -> None:
    if not (SRC / "annulus" / "__init__.py").is_file():
        sys.exit(f"perfbench: no annulus source at {SRC}")


# --------------------------------------------------------------------------
# Machine speed
# --------------------------------------------------------------------------

# On a shared two-vCPU virtual machine (Xeon, 2.0 GHz) the interpreter ran
# up to 1.5x slower for seconds at a time, which moved raw job times by
# 15-30% between runs. So a fixed probe loop runs before and after every
# call (at most every PROBE_EVERY_S), and each time is rescaled to the speed
# at which the probe takes PROBE_NOMINAL_S. The probe is the benchmark's own
# copy of an exact cyclotomic product, so no library change moves it.
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 0.002


def _cyclotomic_product(a, b):
    """a * b in Z[x] / (1 + x + x^2 + x^3 + x^4), coefficients of 1..x^3."""
    acc = [0, 0, 0, 0]
    extra = 0
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            e = (i + j) % 5
            if e < 4:
                acc[e] += ai * bj
            else:
                extra += ai * bj
    return tuple(c - extra for c in acc)


def speed_probe() -> float:
    """Seconds the fixed probe loop takes right now; the collector is off so
    that no collection of the library's garbage lands in the probe."""
    gc.disable()
    try:
        start = time.perf_counter()
        a, b = (1, 2, 0, -1), (3, -1, 2, 1)
        seen = {}
        for i in range(400):
            a = tuple(c % 1009 for c in _cyclotomic_product(a, b))
            seen[a] = i
        return time.perf_counter() - start
    finally:
        gc.enable()


def rescale(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time taken between two probes, at the nominal probe speed."""
    return seconds * 2 * PROBE_NOMINAL_S / (probe_before + probe_after)


# --------------------------------------------------------------------------
# Set-up: import, golden table, one warm-up call
# --------------------------------------------------------------------------


def setup_probe(name: str) -> None:
    """Time what every CLI invocation pays before its first answer."""
    golden = Golden()
    before = speed_probe()
    start = time.perf_counter()
    from annulus import fusion

    ctx = Context(golden, fusion.load_golden_associators())
    _warm_up(WORKLOADS[name].warmup(ctx))
    elapsed = time.perf_counter() - start
    print(repr(rescale(elapsed, before, speed_probe())))


def _warm_up(call) -> None:
    """Run a call once untimed; a wrong answer shows in the timed passes."""
    try:
        call.run()
    except Exception as exc:  # the passes count this call's failures
        print(f"warm-up call {call.key} raised {exc!r}", file=sys.stderr)


def measure_setup(name: str) -> float:
    """Median over fresh interpreters, so that imports are really paid."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             name], capture_output=True, text=True, cwd=ROOT, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# --------------------------------------------------------------------------
# Passes over a job
# --------------------------------------------------------------------------


class Pass:
    """One job run to the end.

    latencies are per call, rescaled to the nominal probe speed; wall_s is
    their sum, raw_wall_s the same sum as the clock read it.
    """

    def __init__(self, calls, rec=None):
        self.failures: list[str] = []
        digests = []
        raw, segment, probes = [], [], [speed_probe()]
        gc.collect()
        last_probe = time.perf_counter()
        for i, call in enumerate(calls):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                last_probe = time.perf_counter()
            segment.append(len(probes) - 1)
            t0 = time.perf_counter()
            try:
                if rec is None:
                    out = call.run()
                else:
                    rec.call_id = i
                    out = rec.span("bench.call", call.run)
            except Exception as exc:  # a failed call is counted, not fatal
                out = f"{type(exc).__name__}: {exc}"
            raw.append(time.perf_counter() - t0)
            text = canonical(out)
            digests.append(f"{call.key} {digest(text)}")
            if text != call.expected:
                self.failures.append(f"{call.key}: {text[:200]}")
        probes.append(speed_probe())
        self.latencies = [rescale(t, probes[s], probes[s + 1])
                          for t, s in zip(raw, segment)]
        self.wall_s = sum(self.latencies)
        self.raw_wall_s = sum(raw)
        self.digest = digest("\n".join(sorted(digests)))


def run_passes(name: str, rng, ctx, seconds: float) -> list[Pass]:
    """Whole passes, each on freshly drawn inputs, for as long as another
    pass is expected to end within `seconds`; at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(Pass(WORKLOADS[name].build(rng, ctx)))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].raw_wall_s > seconds:
            return passes


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args) -> dict:
    import annulus

    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "kernel_backend": annulus.kernel_backend(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "commit": _git_commit(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def single_run(args) -> int:
    import tracing

    name = args.workload[0]
    setup_s = measure_setup(name) if not args.trace else None
    from annulus import fusion

    ctx = Context(Golden(), fusion.load_golden_associators())
    _warm_up(WORKLOADS[name].warmup(ctx))
    meta = _metadata(args)
    units = {m["name"]: m["unit"] for m in
             _benchmark_spec()["per_layer" if args.trace else "end_to_end"]}

    if not args.trace:
        passes = run_passes(name, random.Random(args.seed), ctx, args.seconds)
        latencies = [x for p in passes for x in p.latencies]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "call_p50_ms": deciles[4] * 1e3,
            "call_p90_ms": deciles[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        plain = Pass(WORKLOADS[name].build(random.Random(args.seed), ctx))
        rec = tracing.Recorder()
        remove = tracing.instrument(rec)
        try:
            traced = Pass(WORKLOADS[name].build(random.Random(args.seed), ctx),
                          rec)
        finally:
            remove()
        passes = [plain, traced]
        # span times are rescaled by the traced pass's mean speed factor
        metrics = tracing.layer_metrics(rec, units,
                                        traced.wall_s / traced.raw_wall_s)
        metrics["trace.wall_s"] = traced.wall_s
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        spans_path = OUT_DIR / "spans" / f"{name}-seed{args.seed}.json"
        rec.write(spans_path, meta | {"workload": name})
        print(f"spans: {len(rec.spans)} written to {spans_path}")

    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "do not match BENCHMARK.json")
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    # the first pass's inputs depend on the seed alone
    run_digest = passes[0].digest
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {name}  seed {args.seed}  passes {len(passes)}  "
          f"calls {attempted}  failed {len(failures)}  "
          f"failed_frac {len(failures) / attempted:.4g}  "
          f"raw wall_s {statistics.median(p.raw_wall_s for p in passes):.4f}")
    print(f"digest {run_digest}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for metric, value in metrics.items():
        print(f"  {metric:<32} {value:>14.6g} {units[metric]}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {m: {"value": v, "unit": units[m]}
                          for m, v in metrics.items()}}
    if args.out:
        record = {"workload": name, "meta": meta, "digest": run_digest,
                  "passes": len(passes), **result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# Several runs, and comparing two sets of them
# --------------------------------------------------------------------------


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _spread(values):
    """(median, first quartile, third quartile); quartiles as
    statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def load_records(path) -> dict:
    """{(workload, trace): [record, ...]} from a result file."""
    groups: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            key = (rec["workload"], rec["meta"]["trace"])
            groups.setdefault(key, []).append(rec)
    return groups


def _values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def summarize(path) -> None:
    bounds = {m["name"]: m["bound"] for m in _benchmark_spec()["end_to_end"]}
    for (name, trace), records in sorted(load_records(path).items()):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"{name} (trace {trace}): {len(records)} runs, "
              f"failed {failed}/{attempted}")
        for metric, entry in records[0]["metrics"].items():
            values = _values(records, metric)
            med, q1, q3 = _spread(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            print(f"  {metric:<32} {med:>12.6g} {entry['unit']:<6}"
                  f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}" if bound else ""))


def run_all(args) -> int:
    """Each seed runs every chosen workload in turn, one process per run."""
    out = Path(args.out or OUT_DIR / "results.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    names = args.workload or list(WORKLOADS)
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, check=False)
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[:160]}",
                  flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    summarize(out)
    return 0


def _verdict(a, b, better, bound):
    """Runs b against runs a of one metric.

    better: every b run beats every a run, or b wins 90% of the (a, b)
    pairs and its median is ahead by more than a's quartile spread.
    worse: b's median is behind by more than `bound` (a share of a's).
    unresolved: neither, and a quartile spread is wider than `bound`.
    unchanged: none of these.
    """
    ma, qa1, qa3 = _spread(a)
    mb, qb1, qb3 = _spread(b)
    sign = 1 if better == "lower" else -1
    change = sign * (mb - ma) / ma  # > 0: b is worse
    noise = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    b_wins = sum(sign * (y - x) < 0 for x in a for y in b) / (len(a) * len(b))
    if b_wins == 1.0 and change < 0:
        return "better"
    if b_wins == 0.0 and change > bound:
        return "worse"
    if noise > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > (qa3 - qa1) / ma and b_wins >= 0.9:
        return "better"
    return "unchanged"


def compare(path_a, path_b) -> int:
    e2e = {m["name"]: m for m in _benchmark_spec()["end_to_end"]}
    a_groups, b_groups = load_records(path_a), load_records(path_b)
    for key in sorted(set(a_groups) & set(b_groups)):
        a_recs, b_recs = a_groups[key], b_groups[key]
        print(f"{key[0]} (trace {key[1]}): {len(a_recs)} vs {len(b_recs)} runs;"
              f" failed {sum(r['failed'] for r in a_recs)} vs "
              f"{sum(r['failed'] for r in b_recs)}")
        a_dig = {r["meta"]["seed"]: r["digest"] for r in a_recs}
        b_dig = {r["meta"]["seed"]: r["digest"] for r in b_recs}
        shared = set(a_dig) & set(b_dig)
        differ = sorted(s for s in shared if a_dig[s] != b_dig[s])
        print(f"  digests: {len(shared) - len(differ)} of {len(shared)} shared "
              f"seeds equal" + (f"; differ on seeds {differ}" if differ else ""))
        for metric in a_recs[0]["metrics"]:
            a, b = _values(a_recs, metric), _values(b_recs, metric)
            if not a or not b:
                continue
            ma, qa1, qa3 = _spread(a)
            mb, qb1, qb3 = _spread(b)
            unit = a_recs[0]["metrics"][metric]["unit"]
            line = (f"  {metric:<32} {unit:<6} A {ma:<11.5g}[{qa1:.5g}, "
                    f"{qa3:.5g}]  B {mb:<11.5g}[{qb1:.5g}, {qb3:.5g}]")
            spec_m = e2e.get(metric)
            if spec_m and ma:
                line += "  " + _verdict(a, b, spec_m["better"], spec_m["bound"])
            elif ma:
                line += f"  B/A {mb / ma:.3f}"
            print(line)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable with --all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run's record to this file")
    ap.add_argument("--all", action="store_true",
                    help="run every workload for --runs seeds from --seed")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result files")
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _require_source()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.all:
        return run_all(args)
    if not args.workload or len(args.workload) != 1:
        ap.error("a single run takes exactly one --workload")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
