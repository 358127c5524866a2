#!/usr/bin/env python3
"""perfbench: the wall-clock benchmark of the SVA engine.

    python3 perfbench/run.py --workload build --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 12

Builds the svabench harness from source (into $CARGO_TARGET_DIR, default
.bench_build), runs one workload (or, with --all, every workload untraced
and traced), checks every answer, prints each metric with its unit and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones and writes the run's spans as Chrome trace-event JSON.
Exit status is non-zero when the build fails or any answer is wrong.
See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics as M  # noqa: E402

WORKLOADS = ("build", "build-socket", "serve", "serve-ingest")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build_harness(root):
    """Configures (once per source tree) and builds svabench; returns its
    path.  The build directory is keyed by this checkout's path, so two
    checkouts sharing one build root never build each other's sources."""
    key = hashlib.sha256(str(HERE).encode()).hexdigest()[:12]
    cmake_dir = root / f"perfbench-cmake-{key}"
    root.mkdir(parents=True, exist_ok=True)
    log_path = root / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "svabench",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-15:]
                raise RuntimeError("build failed: " + " ".join(cmd) + "\n" +
                                   "\n".join(tail))
    return cmake_dir / "svabench"


def run_harness(exe, root, workload, seed, seconds, trace, extra):
    work = root / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "raw.json"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work), "--out", str(out)] + extra
    try:
        proc = subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"svabench exited with status {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---- metrics -------------------------------------------------------------------


def nominal_phases(raw, traced=None):
    return [p for p in raw["phases"] if p["name"] == "nominal"
            and (traced is None or p["traced"] == traced)]


def request_latencies_ms(raw, swept_only=False):
    """The workload's requests: queries at the nominal rate (timed from
    their planned send; with swept_only, cache hits left out) or, on the
    build workloads, whole builds."""
    if raw["phases"]:
        return ([x for p in nominal_phases(raw) for x in M.phase_latencies_ms(p, swept_only)],
                ("swept (not cache-hit) " if swept_only else "") +
                "query at the nominal rate, from its planned send time")
    return ([s * 1e3 for s in raw["build_s"]],
            "Engine::run with bundle export, closed loop")


def cache_hit_ratio(raw):
    """Share of the answered nominal-rate queries that submit() answered
    from the cache."""
    hits = [h for p in nominal_phases(raw) for d, h in zip(p["done_s"], p["hit"])
            if d is not None]
    return sum(hits) / len(hits) if hits else 0.0


def end_to_end(raw):
    """The end-to-end metrics (every workload reports every one)."""
    lat, what = request_latencies_ms(raw)
    setup = ("corpus generation + bundle build + Server::start" if raw["phases"]
             else "corpus generation")
    out = {"setup_s": M.median(raw["setup_s"]),
           "latency_p50_ms": M.median(lat),
           "peak_rss_mb": raw["peak_rss_kb"] / 1024.0}
    notes = {"setup_s": f"median of {len(raw['setup_s'])} set-ups: {setup}",
             "latency_p50_ms": f"median of n={len(lat)}; {what}"}
    return out, notes


def figures(raw):
    """The workload's headline figures beyond the bounded metrics: the
    latency tail, build throughput, and the serving figures (query
    percentiles, capacity, ingest time)."""
    out, notes, units = {}, {}, {}
    lat, _ = request_latencies_ms(raw)
    p, v, n = M.tail(lat)
    out["latency_tail_ms"], units["latency_tail_ms"] = v, "ms"
    notes["latency_tail_ms"] = (f"p{p:g} of n={n} (>= {M.MIN_BEYOND} beyond)" if p < 100
                                else f"max of n={n} (too few samples for a percentile)")
    out["build_mb_s"], units["build_mb_s"] = raw["build_mib"] / M.median(raw["build_s"]), "MiB/s"
    notes["build_mb_s"] = (f"{raw['build_mib']:.1f} MiB / median of {len(raw['build_s'])} "
                           f"Engine::run walls at P={raw['build_procs']}" +
                           (" (set-up builds)" if raw["phases"] else ""))
    if raw["phases"]:
        out["query_p50_ms"], units["query_p50_ms"] = M.median(lat), "ms"
        out[f"query_p{p:g}_ms"], units[f"query_p{p:g}_ms"] = v, "ms"
        notes[f"query_p{p:g}_ms"] = f"n={n}"
        swept, what = request_latencies_ms(raw, swept_only=True)
        out["swept_p50_ms"], units["swept_p50_ms"] = M.median(swept), "ms"
        notes["swept_p50_ms"] = f"median of n={len(swept)}; {what}"
        out["cache_hit_ratio"], units["cache_hit_ratio"] = cache_hit_ratio(raw), "ratio"
        notes["cache_hit_ratio"] = "answered from the cache at submit"
    rungs = [ph for ph in raw["phases"] if ph["name"] == "ladder"]
    if rungs:
        out["slo_qps"], units["slo_qps"] = M.slo_qps(rungs), "q/s"
        notes["slo_qps"] = (f"ladder {[int(r['rate']) for r in rungs]} q/s, "
                            f"tail < {M.LATENCY_LIMIT_MS:g} ms, no growing backlog")
    if raw["ingest_s"]:
        out["ingest_s"], units["ingest_s"] = M.median(raw["ingest_s"]), "s"
        notes["ingest_s"] = f"median of {len(raw['ingest_s'])} Server::ingest calls"
    return out, notes, units


def generator_lag(raw):
    lags = [x for p in raw["phases"] for x in p["lag_ms"]]
    return M.tail(lags) if lags else (100.0, 0.0, 0)


def per_layer(raw):
    """The per-layer metrics of a traced run (zero where the workload does
    not run that layer)."""
    spans = raw["spans"]
    table = M.span_table(spans)
    samples = raw["samples"]
    counters = raw["counters"]

    def span_med_s(name):
        durs = [s["end_us"] - s["start_us"] for s in spans if s["name"] == name]
        return M.median(durs) / 1e6

    def sample(name):
        return M.median(samples.get(name, []))

    roots = [s for s in spans if s["name"] == "engine.run"]
    # What the stage spans of traced rep r cover, against the real
    # Engine::run: untraced rep r, run just before it, so that a slow
    # spell of the host slows both alike.
    pairs = M.coverage_pairs(spans, "engine.run", raw["build_s"])
    out = {
        "corpus.fetches_per_doc": sample("corpus.fetches") / raw["docs"],
        "corpus.fetch_ms": sample("corpus.fetch_ms"),
        "engine.ingest_s": span_med_s("engine.ingest"),
        "text.scan_modeled_s": sample("text.scan_modeled_s"),
        "index.invert_modeled_s": sample("index.invert_modeled_s"),
        "text.occurrences": sample("text.occurrences"),
        "sig.stage_s": span_med_s("sig.stage"),
        "sig.rounds": sample("sig.rounds"),
        "cluster.kmeans_s": span_med_s("cluster.kmeans"),
        "cluster.iterations": sample("cluster.iterations"),
        "cluster.projection_s": span_med_s("cluster.projection"),
        "engine.export_s": span_med_s("engine.export"),
        "engine.bundle_mb": sample("engine.bundle_mb"),
        "engine.other_s": M.median([w - c for w, c in pairs]),
        "engine.span_coverage": M.median([c / w for w, c in pairs]),
    }
    for name in ("ga.barrier_us", "ga.allreduce_64k_us", "ga.window_gather_us",
                 "ga.spmd_launch_ms", "query.open_ms", "query.sweep_b1_ms",
                 "query.sweep_b16_ms", "engine.delta_s", "serve.cache_hits",
                 "serve.cache_misses", "serve.cache_invalidations",
                 "serve.world_failures", "serve.respawns", "serve.expired"):
        out[name] = counters.get(name, 0.0)

    def ratio(num, den):
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

    out["serve.batch_mean"] = ratio("serve.queries_swept", "serve.sweeps")
    out["serve.size_flush_ratio"] = ratio("serve.size_flushes", "serve.batches")
    hits, misses = counters.get("serve.cache_hits", 0), counters.get("serve.cache_misses", 0)
    out["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    figs, _, _ = figures(raw)
    out["latency_tail_ms"] = figs["latency_tail_ms"]
    out["build_mb_s"] = figs["build_mb_s"]
    out["serve.slo_qps"] = figs.get("slo_qps", 0.0)
    out["serve.ingest_s"] = figs.get("ingest_s", 0.0)
    # Stalls of the serving world: cache hits keep completing meanwhile.
    out["serve.stall_ms"] = max(
        (M.longest_stall_ms([d for d, hit in zip(p["done_s"], p["hit"]) if not hit],
                            [(s, e) for s, e in zip(p["ingest_start_s"], p["ingest_end_s"])
                             if e is not None])
         for p in raw["phases"]), default=0.0)
    out["gen.lag_p99_ms"] = generator_lag(raw)[1]

    # Tracing overhead: traced over untraced, same work, same run.
    if raw["phases"]:
        traced = [(s["end_us"] - s["start_us"]) / 1e3 for s in spans
                  if s["name"] == "serve.query"]
        untraced = [x for p in nominal_phases(raw, traced=False)
                    for x in M.phase_latencies_ms(p)]
    else:
        traced = [(s["end_us"] - s["start_us"]) / 1e6 for s in roots]
        untraced = raw["build_s"]
    out["trace.overhead_ratio"] = (M.median(traced) / M.median(untraced)
                                   if traced and untraced else 0.0)
    return out, table


# ---- reporting -----------------------------------------------------------------


def load_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_rows(title, values, units, notes=None):
    print(title)
    for name, v in values.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<26} {fmt(v):>12} {units.get(name, ''):<7} {note}")


def measure(exe, root, workload, seed, seconds, trace, extra):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    e2e_units, layer_units = load_catalog()
    raw = run_harness(exe, root, workload, seed, seconds, trace, extra)
    problems = list(raw["errors"])
    p, lag, n = generator_lag(raw)
    if n and lag > M.LAG_LIMIT_MS:
        problems.append(f"invalid run: the generator fell behind "
                        f"(p{p:g} lag {lag:.2f} ms > {M.LAG_LIMIT_MS:g} ms)")
    if trace:
        values, table = per_layer(raw)
        pairs = M.coverage_pairs(raw["spans"], "engine.run", raw["build_s"])
        best = max(c / w for w, c in pairs)
        if workload == "build" and best < M.COVERAGE_MIN:
            problems.append(f"stage spans cover at most {best:.3f} of the untraced "
                            f"Engine::run in every rep pair (< {M.COVERAGE_MIN:g})")
    correct = raw["failed"] == 0 and raw["oracle_mismatches"] == 0 and not problems

    print(f"== {workload}  seed={seed} seconds={seconds} trace={int(trace)}  "
          f"cores={raw['cores']} P(build)={raw['build_procs']} docs={raw['docs']}")
    print(f"  oracle: {raw['oracle_checked']} answers checked, "
          f"{raw['oracle_mismatches']} wrong; attempted={raw['attempted']} "
          f"failed={raw['failed']} failed_ratio={raw['failed'] / raw['attempted']:.6g}")
    for msg in problems:
        print(f"  ERROR {msg}")
    if trace:
        units = layer_units
        print_rows("per-layer metrics (traced run):", values, units)
        print("span table (self time = duration minus child spans):")
        for name, row in sorted(table.items()):
            print(f"  {name:<22} n={row['count']:<6} median={row['median_us'] / 1e3:10.3f} ms"
                  f"  total={row['total_us'] / 1e6:8.3f} s  self={row['self_us'] / 1e6:8.3f} s")
        traces = root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{workload}-seed{seed}.json"
        path.write_text(json.dumps(M.chrome_trace(raw["spans"], {
            "workload": workload, "seed": seed, "cores": raw["cores"]})))
        print(f"  chrome trace: {path}")
    else:
        values, notes = end_to_end(raw)
        units = e2e_units
        print_rows("end-to-end metrics:", values, units, notes)
        figs, fnotes, funits = figures(raw)
        print_rows("figures (not bounded):", figs, funits, fnotes)
    print(f"  timeline: {raw['timeline']}")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return correct, raw["attempted"], raw["failed"], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller inputs for the benchmark's own tests.
    ap.add_argument("--size-mb", type=float)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one answer before the oracle (must fail the run)")
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload or --all")

    extra = [] if args.size_mb is None else ["--size-mb", str(args.size_mb)]
    if args.corrupt:
        extra.append("--corrupt")

    try:
        root = build_root()
        exe = build_harness(root)
        runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.all
                else [(args.workload, bool(args.trace))])
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload, trace in runs:
            c, a, f, m = measure(exe, root, workload, args.seed, args.seconds, trace, extra)
            correct, attempted, failed = correct and c, attempted + a, failed + f
            if args.all:
                metrics.update({f"{workload}/{k}": v for k, v in m.items()})
            else:
                metrics = m
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
