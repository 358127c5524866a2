"""Pure metric arithmetic for perfbench: percentiles, the capacity ladder,
span self times, ingest stalls and the Chrome trace export.

Everything here works on the raw object svabench writes, so it can be
unit-tested without building or running the program.
"""

import math
import statistics

# A timing is reported as its median and the highest of these percentiles
# that has at least MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
MIN_BEYOND = 10

# The capacity ladder: a rung passes when its tail latency stays under the
# interactive limit and its backlog does not grow.
LATENCY_LIMIT_MS = 25.0
BATCH_MAX = 16  # serve::ServeOptions::batch_max, the server's batch size

# A run whose generator submitted this late (at its tail) is invalid: the
# offered load was lower than planned, so its latencies would flatter.
LAG_LIMIT_MS = 10.0

# On build, the traced stage spans must account for at least this share of
# the untraced Engine::run wall in at least one rep pair, or the stage
# composition has drifted from Engine::run.  Single pairs scatter by about
# 5% on a shared 4-core host, so one slow rep must not fail the run; an
# Engine::run doing 5% more work than its stages fails every pair.
COVERAGE_MIN = 0.95


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value, n) for the highest TAIL_PERCENTILES entry with at
    least MIN_BEYOND samples beyond it.  With too few samples for any of
    them the maximum is returned, labelled as the 100th percentile."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        return (100.0, 0.0, 0)
    for p in TAIL_PERCENTILES:
        k = max(1, math.ceil(p / 100.0 * n))  # nearest rank
        if n - k >= MIN_BEYOND:
            return (p, s[k - 1], n)
    return (100.0, s[-1], n)


def phase_latencies_ms(phase, swept_only=False):
    """Latency of each answered query of an open-loop phase, timed from its
    planned send time (query i was due i / rate seconds in).  With
    swept_only, queries answered from the cache at submit are left out."""
    rate = phase["rate"]
    return [(done - i / rate) * 1e3
            for i, (done, hit) in enumerate(zip(phase["done_s"], phase["hit"]))
            if done is not None and not (swept_only and hit)]


def backlog_at_end(phase):
    """Queries sent during the phase but not answered by its end."""
    end = phase["duration_s"]
    return sum(1 for d in phase["done_s"] if d is None or d > end)


def rung_passes(phase, limit_ms=LATENCY_LIMIT_MS, batch_max=BATCH_MAX):
    """A ladder rung passes when every query was answered, the tail stays
    under the limit, and the backlog left at its end is no more than the
    queries that may legitimately be in flight (Little's law at the
    limit, plus one batch)."""
    if any(d is None for d in phase["done_s"]):
        return False
    lat = phase_latencies_ms(phase)
    if not lat or tail(lat)[1] >= limit_ms:
        return False
    return backlog_at_end(phase) <= phase["rate"] * limit_ms / 1e3 + batch_max


def slo_qps(rungs, limit_ms=LATENCY_LIMIT_MS, batch_max=BATCH_MAX):
    """Highest ladder rate below the first failing rung (0 if the lowest
    rung already fails)."""
    best = 0.0
    for phase in sorted(rungs, key=lambda p: p["rate"]):
        if not rung_passes(phase, limit_ms, batch_max):
            break
        best = phase["rate"]
    return best


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """span id -> self time (same unit as the spans): the span's duration
    minus the part of it that its children cover."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered = union_length(
            (max(lo, c["start_us"]), min(hi, c["end_us"]))
            for c in children.get(s["id"], []))
        out[s["id"]] = (hi - lo) - covered
    return out


def coverage_pairs(spans, root_name, walls):
    """(wall, covered) per traced root span named root_name: the untraced
    wall of the same rep (walls[req - 1], seconds) and the time the
    root's children cover (seconds)."""
    selfs = self_times(spans)
    return [(walls[s["req"] - 1], (s["end_us"] - s["start_us"] - selfs[s["id"]]) / 1e6)
            for s in spans if s["name"] == root_name]


def span_table(spans):
    """name -> {count, total_us, self_us, median_us} over all spans."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total_us": 0.0,
                                           "self_us": 0.0, "durs": []})
        dur = s["end_us"] - s["start_us"]
        row["count"] += 1
        row["total_us"] += dur
        row["self_us"] += selfs[s["id"]]
        row["durs"].append(dur)
    for row in table.values():
        row["median_us"] = median(row.pop("durs"))
    return table


def longest_stall_ms(done_s, intervals):
    """Longest gap between consecutive query completions that overlaps one
    of the (start, end) intervals (seconds); 0 when nothing overlaps."""
    times = sorted(t for t in done_s if t is not None)
    worst = 0.0
    for a, b in zip(times, times[1:]):
        if any(a < end and b > start for start, end in intervals):
            worst = max(worst, b - a)
    return worst * 1e3


def chrome_trace(spans, meta):
    """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)."""
    selfs = self_times(spans)
    events = []
    for s in spans:
        events.append({
            "name": s["name"],
            "cat": s["name"].split(".")[0],
            "ph": "X",
            "ts": s["start_us"],
            "dur": s["end_us"] - s["start_us"],
            "pid": 1,
            "tid": s["tid"],
            "args": {"id": s["id"], "parent": s["parent"], "req": s["req"],
                     "self_us": selfs[s["id"]]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
