"""Turn a perfbench raw report into named metrics.

The C++ driver (perfbench/cpp) only measures: it writes the timed
segments, latency samples, digests, directly measured values, and (in a
traced run) a Chrome-trace span file. Every statistic is derived here,
so the rules below have one definition and unit tests of their own
(perfbench/test_perfbench.py).
"""

import json
import re
import statistics

# Tail percentiles tried from the highest down; a percentile is reported
# only when at least MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def validate_name(name):
    """Metric names: a letter or digit, then [A-Za-z0-9_.-], <= 64."""
    if not isinstance(name, str) or not _NAME.match(name):
        raise BenchError(f"invalid metric name {name!r}")
    return name


def validate_unit(unit):
    if not isinstance(unit, str) or not _UNIT.match(unit):
        raise BenchError(f"invalid unit {unit!r}")
    return unit


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty sample."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond
    it, or None when even the median has fewer."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def require_tail(values, pct, what):
    """The pct percentile of values, refusing unsupported tails."""
    best = tail_percentile(len(values))
    if best is None or best < pct:
        raise BenchError(
            f"{what}: p{pct:g} needs {int(MIN_BEYOND * 100 / (100 - pct))}"
            f" samples, have {len(values)}")
    return percentile(values, pct)


def covered_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover. spans are dicts with id,
    parent, ts and dur (the Chrome-trace X-event fields). Span ids
    must be unique: a repeated id would merge two spans' children."""
    ids = set()
    for s in spans:
        if s["id"] in ids:
            raise BenchError(f"duplicate span id {s['id']}")
        ids.add(s["id"])
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(
                (s["ts"], s["ts"] + s["dur"]))
    out = {}
    for s in spans:
        lo, hi = s["ts"], s["ts"] + s["dur"]
        out[s["id"]] = s["dur"] - covered_length(
            children.get(s["id"], []), lo, hi)
    return out


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "ts": e["ts"], "dur": e["dur"],
             "id": e["args"]["id"], "parent": e["args"]["parent"]}
            for e in events]


class SpanTable:
    """Per-name totals over a span list (times in microseconds)."""

    def __init__(self, spans):
        selfs = self_times(spans)
        self.durs = {}
        self.selfs = {}
        for s in spans:
            self.durs.setdefault(s["name"], []).append(s["dur"])
            self.selfs.setdefault(s["name"], []).append(selfs[s["id"]])

    def self_us(self, name):
        if name not in self.selfs:
            raise BenchError(f"no spans named {name}")
        return sum(self.selfs[name])

    def dur_us(self, name):
        if name not in self.durs:
            raise BenchError(f"no spans named {name}")
        return sum(self.durs[name])

    def median_dur_us(self, name):
        if name not in self.durs:
            raise BenchError(f"no spans named {name}")
        return statistics.median(self.durs[name])


def segment_rate(raw, traced):
    """Median throughput over timed segments, summed over concurrent
    streams (the sessions of serve_ingest; one stream elsewhere)."""
    by_stream = {}
    for refs, secs, t, stream in raw["segments"]:
        if t == traced and secs > 0:
            by_stream.setdefault(stream, []).append(refs / secs)
    if not by_stream:
        raise BenchError("no timed segments")
    return sum(statistics.median(r) for r in by_stream.values())


def correctness(raw):
    """(ok, reasons): every check passed and every repetition's digest
    is the same."""
    reasons = [f"{c['name']}: {c['detail']}" for c in raw["checks"]
               if not c["ok"]]
    digests = raw["rep_digests"]
    if not digests:
        reasons.append("no repetition digests")
    elif len(set(digests)) != 1:
        reasons.append(f"repetition digests differ: {sorted(set(digests))}")
    return not reasons, reasons


def pooled_percentile(lists, pct, what):
    """pct percentile of every repetition's samples taken together."""
    return require_tail([x for v in lists for x in v], pct, what)


def end_to_end(raw):
    """{name: (value, unit)} plus human-readable notes (sample counts).

    Latency percentiles pool the samples of all untraced repetitions: a
    host slow spell that covers a whole repetition then moves the median
    less than a median of per-repetition medians would."""
    feed = raw["feed_us"]
    metrics = {
        "refs_per_s": (segment_rate(raw, False), "1/s"),
        "feed_p50_us": (pooled_percentile(feed, 50, "feed_p50_us"), "us"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = [f"feed requests per repetition: {[len(v) for v in feed]}, "
             f"p99 {pooled_percentile(feed, 99, 'feed p99'):.1f} us "
             "(not gated; see README)",
             f"setups: {len(raw['setup_s'])}",
             f"timed segments: {sum(1 for s in raw['segments'] if not s[2])}"]
    query = raw["query_us"]
    count = sum(len(v) for v in query)
    if count:
        best = tail_percentile(count) or 0
        notes.append(
            f"stats queries per repetition: {[len(v) for v in query]}, "
            f"p50 {pooled_percentile(query, 50, 'query p50'):.1f} us, "
            f"p{best:g} {pooled_percentile(query, best, 'query tail'):.1f}"
            " us")
    return metrics, notes


def per_layer(raw, spans):
    """{name: (value, unit)} for every per-layer metric."""
    table = SpanTable(spans)
    work = raw["work"]
    values = raw["values"]

    def ns_per(name):
        if not work.get(name):
            raise BenchError(f"no work units recorded for {name}")
        return table.self_us(name) * 1e3 / work[name]

    untraced = segment_rate(raw, False)
    traced = segment_rate(raw, True)
    pack = ns_per("service.client_pack")
    exec_ = ns_per("service.session_exec")
    rtt_us = table.median_dur_us("service.rtt")
    wire = values["service.wire_ns_per_ref"]
    lines_per_ref = values["service.feed_lines_per_kref"] / 1e3
    metrics = {
        "trace.overhead_frac": (untraced / traced - 1, "frac"),
        "workload.feed_p99_us":
            (pooled_percentile(raw["feed_us"], 99, "feed p99"), "us"),
        "workload.gen_ns_per_ref": (ns_per("workload.gen"), "ns"),
        "ies.construct_s": (table.median_dur_us("ies.construct") / 1e6, "s"),
        "ies.feed_batch.ns_per_ref": (ns_per("ies.feed_batch"), "ns"),
        "ies.drain_all.us": (table.median_dur_us("ies.drain_all"), "us"),
        "cache.tagstore.access_ns": (ns_per("cache.tagstore.access"), "ns"),
        "ies.feed_committed.ns_per_ref": (ns_per("ies.feed_committed"), "ns"),
        "ies.feed_batch_shard4.ns_per_ref":
            (ns_per("ies.feed_batch_shard4"), "ns"),
        "ies.admit_frac": (values["ies.admit_frac"], "frac"),
        "host.run.ns_per_cpu_ref": (ns_per("host.run"), "ns"),
        "host.l2_miss_ratio": (values["host.l2_miss_ratio"], "ratio"),
        "bus.tenures_per_cpu_ref": (values["bus.tenures_per_cpu_ref"], "ratio"),
        "fanout.overhead_frac": (values["fanout.overhead_frac"], "frac"),
        "fanout.backpressure_stalls":
            (values["fanout.backpressure_stalls"], "count"),
        "fanout.board_ns_per_ref.max":
            (values["fanout.board_ns_per_ref.max"], "ns"),
        "fanout.worker_load.max_over_mean":
            (values["fanout.worker_load.max_over_mean"], "ratio"),
        "service.client_pack.ns_per_ref": (pack, "ns"),
        "service.session_exec.ns_per_ref": (exec_, "ns"),
        "service.board_feed.ns_per_ref": (ns_per("service.board_feed"), "ns"),
        "service.rtt_us": (rtt_us, "us"),
        "service.feed_lines_per_kref":
            (values["service.feed_lines_per_kref"], "1/kref"),
        "service.resend_frac": (values["service.resend_frac"], "frac"),
        "service.query_exec_us":
            (table.median_dur_us("service.query_exec"), "us"),
        "service.unattributed_frac":
            ((wire - pack - exec_ - rtt_us * 1e3 * lines_per_ref) / wire,
             "frac"),
        "prof.feed_batch.ratio":
            (values["prof.est_ns.feed_batch"] /
             (table.dur_us("prof.feed_batch") * 1e3), "ratio"),
        "prof.credit_pacing.parent_ratio":
            (values["prof.est_ns.credit_pacing"] /
             values["prof.est_ns.batch_admission"], "ratio"),
    }
    for i in range(4):
        metrics[f"ies.node{i}.miss_ratio"] = (
            values[f"ies.node{i}.miss_ratio"], "ratio")
    return metrics


def result_line(correct, attempted, failed, metrics):
    """The final stdout line the benchmark contract asks for."""
    out = {}
    for name, (value, unit) in sorted(metrics.items()):
        out[validate_name(name)] = {"value": value, "unit": validate_unit(unit)}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})
