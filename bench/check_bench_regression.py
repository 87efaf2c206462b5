#!/usr/bin/env python3
"""Soft regression gate over BENCH_throughput.json.

Absolute ns/ref numbers are not comparable across runner generations,
so the gate checks *ratios within one run*: the checked-in baseline
(bench/BENCH_throughput.baseline.json) records how much faster the
batch feed path must be than the serial feed path on the same machine
in the same process. A regression in the batch hot path shows up as
that speedup collapsing, regardless of how fast the runner is.

The gate fails when a measured speedup falls more than --tolerance
(default 10%) below its baseline value. Speedups *above* baseline only
print a note — update the baseline deliberately, not from CI noise.

The baseline may also carry "overhead_gates": ratio *ceilings* between
two sections of the same run, used to bound the cost of the IESPROF
profiler (numerator = instrumented section, denominator = its plain
twin, max_ratio = the ceiling, checked without extra tolerance since
the ceiling already embeds the allowance). When the sections carry
"trials" (interleaved runs, one per pair), the verdict is the median of
the per-pair ratios, so one noisy run cannot decide it. An overhead
gate whose sections are absent (the bench ran without --profile) is
skipped with a note rather than failed.

When the results file carries a "profile" object (bench ran with
--profile), the per-stage attribution is checked: no stage may report
more time than its parent (each child is timed inside its parent's
clock pair, so a child above its parent means a broken hook), and the
direct children of feed_batch must sum to within 10% of feed_batch
itself — wildly unattributed time means a hook site went missing.

Usage:
    check_bench_regression.py BENCH_throughput.json [--baseline FILE]
                              [--tolerance 0.10]
"""

import argparse
import json
import statistics
import sys


def load_json(path, what):
    """Load a JSON file, exiting with a clear message (not a
    traceback) when it is missing, unreadable, or malformed."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise SystemExit(f"error: {what} file {path!r} not found — "
                         "did the bench run and write its JSON "
                         "artifact?")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {what} file {path!r} is not valid "
                         f"JSON ({exc}) — truncated bench run?")
    except OSError as exc:
        raise SystemExit(f"error: cannot read {what} file {path!r}: "
                         f"{exc}")


def find_section(doc, label, required=True):
    for section in doc.get("sections", []):
        if section["label"] == label:
            if section["events"] <= 0:
                raise SystemExit(f"error: section {label!r} has zero "
                                 "events — malformed results file")
            return section
    if required:
        raise SystemExit(f"section {label!r} missing from "
                         f"{doc.get('bench', '?')} results — did a "
                         "bench label change?")
    return None


def section_ns_per_ref(doc, label, required=True):
    section = find_section(doc, label, required)
    if section is None:
        return None
    return section["seconds"] / section["events"] * 1e9


def trial_ns_per_ref(section):
    """ns/ref of each interleaved trial; a section without "trials"
    is one trial."""
    trials = section.get("trials", [section["seconds"]])
    return [s / section["events"] * 1e9 for s in trials]


def check_speedup_gates(results, baseline, tolerance):
    failures = []
    for gate in baseline.get("speedup_gates", []):
        slow = section_ns_per_ref(results, gate["numerator"])
        fast = section_ns_per_ref(results, gate["denominator"])
        measured = slow / fast
        floor = gate["min_speedup"] * (1.0 - tolerance)
        verdict = "OK" if measured >= floor else "FAIL"
        print(f"[{verdict}] {gate['name']}: {slow:.1f} ns/ref vs "
              f"{fast:.1f} ns/ref = {measured:.2f}x "
              f"(baseline {gate['min_speedup']:.2f}x, floor "
              f"{floor:.2f}x)")
        if measured < floor:
            failures.append(gate["name"])
        elif measured > gate["min_speedup"] * (1.0 + tolerance):
            print(f"  note: {gate['name']} beats baseline by >"
                  f"{tolerance:.0%} — consider raising it")
    return failures


def check_overhead_gates(results, baseline):
    failures = []
    for gate in baseline.get("overhead_gates", []):
        num = find_section(results, gate["numerator"], required=False)
        den = find_section(results, gate["denominator"], required=False)
        if num is None or den is None:
            print(f"[SKIP] {gate['name']}: profiled sections absent "
                  "(bench ran without --profile)")
            continue
        num_ns = trial_ns_per_ref(num)
        den_ns = trial_ns_per_ref(den)
        if len(num_ns) != len(den_ns):
            raise SystemExit(f"error: {gate['name']}: "
                             f"{len(num_ns)} vs {len(den_ns)} trials — "
                             "the sections must run as pairs")
        ratios = [n / d for n, d in zip(num_ns, den_ns)]
        measured = statistics.median(ratios)
        verdict = "OK" if measured <= gate["max_ratio"] else "FAIL"
        print(f"[{verdict}] {gate['name']}: median of {len(ratios)} "
              f"paired ratios = {measured:.3f}x "
              f"(ceiling {gate['max_ratio']:.2f}x; pairs "
              + " ".join(f"{r:.3f}" for r in ratios) + ")")
        if measured > gate["max_ratio"]:
            failures.append(gate["name"])
    return failures


def check_profile_attribution(results):
    """No stage above its parent; feed_batch's direct children must
    account for ~all of it."""
    profile = results.get("profile")
    if not profile:
        return []
    stages = {s["stage"]: s["ns"] for s in profile.get("stages", [])}
    total = stages.get("feed_batch", 0)
    if total <= 0:
        print("[SKIP] profile attribution: no feed_batch time "
              "recorded")
        return []
    failures = []
    # The stage tree is flat: every stage's parent is feed_batch.
    for name, ns in stages.items():
        if name == "feed_batch":
            continue
        verdict = "OK" if ns <= total else "FAIL"
        print(f"[{verdict}] profile nesting: {name} {ns} ns <= "
              f"parent feed_batch {total} ns")
        if ns > total:
            failures.append(f"profile nesting ({name})")
    children = ("batch_admission", "emulation")
    attributed = sum(stages.get(name, 0) for name in children)
    share = attributed / total
    verdict = "OK" if 0.90 <= share <= 1.10 else "FAIL"
    print(f"[{verdict}] profile attribution: stages cover "
          f"{share:.1%} of feed_batch "
          f"({attributed} of {total} ns)")
    if verdict != "OK":
        failures.append("profile attribution")
    return failures


def check_service_gates(results, baseline):
    """Gates for the IESSERV load harness (BENCH_service.json).

    All within-run ratios, like the speedup gates: sessions sustained
    (the daemon must hold every requested tenant), p99-vs-p50 ingest
    latency (tail blowup = convoying/starvation in the daemon), and
    fleet-vs-solo aggregate throughput (concurrency must not collapse
    the ingest path below a single session's rate)."""
    gates = baseline.get("service_gates")
    if not gates:
        return []
    service = results.get("service")
    if not service:
        raise SystemExit("error: baseline has service_gates but the "
                         "results file carries no \"service\" object "
                         "— did loadtest write this file?")
    failures = []

    sustained = service.get("sessions_sustained", 0)
    want = gates.get("min_sessions_sustained", 0)
    verdict = "OK" if sustained >= want else "FAIL"
    print(f"[{verdict}] sessions sustained: {sustained} "
          f"(require >= {want})")
    if sustained < want:
        failures.append("sessions sustained")

    p50 = service.get("p50_us", 0)
    p99 = service.get("p99_us", 0)
    ceiling = gates.get("max_p99_over_p50")
    if ceiling is not None:
        if p50 <= 0:
            raise SystemExit("error: p50_us is zero — no feed "
                             "requests were timed")
        ratio = p99 / p50
        verdict = "OK" if ratio <= ceiling else "FAIL"
        print(f"[{verdict}] ingest latency tail: p99 {p99:.1f} us vs "
              f"p50 {p50:.1f} us = {ratio:.1f}x "
              f"(ceiling {ceiling:.0f}x)")
        if ratio > ceiling:
            failures.append("ingest latency tail")

    floor = gates.get("min_fleet_over_solo_throughput")
    if floor is not None:
        solo_ns = section_ns_per_ref(results, "ingest solo")
        fleet_ns = section_ns_per_ref(results, "ingest fleet")
        scaling = solo_ns / fleet_ns
        verdict = "OK" if scaling >= floor else "FAIL"
        print(f"[{verdict}] fleet throughput: {scaling:.2f}x the solo "
              f"session ({fleet_ns:.1f} vs {solo_ns:.1f} ns/ref, "
              f"floor {floor:.2f}x)")
        if scaling < floor:
            failures.append("fleet throughput")

    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("results")
    parser.add_argument("--baseline",
                        default="bench/BENCH_throughput.baseline.json")
    parser.add_argument("--tolerance", type=float, default=0.10)
    args = parser.parse_args()

    results = load_json(args.results, "results")
    baseline = load_json(args.baseline, "baseline")

    failures = []
    failures += check_speedup_gates(results, baseline, args.tolerance)
    failures += check_overhead_gates(results, baseline)
    failures += check_profile_attribution(results)
    failures += check_service_gates(results, baseline)

    if failures:
        print(f"\nbench regression gate FAILED: {', '.join(failures)}")
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
