#!/usr/bin/env python3
"""Validate the perf-observatory surface of a `repro … --metrics` report.

CI runs this after the smoke run (which includes the `perf` experiment)
so the perf contract can never silently change shape:

- the report's `metrics.histograms` section carries the push and stage
  histograms (`engine_push_seconds`, `pipeline_stage_seconds{stage}`)
  with records, and no `_ns` twin families; every histogram is
  internally consistent (cumulative buckets closed by `+Inf` = count,
  ordered p50 <= p95 <= p99 <= max, non-null whenever count > 0);
- every `perf_*` metric promised by DESIGN.md §9 is present, with the
  deterministic/timing split implied by the suffix convention;
- the deterministic class is structurally sound (pushes = samples ×
  repeats is checked by the experiment itself; here we check presence,
  integrality, and non-negativity).

Usage: check_perf_report.py REPORT.json
"""

import json
import sys

EXPECTED_COUNTERS = {
    "perf_pushes_total",
    "perf_recognitions_total",
    "perf_rejections_total",
    "perf_repeats_total",
}

EXPECTED_GAUGES = {
    "perf_allocs_per_push",
    "perf_alloc_bytes_per_push",
    "perf_alloc_counting",
    "perf_samples_per_s",
    "perf_push_p50_ns",
    "perf_push_p95_ns",
    "perf_push_p99_ns",
    "perf_push_max_ns",
    "perf_stage_mean_ns",
}

TIMING_SUFFIXES = ("_ns", "_per_s", "_seconds", "_utilization")

# Per-window stages instrumented on the streaming path (DESIGN.md §9).
STAGE_LABELS = {"filter", "features", "rf_predict", "zebra", "distinguish"}


def fail(msg):
    print(f"check_perf_report: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


HISTOGRAM_KEYS = {
    "name",
    "labels",
    "count",
    "sum",
    "mean",
    "p50",
    "p95",
    "p99",
    "max",
    "buckets",
}


def check_histograms(report):
    metrics = report.get("metrics", {})
    expect("histograms" in metrics, "report has no `metrics.histograms` section")
    hists = metrics["histograms"]
    expect(isinstance(hists, list), "`metrics.histograms` must be a list")
    names = set()
    for h in hists:
        expect(set(h) == HISTOGRAM_KEYS, f"histogram entry keys: {sorted(h)}")
        names.add(h["name"])
        expect(h["count"] >= 0 and h["sum"] >= 0, f"negative tallies: {h}")
        if h["count"] > 0:
            # One rank walk over the buckets, capped at the exact max:
            # the whole ladder is monotone.
            expect(
                None not in (h["p50"], h["p95"], h["p99"], h["max"]),
                f"null percentile with records: {h['name']} {h['labels']}",
            )
            expect(
                h["p50"] <= h["p95"] <= h["p99"] <= h["max"],
                f"quantiles out of order: {h['name']} {h['labels']}",
            )
            expect(h["max"] > 0, f"records but zero max: {h['name']}")
        buckets = h["buckets"]
        expect(isinstance(buckets, list), f"`buckets` must be a list: {h['name']}")
        expect(buckets, f"histogram without a +Inf bucket: {h['name']}")
        prev_edge = -1
        prev_count = 0
        for b in buckets[:-1]:
            expect(set(b) == {"le", "count"}, f"bucket keys: {sorted(b)}")
            expect(b["le"] > prev_edge, f"bucket edges not increasing: {h['name']}")
            expect(b["count"] >= prev_count, f"buckets not cumulative: {h['name']}")
            prev_edge, prev_count = b["le"], b["count"]
        last = buckets[-1]
        expect(last["le"] == "+Inf", f"last bucket is not +Inf: {h['name']}")
        expect(
            last["count"] == h["count"] >= prev_count,
            f"+Inf bucket holds {last['count']}, histogram count is {h['count']}: {h['name']}",
        )
    for name in ("engine_push_seconds", "pipeline_stage_seconds"):
        expect(name in names, f"`{name}` missing from {sorted(names)}")
        expect(
            any(h["name"] == name and h["count"] > 0 for h in hists),
            f"`{name}` holds no records",
        )
    expect(
        not any(n.endswith("_ns") for n in names),
        f"nanosecond twin families present: {sorted(n for n in names if n.endswith('_ns'))}",
    )
    stages = {
        h["labels"].get("stage")
        for h in hists
        if h["name"] == "pipeline_stage_seconds"
    }
    expect(
        STAGE_LABELS <= stages,
        f"per-window stages missing from pipeline_stage_seconds: {STAGE_LABELS - stages}",
    )


def check_perf_metrics(report):
    metrics = report.get("metrics", {})
    counters = {c["name"]: c for c in metrics.get("counters", []) if c["name"].startswith("perf_")}
    gauges = {}
    for g in metrics.get("gauges", []):
        if g["name"].startswith("perf_"):
            gauges.setdefault(g["name"], []).append(g)

    expect(
        EXPECTED_COUNTERS <= set(counters),
        f"perf counters missing: {EXPECTED_COUNTERS - set(counters)}",
    )
    expect(
        EXPECTED_GAUGES <= set(gauges),
        f"perf gauges missing: {EXPECTED_GAUGES - set(gauges)}",
    )

    for name, c in counters.items():
        expect(not name.endswith(TIMING_SUFFIXES), f"timing-suffixed counter: {name}")
        expect(
            isinstance(c["value"], int) and c["value"] >= 0,
            f"counter {name} must be a non-negative integer: {c['value']}",
        )
    expect(counters["perf_pushes_total"]["value"] > 0, "no pushes measured")
    expect(counters["perf_repeats_total"]["value"] > 0, "no repeats measured")

    for name, entries in gauges.items():
        for g in entries:
            expect(g["value"] >= 0, f"gauge {name} must be non-negative: {g['value']}")
    stages = {g["labels"].get("stage") for g in gauges["perf_stage_mean_ns"]}
    expect(
        stages == STAGE_LABELS,
        f"perf_stage_mean_ns stages {sorted(x for x in stages if x)} != {sorted(STAGE_LABELS)}",
    )
    # The quantile ladder must be ordered just like the histograms. Each
    # repeat's quantiles are capped at that repeat's max, so the median
    # of each stays at or under the max across all repeats.
    p50 = gauges["perf_push_p50_ns"][0]["value"]
    p95 = gauges["perf_push_p95_ns"][0]["value"]
    p99 = gauges["perf_push_p99_ns"][0]["value"]
    max_ns = gauges["perf_push_max_ns"][0]["value"]
    expect(p50 <= p95 <= p99 <= max_ns, f"push quantiles out of order: {p50} {p95} {p99} {max_ns}")
    expect(max_ns > 0, "zero max push latency")
    expect(gauges["perf_samples_per_s"][0]["value"] > 0, "throughput must be positive")

    # The experiment must actually have run (its wall time is recorded).
    expect(
        any(e["id"] == "perf" and e["seconds"] > 0 for e in report.get("experiments", [])),
        "the `perf` experiment is not in the report's experiment list",
    )


def main(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    check_histograms(report)
    check_perf_metrics(report)
    hists = len(report["metrics"]["histograms"])
    print(f"check_perf_report: OK ({hists} histograms, perf metrics complete)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        fail("usage: check_perf_report.py REPORT.json")
    main(sys.argv[1])
