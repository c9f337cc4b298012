#!/usr/bin/env python3
"""Diff a bench_kernels --json run against the committed baseline.

Usage: check_bench_regression.py <run.json> <baseline.json>
           [--tolerance 0.25] [--update-missing]
       check_bench_regression.py --validate-metrics <metrics.json>
       check_bench_regression.py --validate-snapshots <snaps.jsonl>
           [--against <metrics.json>] [--min-count N]
       check_bench_regression.py --validate-events <events.jsonl>
       check_bench_regression.py --selftest

Compares items_per_second for every benchmark present in both files
and prints a table of ratios. Deviations beyond the tolerance are
reported as warnings (GitHub `::warning::` annotations when running
under Actions) — the exit code is always 0, because CI runners are
too noisy for a hard perf gate; the point is to accumulate a visible
perf trajectory and make regressions loud, not red.

--update-missing rewrites the baseline file with this run's records
appended for any benchmark the baseline does not know yet (existing
entries are never touched, so established trajectories stay stable).
Run it locally after adding a benchmark so CI stops warning about
unbaselined keys.

--validate-metrics checks a cldpc-metrics-v1 file (the --metrics-json
output of ber_waterfall / throughput_explorer / bench_figure4_ber_per;
schema in src/obs/export.hpp) for structural validity: required keys,
finite numbers, bins that sum to their histogram's count. Unlike the
bench diff this IS a hard gate — exit 1 on any violation — because
the schema is a machine interface, not a perf measurement.

--validate-snapshots checks a cldpc-metrics-snapshot-v1 JSONL stream
(the --snapshots-jsonl output of decode_service / load_generator /
shard_coordinator; schema in src/obs/snapshot.hpp): per-line schema,
contiguous 1-based seq, monotonic elapsed_ms and counter totals, the
delta-telescoping identity (each delta == total - previous total),
and exactly one final:true snapshot, on the last line. --against
additionally requires the final snapshot's cumulative counter totals
to equal the cldpc-metrics-v1 file's counters EXACTLY — the
"snapshot sum equals final flush" identity — and its histograms'
count/min/max/p50/p99 to equal the file's (both read the same
buckets). --min-count N (default 2)
fails streams shorter than N lines. Hard gate like
--validate-metrics.

--validate-events checks a cldpc-events-v1 JSONL journal (the
--events-jsonl output; schema in src/obs/journal.hpp): per-line
schema, contiguous 0-based seq, monotonic t_ms, kinds from the closed
per-source sets, int-or-string args only. Hard gate.

--selftest runs all three validators against built-in good and
mutated documents and exits non-zero on any miss; ctest runs it as
check_bench_regression_selftest.
"""

import argparse
import json
import math
import os
import sys


METRICS_SCHEMA = "cldpc-metrics-v1"
HIST_KEYS = {"unit", "count", "min", "max", "mean", "p50", "p90", "p99",
             "bins"}
# The histogram fields a snapshot shares with the metrics file.
HIST_SNAPSHOT_KEYS = ("count", "min", "max", "p50", "p99")

# The shard.* namespace (src/dist/) is a machine interface consumed by
# the CI kill-and-resume smoke: a misspelled or invented name would
# silently validate while the smoke greps for nothing. Closed set —
# extend it here in the same PR that adds the metric.
SHARD_COUNTERS = {
    # worker side (dist/shard_runner.cpp)
    "shard.resumes", "shard.restarts_corrupt", "shard.restarts_stale",
    "shard.restarts_unit_mismatch", "shard.checkpoint_writes",
    "shard.injected_crashes", "shard.injected_corrupt_writes",
    "shard.injected_stale_writes",
    # coordinator side (dist/coordinator.cpp)
    "shard.dispatches", "shard.retries", "shard.timeouts",
    "shard.worker_deaths", "shard.failures", "shard.merges",
    "shard.checkpoints_rejected",
}
SHARD_GAUGES = {"shard.frames_assigned", "shard.frames_merged",
                "shard.frames_in_flight", "shard.frames_lost_and_retried"}

SNAPSHOT_SCHEMA = "cldpc-metrics-snapshot-v1"
EVENTS_SCHEMA = "cldpc-events-v1"
# Closed event-kind sets per source (src/obs/journal.hpp — extend both
# places in the same PR).
EVENT_KINDS = {
    "serve": {"tier_change", "client_drop", "fault_stall", "fault_throw",
              "service_stop"},
    "dist": {"dispatch", "reap_merge", "reap_retry", "reap_interrupted",
             "timeout", "retries_exhausted", "checkpoint_bank",
             "coordinator_done"},
}


def known_shard_gauge(name):
    """Fixed ledger gauges plus the coordinator's per-shard progress
    pair, shard.unit.<id>.frames_banked / .frames_total."""
    if name in SHARD_GAUGES:
        return True
    if name.startswith("shard.unit.") and name.endswith(
            (".frames_banked", ".frames_total")):
        return len(name.split(".")) == 4 and name.split(".")[2]
    return False


def validate_metrics_doc(doc):
    """Return a list of violation strings (empty = valid)."""
    errors = []

    def check(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    if not check(isinstance(doc, dict), "document is not a JSON object"):
        return errors
    check(doc.get("schema") == METRICS_SCHEMA,
          f"schema is {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}")
    for key in ("counters", "histograms", "gauges"):
        check(isinstance(doc.get(key), dict), f"missing/invalid '{key}' map")
    check(isinstance(doc.get("nondeterministic"), list),
          "missing/invalid 'nondeterministic' list")
    if errors:
        return errors

    for name, value in doc["counters"].items():
        check(isinstance(value, int) and not isinstance(value, bool)
              and value >= 0,
              f"counter {name}: value {value!r} is not a non-negative int")
    for name, hist in doc["histograms"].items():
        if not check(isinstance(hist, dict), f"histogram {name}: not a map"):
            continue
        missing = HIST_KEYS - hist.keys()
        if not check(not missing,
                     f"histogram {name}: missing keys {sorted(missing)}"):
            continue
        check(isinstance(hist["unit"], str), f"histogram {name}: unit "
              "is not a string")
        for key in ("count", "min", "max", "p50", "p90", "p99"):
            value = hist[key]
            check(isinstance(value, int) and not isinstance(value, bool),
                  f"histogram {name}: {key} {value!r} is not an int")
        check(isinstance(hist["mean"], (int, float))
              and math.isfinite(hist["mean"]),
              f"histogram {name}: mean {hist['mean']!r} is not finite")
        bins = hist["bins"]
        if check(isinstance(bins, list), f"histogram {name}: bins is "
                 "not a list"):
            total = 0
            for entry in bins:
                if not check(isinstance(entry, list) and len(entry) == 2
                             and all(isinstance(x, int)
                                     and not isinstance(x, bool)
                                     for x in entry),
                             f"histogram {name}: bin {entry!r} is not an "
                             "[int value, int count] pair"):
                    break
                check(entry[1] > 0, f"histogram {name}: bin {entry!r} has "
                      "a non-positive count")
                total += entry[1]
            else:
                check(isinstance(hist.get("count"), int)
                      and total == hist["count"],
                      f"histogram {name}: bins sum to {total}, count says "
                      f"{hist.get('count')!r}")
    for name, value in doc["gauges"].items():
        check(isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value),
              f"gauge {name}: value {value!r} is not a finite number")

    known = (set(doc["counters"]) | set(doc["histograms"])
             | set(doc["gauges"]))
    for name in doc["nondeterministic"]:
        check(isinstance(name, str) and name in known,
              f"nondeterministic entry {name!r} names no exported metric")

    for name in doc["counters"]:
        check(not name.startswith("shard.") or name in SHARD_COUNTERS,
              f"counter {name}: not a known shard.* counter")
    for name in doc["gauges"]:
        check(not name.startswith("shard.") or known_shard_gauge(name),
              f"gauge {name}: not a known shard.* gauge")
    for name in doc["histograms"]:
        check(not name.startswith("shard."),
              f"histogram {name}: the shard.* namespace has no histograms")
    # When the coordinator exports its full frame ledger, the
    # conservation identity must hold — the same gate the coordinator
    # binary's exit code enforces (dist/coordinator.hpp).
    if SHARD_GAUGES <= set(doc["gauges"]):
        gauges = doc["gauges"]
        check(gauges["shard.frames_assigned"]
              == gauges["shard.frames_merged"]
              + gauges["shard.frames_in_flight"]
              + gauges["shard.frames_lost_and_retried"],
              "shard frame ledger violates assigned == merged + in_flight"
              " + lost_and_retried")
    return errors


def validate_snapshot_stream(docs, against=None, min_count=2):
    """Return a list of violation strings for a parsed snapshot stream
    (list of per-line documents, oldest first)."""
    errors = []

    def check(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    if not check(len(docs) >= min_count,
                 f"only {len(docs)} snapshot(s), expected >= {min_count}"):
        return errors

    prev_totals = {}
    prev_counts = {}
    prev_elapsed = -1
    for i, doc in enumerate(docs):
        where = f"snapshot line {i + 1}"
        if not check(isinstance(doc, dict), f"{where}: not a JSON object"):
            continue
        check(doc.get("schema") == SNAPSHOT_SCHEMA,
              f"{where}: schema is {doc.get('schema')!r}")
        check(doc.get("seq") == i + 1,
              f"{where}: seq {doc.get('seq')!r}, expected {i + 1}")
        elapsed = doc.get("elapsed_ms")
        if check(isinstance(elapsed, int) and not isinstance(elapsed, bool)
                 and elapsed >= 0,
                 f"{where}: elapsed_ms {elapsed!r} is not a non-negative "
                 "int"):
            check(elapsed >= prev_elapsed,
                  f"{where}: elapsed_ms went backwards "
                  f"({prev_elapsed} -> {elapsed})")
            prev_elapsed = elapsed
        is_last = i == len(docs) - 1
        check(doc.get("final") is is_last,
              f"{where}: final is {doc.get('final')!r}, expected {is_last}"
              " (exactly one final snapshot, on the last line)")
        if not check(isinstance(doc.get("counters"), dict),
                     f"{where}: missing/invalid 'counters' map"):
            continue
        for name, entry in doc["counters"].items():
            if not check(isinstance(entry, dict)
                         and {"total", "delta"} <= entry.keys(),
                         f"{where}: counter {name} lacks total/delta"):
                continue
            total, delta = entry["total"], entry["delta"]
            ints = all(isinstance(v, int) and not isinstance(v, bool)
                       and v >= 0 for v in (total, delta))
            if not check(ints, f"{where}: counter {name} total/delta are "
                         "not non-negative ints"):
                continue
            prev = prev_totals.get(name, 0)
            check(total >= prev,
                  f"{where}: counter {name} total went backwards "
                  f"({prev} -> {total})")
            # The telescoping identity: deltas sum to the final total.
            check(delta == total - prev,
                  f"{where}: counter {name} delta {delta} != total {total}"
                  f" - previous {prev}")
            prev_totals[name] = total
        for name, hist in doc.get("histograms", {}).items():
            if not check(isinstance(hist, dict)
                         and {"count", "delta_count"} <= hist.keys(),
                         f"{where}: histogram {name} lacks "
                         "count/delta_count"):
                continue
            count, dcount = hist["count"], hist["delta_count"]
            if not check(all(isinstance(v, int) and not isinstance(v, bool)
                             and v >= 0 for v in (count, dcount)),
                         f"{where}: histogram {name} count/delta_count are "
                         "not non-negative ints"):
                continue
            prev = prev_counts.get(name, 0)
            check(count >= prev,
                  f"{where}: histogram {name} count went backwards "
                  f"({prev} -> {count})")
            check(dcount == count - prev,
                  f"{where}: histogram {name} delta_count {dcount} != "
                  f"count {count} - previous {prev}")
            prev_counts[name] = count

    # Snapshot-sum-equals-final-flush: the last snapshot's cumulative
    # totals must equal the post-Stop() cldpc-metrics-v1 export.
    if against is not None and not errors:
        final = docs[-1].get("counters", {})
        for name, value in against.get("counters", {}).items():
            entry = final.get(name)
            check(entry is not None,
                  f"final snapshot is missing counter {name}")
            if entry is not None:
                check(entry["total"] == value,
                      f"final snapshot counter {name} = {entry['total']}, "
                      f"metrics file says {value}")
        for name in final:
            check(name in against.get("counters", {}),
                  f"final snapshot counter {name} not in the metrics file")
        # Both read the same histogram buckets, so the final snapshot's
        # histogram fields equal the export's exactly too.
        final_hists = docs[-1].get("histograms", {})
        for name, hist in against.get("histograms", {}).items():
            entry = final_hists.get(name)
            if not check(entry is not None,
                         f"final snapshot is missing histogram {name}"):
                continue
            for key in HIST_SNAPSHOT_KEYS:
                check(entry.get(key) == hist.get(key),
                      f"final snapshot histogram {name}.{key} = "
                      f"{entry.get(key)!r}, metrics file says "
                      f"{hist.get(key)!r}")
        for name in final_hists:
            check(name in against.get("histograms", {}),
                  f"final snapshot histogram {name} not in the metrics file")
    return errors


def validate_event_stream(docs):
    """Return a list of violation strings for a parsed cldpc-events-v1
    journal (list of per-line documents, oldest first)."""
    errors = []

    def check(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    prev_t = -1
    for i, doc in enumerate(docs):
        where = f"event line {i + 1}"
        if not check(isinstance(doc, dict), f"{where}: not a JSON object"):
            continue
        check(doc.get("schema") == EVENTS_SCHEMA,
              f"{where}: schema is {doc.get('schema')!r}")
        check(doc.get("seq") == i,
              f"{where}: seq {doc.get('seq')!r}, expected {i} (contiguous "
              "from 0)")
        t = doc.get("t_ms")
        if check(isinstance(t, int) and not isinstance(t, bool) and t >= 0,
                 f"{where}: t_ms {t!r} is not a non-negative int"):
            check(t >= prev_t, f"{where}: t_ms went backwards "
                  f"({prev_t} -> {t})")
            prev_t = t
        source = doc.get("source")
        if check(source in EVENT_KINDS,
                 f"{where}: unknown source {source!r}"):
            check(doc.get("kind") in EVENT_KINDS[source],
                  f"{where}: kind {doc.get('kind')!r} is not a known "
                  f"{source} event")
        args = doc.get("args")
        if check(isinstance(args, dict), f"{where}: missing/invalid "
                 "'args' map"):
            for key, value in args.items():
                check(isinstance(value, (int, str))
                      and not isinstance(value, bool),
                      f"{where}: arg {key}={value!r} is not int or string")
    return errors


def load_jsonl(path):
    docs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                docs.append(json.loads(line))
    return docs


def validate_snapshots(path, against_path, min_count):
    try:
        docs = load_jsonl(path)
        against = None
        if against_path:
            with open(against_path) as f:
                against = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: {err}")
        return 1
    errors = validate_snapshot_stream(docs, against, min_count)
    for msg in errors:
        print(f"{path}: {msg}")
    if errors:
        print(f"{path}: INVALID ({len(errors)} violation(s))")
        return 1
    vs = f", final totals == {against_path}" if against_path else ""
    print(f"{path}: valid {SNAPSHOT_SCHEMA} stream ({len(docs)} "
          f"snapshots, deltas telescope{vs})")
    return 0


def validate_events(path):
    try:
        docs = load_jsonl(path)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: {err}")
        return 1
    errors = validate_event_stream(docs)
    for msg in errors:
        print(f"{path}: {msg}")
    if errors:
        print(f"{path}: INVALID ({len(errors)} violation(s))")
        return 1
    print(f"{path}: valid {EVENTS_SCHEMA} journal ({len(docs)} events)")
    return 0


def validate_metrics(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: {err}")
        return 1
    errors = validate_metrics_doc(doc)
    for msg in errors:
        print(f"{path}: {msg}")
    if errors:
        print(f"{path}: INVALID ({len(errors)} violation(s))")
        return 1
    n = (len(doc["counters"]) + len(doc["histograms"]) + len(doc["gauges"]))
    print(f"{path}: valid {METRICS_SCHEMA} ({n} metrics, "
          f"{len(doc['nondeterministic'])} nondeterministic)")
    return 0


def selftest():
    good = {
        "schema": METRICS_SCHEMA,
        "counters": {"engine.frames": 600, "decode.lane_groups": 25},
        "histograms": {
            "decode.iterations": {
                "unit": "iterations", "count": 3, "min": 2, "max": 5,
                "mean": 3.0, "p50": 2, "p90": 5, "p99": 5,
                "bins": [[2, 2], [5, 1]],
            },
        },
        "gauges": {"engine.frames_per_second": 14072.3,
                   "shard.frames_assigned": 700,
                   "shard.frames_merged": 240,
                   "shard.frames_in_flight": 0,
                   "shard.frames_lost_and_retried": 460},
        "nondeterministic": ["decode.lane_groups",
                             "engine.frames_per_second"],
    }
    good["counters"].update({"shard.dispatches": 10, "shard.merges": 3,
                             "shard.checkpoint_writes": 24})

    def mutate(fn):
        doc = json.loads(json.dumps(good))
        fn(doc)
        return doc

    bad_docs = [
        ("wrong schema", mutate(lambda d: d.update(schema="v0"))),
        ("missing counters", mutate(lambda d: d.pop("counters"))),
        ("float counter",
         mutate(lambda d: d["counters"].update({"engine.frames": 1.5}))),
        ("negative counter",
         mutate(lambda d: d["counters"].update({"engine.frames": -1}))),
        ("missing hist key",
         mutate(lambda d: d["histograms"]["decode.iterations"].pop("p99"))),
        ("non-finite mean",
         mutate(lambda d: d["histograms"]["decode.iterations"]
                .update(mean=float("nan")))),
        ("bins/count mismatch",
         mutate(lambda d: d["histograms"]["decode.iterations"]
                .update(count=7))),
        ("malformed bin",
         mutate(lambda d: d["histograms"]["decode.iterations"]
                .update(bins=[[2, 2, 9]]))),
        ("non-finite gauge",
         mutate(lambda d: d["gauges"]
                .update({"engine.frames_per_second": float("inf")}))),
        ("unknown nondeterministic name",
         mutate(lambda d: d["nondeterministic"].append("no.such.metric"))),
        # A worker that miscounts interrupted checkpoint writes under
        # an invented name must not slip past the smoke's validation.
        ("unknown shard counter (torn checkpoint)",
         mutate(lambda d: d["counters"]
                .update({"shard.torn_checkpoints": 1}))),
        ("unknown shard gauge",
         mutate(lambda d: d["gauges"].update({"shard.frames_leaked": 3}))),
        ("shard histogram",
         mutate(lambda d: d["histograms"]
                .update({"shard.retries": d["histograms"]
                         ["decode.iterations"]}))),
        ("torn frame ledger",
         mutate(lambda d: d["gauges"]
                .update({"shard.frames_lost_and_retried": 461}))),
        ("not an object", ["not", "a", "dict"]),
    ]

    # --- snapshot streams -------------------------------------------
    def snap(seq, elapsed, final, counters, hists=None):
        return {"schema": SNAPSHOT_SCHEMA, "seq": seq,
                "elapsed_ms": elapsed, "final": final,
                "counters": counters, "histograms": hists or {},
                "gauges": {}}

    def shist(count, delta):
        return {"count": count, "delta_count": delta, "min": 3, "max": 9,
                "p50": 5, "p99": 9}

    good_snaps = [
        snap(1, 0, False, {"serve.ok": {"total": 10, "delta": 10}},
             {"serve.decode_us": shist(10, 10)}),
        snap(2, 200, False, {"serve.ok": {"total": 25, "delta": 15}},
             {"serve.decode_us": shist(25, 15)}),
        snap(3, 400, True, {"serve.ok": {"total": 30, "delta": 5}},
             {"serve.decode_us": shist(30, 5)}),
    ]
    good_final = {"counters": {"serve.ok": 30},
                  "histograms": {"serve.decode_us": {
                      "unit": "us", "count": 30, "min": 3, "max": 9,
                      "mean": 5.5, "p50": 5, "p90": 9, "p99": 9,
                      "bins": [[3, 10], [5, 10], [9, 10]]}}}

    def msnap(fn):
        docs = json.loads(json.dumps(good_snaps))
        fn(docs)
        return docs

    bad_snaps = [
        ("seq gap", msnap(lambda d: d[1].update(seq=5))),
        ("wrong snapshot schema", msnap(lambda d: d[0].update(schema="v0"))),
        ("elapsed backwards", msnap(lambda d: d[2].update(elapsed_ms=100))),
        ("no final snapshot", msnap(lambda d: d[2].update(final=False))),
        ("early final", msnap(lambda d: d[0].update(final=True))),
        ("total went backwards",
         msnap(lambda d: d[2]["counters"]["serve.ok"]
               .update(total=20, delta=0))),
        ("broken delta telescoping",
         msnap(lambda d: d[1]["counters"]["serve.ok"].update(delta=14))),
        ("broken hist delta_count",
         msnap(lambda d: d[1]["histograms"]["serve.decode_us"]
               .update(delta_count=14))),
    ]

    # --- event journals ---------------------------------------------
    def event(seq, t, kind, source, args):
        return {"schema": EVENTS_SCHEMA, "seq": seq, "t_ms": t,
                "kind": kind, "source": source, "args": args}

    good_events = [
        event(0, 0, "tier_change", "serve", {"tier": 1, "occupancy": 130}),
        event(1, 5, "fault_stall", "serve",
              {"batch_id": 7, "stall_us": 2000}),
        event(2, 9, "dispatch", "dist",
              {"unit": "shard-000-of-004", "attempt": 0, "resume_at": 0}),
        event(3, 9, "service_stop", "serve",
              {"submitted": 100, "ok": 90, "faults_injected": 1}),
    ]

    def mevent(fn):
        docs = json.loads(json.dumps(good_events))
        fn(docs)
        return docs

    bad_events = [
        ("event seq gap", mevent(lambda d: d[2].update(seq=7))),
        ("wrong event schema", mevent(lambda d: d[0].update(schema="v0"))),
        ("t_ms backwards", mevent(lambda d: d[3].update(t_ms=1))),
        ("unknown kind", mevent(lambda d: d[1].update(kind="fault_oops"))),
        ("kind from the wrong source",
         mevent(lambda d: d[2].update(kind="tier_change"))),
        ("unknown source", mevent(lambda d: d[0].update(source="net"))),
        ("non-scalar arg",
         mevent(lambda d: d[0]["args"].update(tier=[1]))),
    ]

    failures = 0
    if validate_metrics_doc(good):
        print("selftest FAIL: good document rejected: "
              f"{validate_metrics_doc(good)}")
        failures += 1
    for label, doc in bad_docs:
        if not validate_metrics_doc(doc):
            print(f"selftest FAIL: mutation accepted: {label}")
            failures += 1
    if validate_snapshot_stream(good_snaps, against=good_final):
        print("selftest FAIL: good snapshot stream rejected: "
              f"{validate_snapshot_stream(good_snaps, against=good_final)}")
        failures += 1
    for label, docs in bad_snaps:
        if not validate_snapshot_stream(docs):
            print(f"selftest FAIL: snapshot mutation accepted: {label}")
            failures += 1
    if not validate_snapshot_stream(
            good_snaps, against={"counters": {"serve.ok": 31}}):
        print("selftest FAIL: final/flush total mismatch accepted")
        failures += 1
    bad_hist_final = json.loads(json.dumps(good_final))
    bad_hist_final["histograms"]["serve.decode_us"]["p99"] = 10
    if not validate_snapshot_stream(good_snaps, against=bad_hist_final):
        print("selftest FAIL: final/flush histogram mismatch accepted")
        failures += 1
    if not validate_snapshot_stream(good_snaps, min_count=10):
        print("selftest FAIL: short stream accepted against --min-count")
        failures += 1
    if validate_event_stream(good_events):
        print("selftest FAIL: good event journal rejected: "
              f"{validate_event_stream(good_events)}")
        failures += 1
    for label, docs in bad_events:
        if not validate_event_stream(docs):
            print(f"selftest FAIL: event mutation accepted: {label}")
            failures += 1
    total = (1 + len(bad_docs) + 4 + len(bad_snaps) + 1 + len(bad_events))
    if failures:
        print(f"selftest: {failures} failure(s)")
        return 1
    print(f"selftest: ok ({total} documents)")
    return 0


def load_rates(path):
    with open(path) as f:
        data = json.load(f)
    rates = {}
    for record in data.get("benchmarks", []):
        rate = record.get("items_per_second")
        if rate:
            rates[record["name"]] = float(rate)
    return rates


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("run", nargs="?")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="fractional deviation that triggers a warning")
    parser.add_argument("--update-missing", action="store_true",
                        help="append this run's records for benchmarks the "
                             "baseline lacks, rewriting the baseline file")
    parser.add_argument("--validate-metrics", metavar="FILE",
                        help="validate a cldpc-metrics-v1 JSON file and exit "
                             "(hard gate: exit 1 on violations)")
    parser.add_argument("--validate-snapshots", metavar="FILE",
                        help="validate a cldpc-metrics-snapshot-v1 JSONL "
                             "stream and exit (hard gate)")
    parser.add_argument("--against", metavar="FILE",
                        help="with --validate-snapshots: require the final "
                             "snapshot's totals to equal this "
                             "cldpc-metrics-v1 file's counters")
    parser.add_argument("--min-count", type=int, default=2,
                        help="with --validate-snapshots: minimum number of "
                             "snapshots in the stream")
    parser.add_argument("--validate-events", metavar="FILE",
                        help="validate a cldpc-events-v1 JSONL journal and "
                             "exit (hard gate)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the validators against built-in good/bad "
                             "documents and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.validate_metrics:
        return validate_metrics(args.validate_metrics)
    if args.validate_snapshots:
        return validate_snapshots(args.validate_snapshots, args.against,
                                  args.min_count)
    if args.validate_events:
        return validate_events(args.validate_events)
    if not args.run or not args.baseline:
        parser.error("run and baseline are required unless a "
                     "--validate-* flag or --selftest is given")

    run = load_rates(args.run)
    baseline = load_rates(args.baseline)
    common = sorted(set(run) & set(baseline))
    in_actions = bool(os.environ.get("GITHUB_ACTIONS"))
    regressions = 0
    if not common:
        # Nothing to compare, but fall through: --update-missing must
        # still be able to seed a baseline from a disjoint run.
        print("no overlapping benchmarks between run and baseline")
    else:
        width = max(len(name) for name in common)
        print(f"{'benchmark':<{width}}  {'baseline':>12}  {'run':>12}  ratio")
        for name in common:
            ratio = run[name] / baseline[name]
            flag = ""
            if ratio < 1.0 - args.tolerance:
                flag = "  << REGRESSION"
                regressions += 1
                msg = (f"bench regression: {name} at {ratio:.2f}x baseline "
                       f"({run[name]:.3g}/s vs {baseline[name]:.3g}/s)")
                if in_actions:
                    print(f"::warning::{msg}")
            elif ratio > 1.0 + args.tolerance:
                flag = "  (faster)"
            print(f"{name:<{width}}  {baseline[name]:>12.4g}"
                  f"  {run[name]:>12.4g}  {ratio:5.2f}x{flag}")

    missing = sorted(set(baseline) - set(run))
    if missing:
        msg = "benchmarks missing from this run: " + ", ".join(missing)
        print(msg)
        if in_actions:
            print(f"::warning::{msg}")

    unbaselined = sorted(set(run) - set(baseline))
    if unbaselined and args.update_missing:
        with open(args.run) as f:
            run_records = {r["name"]: r
                           for r in json.load(f).get("benchmarks", [])}
        # Append textually in the file's one-record-per-line style:
        # existing lines stay byte-identical (re-serializing would
        # reformat every float), so the VCS diff is only the added
        # records.
        with open(args.baseline) as f:
            text = f.read()
        closer = "\n  ]\n}"
        idx = text.rfind(closer)
        if idx < 0:
            print("cannot update: baseline does not end with '  ]\\n}'")
            return 1
        insertion = "".join(
            ",\n    " + json.dumps(run_records[name], separators=(", ", ": "))
            for name in unbaselined)
        updated = text[:idx] + insertion + text[idx:]
        json.loads(updated)  # must still be valid JSON
        with open(args.baseline, "w") as f:
            f.write(updated)
        print("added to baseline: " + ", ".join(unbaselined))
    elif unbaselined:
        msg = ("benchmarks not in the baseline (run with --update-missing "
               "to track them): " + ", ".join(unbaselined))
        print(msg)
        if in_actions:
            print(f"::warning::{msg}")

    if regressions:
        print(f"{regressions} benchmark(s) below {1 - args.tolerance:.2f}x "
              "baseline (warn-only; see above)")
    else:
        print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
