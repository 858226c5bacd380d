#!/usr/bin/env python3
"""CI gate over bench counter snapshots.

Reads a bench JSON report and checks one counter-snapshot section
(--section, default "counters_lossfree" for bench_fabric_kvstore;
bench_fig11_overview gates its plain "counters" section) against
built-in invariants plus (optionally) a checked-in baseline:

 1. Zero retransmissions on a loss-free fabric. transport.retransmits
    and transport.fast_retransmits firing without wire loss means the
    RTO estimator or the SACK scoreboard regressed.

 2. Signaling efficiency: ccnic.signal_reads per delivered packet must
    stay under a checked-in bound. The CC-NIC data plane's value is
    dominated by idle-poll reads of quiescent signal lines (cheap LLC
    hits, but each is a coherence transaction); a jump in this ratio
    means someone broke the single-line signaling discipline or made a
    poll loop spin faster.

 3. Rate check: the "timeseries_lossfree" section (periodic sampler
    deltas) must show zero retransmit deltas in every interval — an
    end-of-run total of zero can hide a retransmit burst cancelled by
    a Registry reset, the per-interval deltas cannot.

 4. Baseline diff (--baseline FILE): per-packet-normalized expected
    counter values with a tolerance band. Counters listed under
    "per_packet" are divided by the "normalize_by" counter and
    compared against the recorded expectation; an increase beyond
    (1 + tolerance) fails. An entry may also be an object
    {"expected": X, "normalize_by": "other.counter"} to normalize by
    a different counter — multi-interface benches normalize each
    family's counters by that family's own delivered-packet count.
    Gauges are never normalized per-packet: a gauge appearing in
    "per_packet" is a config error, and rows are classified by the
    "kind" column of the snapshot. Metrics under "zero" must be
    exactly zero. Metrics under "absolute" are raw (unnormalized)
    event counts banded as actual <= expected * (1 + tolerance) —
    used for watchdog.escalations{stage=...}: a chaos run's recovery
    count tracks the injected-fault count, not the packet count.

 5. Recovery escalations must not fire on a loss-free run: any
    nonzero watchdog.escalations{stage=...} counter fails the gate
    unless the run is lossy. A fault-free workload that trips the
    watchdog means spurious stall detection or integrity
    false-positives regressed. Lossy baselines instead band the
    escalation counts via "absolute".

 6. Per-region coherence bands (baseline key "coherence"): when the
    report carries the profiler's "coherence" section, region rows
    are aggregated by name prefix ("ccnic." matches
    ccnic.tx_ring[q0], ccnic.host_beat, ...) and each listed metric
    (remote_reads / remote_rfos / invalidations / migratory / bytes)
    is normalized per delivered packet and banded against the
    recorded expectation, exactly like "per_packet" counters. The
    optional "min_attribution" field requires that at least that
    fraction of remote reads+RFOs resolve to a named region (the
    "unknown" row holds the rest); "max_pingpong" pins the ping-pong
    line count of a prefix (accidental false sharing creeping into a
    region that should stay quiet).

 7. Report checks (REPORT_CHECKS, keyed by the report's "bench"
    name): declarative assertions on the report's own table sections,
    e.g. that fig16's CC-NIC publish batch of 4 beats no batching, or
    that the PIO small-message summary says PIO wins. They apply to
    every gate run over a report of that bench, with or without a
    baseline.

The rate check (3) looks for the time-series section whose name
derives from the counter section's ("counters*" -> "timeseries*").

Regenerate the baseline after an intentional perf change with
--write-baseline (then eyeball the diff before committing):

    build/bench/bench_fabric_kvstore          # with CCN_JSON_DIR set
    tools/counters_gate.py BENCH_fabric_kvstore.json \
        --write-baseline bench/baselines/fabric_kvstore.json

Usage: counters_gate.py <BENCH_fabric_kvstore.json>
           [--max-signal-reads-per-pkt N]
           [--baseline bench/baselines/fabric_kvstore.json]
           [--tolerance T] [--write-baseline OUT]
       counters_gate.py --selftest
"""

import argparse
import json
import os
import sys
import tempfile

# Measured ~6.7 signal reads per delivered packet on the reference run
# (idle-poll reads across 6 queue pairs dominate; the per-packet data
# path costs ~2). The bound leaves generous headroom for scheduling
# jitter across platforms while still catching a regression that makes
# a poll loop spin per-packet (an order-of-magnitude jump).
DEFAULT_MAX_SIGNAL_READS_PER_PKT = 32.0

# Default tolerance band for baseline per-packet comparisons: the
# simulator is deterministic, but baseline values are normalized
# ratios and small shifts (batch boundaries, drain-phase length) move
# them by a few percent across legitimate changes.
DEFAULT_TOLERANCE = 0.25

# Default counter-snapshot section to gate (bench_fabric_kvstore's
# loss-free snapshot); override with --section for other benches.
DEFAULT_SECTION = "counters_lossfree"

# Counters whose per-packet cost the baseline tracks by default when
# writing one, as (counter, normalizer) pairs — None means the
# baseline's top-level "normalize_by". Chosen to cover the interface
# mechanisms the paper measures: ring signaling, descriptor/doorbell
# traffic, buffer pool churn, coherence transactions, and the PIO
# family's slot-metadata signaling.
BASELINE_TRACKED = [
    ("ccnic.signal_reads", None),
    ("ccnic.signal_writes", None),
    ("ccnic.tx_packets", None),
    ("pool.allocs", None),
    ("pool.frees", None),
    ("mem.remote_reads", None),
    ("mem.remote_rfos", None),
    ("pio.slot_polls", "pio.rx_delivered"),
    ("pio.slot_writes", "pio.rx_delivered"),
    ("pio.tx_packets", "pio.rx_delivered"),
]

# Per-family delivered-packet counters, in preference order. The
# baseline normalizer falls back down this list, so a report from a
# single-family bench (e.g. a PIO-only run) can still be gated and
# baselined instead of hard-failing on the absent ccnic counter.
FAMILY_NORMALIZERS = [
    "ccnic.rx_delivered",
    "pio.rx_delivered",
    "pcie_nic.tx_packets",
]


def pick_normalizer(c: dict):
    """First family delivered-counter present and nonzero, or None."""
    for name in FAMILY_NORMALIZERS:
        if c.get(name, 0.0) > 0:
            return name
    return None


def families_present(c: dict) -> str:
    """Which family delivered-counters the report carries (diag)."""
    present = [n for n in FAMILY_NORMALIZERS if n in c]
    return ", ".join(present) if present else "none"


BASELINE_ZERO = [
    "transport.retransmits",
    "transport.fast_retransmits",
    "transport.timeouts",
    "transport.aborts",
    "net.link.fault_drops",
    "net.link.down_drops",
]

# Labeled recovery-escalation counters: watchdog.escalations{stage=X}
# for X in retry/reset/failover. Zero-cost when nothing fired (the
# labeled children only register on first increment), so a loss-free
# run simply has no such rows — any present-and-nonzero one is a
# regression. Lossy baselines band them with "absolute" instead.
ESCALATION_PREFIX = "watchdog.escalations{"


def escalation_counters(c: dict) -> dict:
    """The watchdog escalation-stage counters present in a snapshot."""
    return {k: v for k, v in c.items()
            if k.startswith(ESCALATION_PREFIX)}


def load_sections(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return doc["sections"]


def counters_of(sections: dict, section: str, path: str):
    """Return ({name: value}, {name: kind}) for a snapshot section."""
    sec = sections.get(section)
    if sec is None:
        raise SystemExit(
            f"FAIL: section '{section}' missing from {path}")
    values, kinds = {}, {}
    for row in sec["rows"]:
        values[row["counter"]] = float(row["value"])
        # Older reports lack the kind column; treat those as counters.
        kinds[row["counter"]] = row.get("kind", "counter")
    return values, kinds


def check_invariants(c: dict, max_reads_per_pkt: float,
                     failures: list, lossy: bool = False) -> None:
    rtx = c.get("transport.retransmits", 0.0)
    frtx = c.get("transport.fast_retransmits", 0.0)
    if lossy:
        # Runs that inject wire loss / faults retransmit by design;
        # the efficiency invariants below still apply.
        print(f"lossy run: retransmits={rtx:.0f} "
              f"fast_retransmits={frtx:.0f} (allowed)")
    elif rtx + frtx > 0:
        failures.append(
            f"loss-free run retransmitted: transport.retransmits="
            f"{rtx:.0f} transport.fast_retransmits={frtx:.0f}")

    # Recovery escalations on a loss-free run mean the watchdog fired
    # with no fault injected: spurious stall detection, integrity
    # false positives, or a runaway reset loop.
    esc = {k: v for k, v in escalation_counters(c).items() if v > 0}
    if esc:
        desc = " ".join(f"{k}={v:.0f}" for k, v in sorted(esc.items()))
        if lossy:
            print(f"lossy run: escalations allowed ({desc})")
        else:
            failures.append(
                f"loss-free run escalated recovery: {desc}")

    # Signaling-efficiency invariants apply per family, each only
    # when that family actually delivered packets; a report from a
    # single-family bench must not fail on the families it never ran.
    if pick_normalizer(c) is None:
        failures.append(
            "no interface family delivered packets (looked for "
            + ", ".join(FAMILY_NORMALIZERS) + "; present: "
            + families_present(c) + ")")

    reads = c.get("ccnic.signal_reads")
    delivered = c.get("ccnic.rx_delivered", 0.0)
    if delivered > 0:
        if reads is None:
            failures.append(
                "ccnic.signal_reads missing despite "
                f"ccnic.rx_delivered={delivered:.0f}")
        else:
            ratio = reads / delivered
            print(f"signal reads per delivered packet: {ratio:.2f} "
                  f"(bound {max_reads_per_pkt})")
            if ratio > max_reads_per_pkt:
                failures.append(
                    f"signaling efficiency regressed: {ratio:.2f} "
                    f"signal reads per packet > bound "
                    f"{max_reads_per_pkt}")

    # The PIO family's analogue of the signaling discipline: slot
    # polls per delivered packet. Only checked when the section came
    # from a bench that ran a PIO interface.
    polls = c.get("pio.slot_polls")
    pio_delivered = c.get("pio.rx_delivered", 0.0)
    if polls is not None and pio_delivered > 0:
        ratio = polls / pio_delivered
        print(f"pio slot polls per delivered packet: {ratio:.2f} "
              f"(bound {max_reads_per_pkt})")
        if ratio > max_reads_per_pkt:
            failures.append(
                f"PIO signaling efficiency regressed: {ratio:.2f} "
                f"slot polls per packet > bound {max_reads_per_pkt}")


def check_timeseries(sections: dict, section: str,
                     failures: list, lossy: bool = False) -> None:
    ts_name = section.replace("counters", "timeseries", 1)
    if lossy:
        # Retransmit rates are expected under injected loss.
        print(f"{ts_name}: retransmit-rate checks skipped "
              "(lossy run)")
        return
    sec = sections.get(ts_name)
    if sec is None:
        # Reports predating the sampler: nothing to rate-check.
        print(f"{ts_name} absent; skipping rate checks")
        return
    bad = 0
    for row in sec["rows"]:
        metric = row["metric"]
        if metric.startswith("transport.retransmits") or \
                metric.startswith("transport.fast_retransmits"):
            if float(row["delta"]) > 0:
                bad += 1
    print(f"{ts_name}: {len(sec['rows'])} rows, "
          f"{bad} retransmit-rate violations")
    if bad:
        failures.append(
            f"loss-free timeseries shows {bad} sampling interval(s) "
            "with a nonzero retransmit rate")


def check_baseline(c: dict, kinds: dict, baseline: dict,
                   tolerance: float, failures: list) -> None:
    norm_name = baseline.get("normalize_by")
    if norm_name is None:
        norm_name = pick_normalizer(c)
        if norm_name is None:
            failures.append(
                "baseline has no 'normalize_by' and no family "
                "delivered-packet counter is present (families in "
                f"report: {families_present(c)})")
            return
        print(f"baseline normalizer defaulted to {norm_name}")
    norm = c.get(norm_name, 0.0)
    if norm <= 0:
        failures.append(
            f"baseline normalizer '{norm_name}' missing or zero "
            f"(families present: {families_present(c)})")
        return
    tol = baseline.get("tolerance", tolerance)

    for name, entry in baseline.get("per_packet", {}).items():
        if kinds.get(name) == "gauge":
            failures.append(
                f"baseline lists gauge '{name}' under per_packet; "
                "gauges are high-water marks and must not be "
                "normalized per packet")
            continue
        # Entries are either a bare expectation (normalized by the
        # top-level counter) or {"expected", "normalize_by"} for
        # counters that track a different interface's packet count.
        if isinstance(entry, dict):
            expected = float(entry["expected"])
            this_norm = c.get(entry["normalize_by"], 0.0)
            if this_norm <= 0:
                failures.append(
                    f"baseline normalizer '{entry['normalize_by']}' "
                    f"for '{name}' missing or zero")
                continue
        else:
            expected = float(entry)
            this_norm = norm
        actual = c.get(name)
        if actual is None:
            failures.append(f"baseline counter '{name}' missing "
                            "from report")
            continue
        per_pkt = actual / this_norm
        bound = expected * (1.0 + tol)
        verdict = "ok"
        if per_pkt > bound:
            verdict = "REGRESSED"
            failures.append(
                f"{name}: {per_pkt:.4f} per packet exceeds baseline "
                f"{expected:.4f} (+{tol * 100:.0f}% tolerance = "
                f"{bound:.4f})")
        elif per_pkt < expected * (1.0 - tol):
            verdict = "improved (consider refreshing baseline)"
        print(f"baseline {name}: {per_pkt:.4f}/pkt vs "
              f"{expected:.4f}/pkt -> {verdict}")

    for name in baseline.get("zero", []):
        v = c.get(name, 0.0)
        if v != 0:
            failures.append(
                f"{name} expected to be zero, got {v:.0f}")

    # Absolute bands: raw event counts (no normalization) that must
    # not exceed expected * (1 + tolerance). Deterministic chaos runs
    # record watchdog.escalations{stage=...} here — escalations track
    # the injected-fault count, so a blowup means the recovery ladder
    # is thrashing (e.g. a reset storm), while an absent counter is
    # simply zero events and always within band.
    for name, entry in baseline.get("absolute", {}).items():
        expected = float(entry)
        actual = c.get(name, 0.0)
        bound = expected * (1.0 + tol)
        verdict = "ok"
        if actual > bound:
            verdict = "REGRESSED"
            failures.append(
                f"{name}: {actual:.0f} events exceed baseline "
                f"{expected:.0f} (+{tol * 100:.0f}% tolerance = "
                f"{bound:.1f})")
        print(f"baseline {name}: {actual:.0f} vs {expected:.0f} "
              f"events -> {verdict}")


def coherence_rows(sections: dict):
    """Rows of the profiler's per-region section, or None."""
    sec = sections.get("coherence")
    return None if sec is None else sec["rows"]


COHERENCE_METRICS = ["remote_reads", "remote_rfos", "invalidations",
                     "migratory", "bytes"]


def aggregate_regions(rows: list, prefix: str) -> dict:
    """Sum the per-region metrics over regions matching a prefix."""
    agg = {m: 0.0 for m in COHERENCE_METRICS}
    agg["pingpong_lines"] = 0.0
    agg["_matched"] = 0
    for r in rows:
        if not r["region"].startswith(prefix):
            continue
        agg["_matched"] += 1
        for m in COHERENCE_METRICS:
            agg[m] += float(r[m])
        agg["pingpong_lines"] += float(r["pingpong_lines"])
    return agg


def check_coherence(sections: dict, c: dict, coh: dict,
                    tolerance: float, failures: list) -> None:
    """Band per-region-prefix coherence traffic against a baseline.

    Baseline shape (under the top-level "coherence" key):
      "normalize_by":   packet counter for the per-packet bands
                        (default: the family fallback list)
      "min_attribution": required fraction of remote reads+RFOs
                        resolved to named (non-"unknown") regions
      "regions": { "<prefix>": {"remote_reads": X, ...,
                                "max_pingpong": N} }
    Metric bands are per-packet like "per_packet" counters; the
    optional "max_pingpong" is an absolute line count.
    """
    rows = coherence_rows(sections)
    if rows is None:
        failures.append(
            "baseline has a 'coherence' section but the report "
            "carries none (bench run without --profile-coherence?)")
        return
    tol = coh.get("tolerance", tolerance)

    min_attr = coh.get("min_attribution")
    if min_attr is not None:
        total = attributed = 0.0
        for r in rows:
            t = float(r["remote_reads"]) + float(r["remote_rfos"])
            total += t
            if r["region"] != "unknown":
                attributed += t
        frac = attributed / total if total else 1.0
        print(f"coherence attribution: {100.0 * frac:.1f}% "
              f"(required {100.0 * float(min_attr):.1f}%)")
        if total == 0:
            failures.append(
                "coherence section recorded no remote reads/RFOs "
                "(profiler disabled?)")
        elif frac < float(min_attr):
            failures.append(
                f"coherence attribution {frac:.3f} below required "
                f"{float(min_attr):.3f}")

    norm_name = coh.get("normalize_by") or pick_normalizer(c)
    norm = c.get(norm_name, 0.0) if norm_name else 0.0
    for prefix, bands in coh.get("regions", {}).items():
        agg = aggregate_regions(rows, prefix)
        if agg["_matched"] == 0:
            failures.append(
                f"coherence baseline prefix '{prefix}' matches no "
                "region in the report")
            continue
        for metric, entry in bands.items():
            if metric == "max_pingpong":
                limit = float(entry)
                if agg["pingpong_lines"] > limit:
                    failures.append(
                        f"coherence {prefix}: "
                        f"{agg['pingpong_lines']:.0f} ping-pong "
                        f"lines exceed bound {limit:.0f} (false "
                        "sharing / thrash crept into the region)")
                else:
                    print(f"coherence {prefix} pingpong_lines: "
                          f"{agg['pingpong_lines']:.0f} <= "
                          f"{limit:.0f} -> ok")
                continue
            if metric not in COHERENCE_METRICS:
                failures.append(
                    f"coherence baseline lists unknown metric "
                    f"'{metric}' for prefix '{prefix}'")
                continue
            if norm <= 0:
                failures.append(
                    f"coherence normalizer "
                    f"'{norm_name or '<none>'}' missing or zero")
                break
            expected = float(entry)
            per_pkt = agg[metric] / norm
            bound = expected * (1.0 + tol)
            verdict = "ok"
            if per_pkt > bound:
                verdict = "REGRESSED"
                failures.append(
                    f"coherence {prefix}{metric}: {per_pkt:.4f} per "
                    f"packet exceeds baseline {expected:.4f} "
                    f"(+{tol * 100:.0f}% tolerance = {bound:.4f})")
            elif per_pkt < expected * (1.0 - tol):
                verdict = "improved (consider refreshing baseline)"
            print(f"coherence {prefix}{metric}: {per_pkt:.4f}/pkt "
                  f"vs {expected:.4f}/pkt -> {verdict}")


def write_coherence_baseline(sections: dict, c: dict,
                             tolerance: float):
    """Per-prefix coherence bands for --write-baseline, or None."""
    rows = coherence_rows(sections)
    if not rows:
        return None
    norm_name = pick_normalizer(c)
    if norm_name is None:
        return None
    norm = c[norm_name]
    prefixes = sorted({r["region"].split(".", 1)[0] + "."
                       for r in rows if r["region"] != "unknown"})
    regions = {}
    for prefix in prefixes:
        agg = aggregate_regions(rows, prefix)
        if all(agg[m] == 0 for m in COHERENCE_METRICS):
            continue
        bands = {m: round(agg[m] / norm, 6)
                 for m in COHERENCE_METRICS if agg[m] > 0}
        bands["max_pingpong"] = round(agg["pingpong_lines"])
        regions[prefix] = bands
    if not regions:
        return None
    return {
        "normalize_by": norm_name,
        "tolerance": tolerance,
        "min_attribution": 0.95,
        "regions": regions,
    }


def write_baseline(c: dict, kinds: dict, out_path: str,
                   tolerance: float, section: str,
                   lossy: bool = False, sections: dict = None) -> None:
    norm_name = pick_normalizer(c)
    if norm_name is None:
        raise SystemExit(
            "FAIL: cannot write baseline, no family delivered-packet "
            "counter present (looked for: "
            + ", ".join(FAMILY_NORMALIZERS) + ")")
    norm = c[norm_name]
    per_pkt = {}
    for name, custom_norm in BASELINE_TRACKED:
        if name not in c or kinds.get(name) == "gauge":
            continue
        if custom_norm is None:
            per_pkt[name] = round(c[name] / norm, 6)
        else:
            cn = c.get(custom_norm, 0.0)
            if cn > 0:
                per_pkt[name] = {
                    "expected": round(c[name] / cn, 6),
                    "normalize_by": custom_norm,
                }
    doc = {
        "section": section,
        "normalize_by": norm_name,
        "tolerance": tolerance,
        "per_packet": per_pkt,
        # A lossy run retransmits and drops by design, so nothing is
        # pinned to zero; the flag also relaxes the gate's loss-free
        # invariants when this baseline is applied.
        "zero": [] if lossy else [z for z in BASELINE_ZERO],
    }
    if lossy:
        doc["lossy"] = True
        # Band the recovery-escalation counts the run produced: a
        # deterministic fault schedule recovers a fixed number of
        # times, so a later blowup (reset storm, retry thrash) trips
        # the absolute band even though the run is lossy.
        esc = {k: round(v) for k, v in escalation_counters(c).items()}
        if esc:
            doc["absolute"] = esc
    if sections is not None:
        coh = write_coherence_baseline(sections, c, tolerance)
        if coh is not None:
            doc["coherence"] = coh
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline written to {out_path}")


# Declarative checks on a report's table sections, by the report's
# "bench" name. Rows are picked by column values compared as strings
# (a sweep's batch column mixes "off" and numbers). Kinds:
#   {"sections": [...]}: each section is present;
#   {"section", "row", "than", "higher", "lower"}: the row matching
#       "row" is higher in every "higher" column and lower in every
#       "lower" column than the row matching "than";
#   {"section", "key", "value", "equal": {k: v}}: the row whose "key"
#       column is k holds v in its "value" column;
#   {"section", "column", "includes": [...]}: some row holds each value.
REPORT_CHECKS = {
    # Fig 16c: publishing CC-NIC descriptors in batches of 4 beats
    # publishing each one, in rate and in publish-to-observe time.
    "fig16_batching": [
        {"section": "publish_batch_sweep",
         "row": {"family": "CC-NIC", "batch": "4"},
         "than": {"family": "CC-NIC", "batch": "off"},
         "higher": ["mpps"], "lower": ["pub_obs_mean_ns"]},
    ],
    # PIO's small-message sweep: PIO beats both ring paths, and the
    # latency section covers both PIO paths.
    "pio_smallmsg": [
        {"sections": ["latency_by_size", "summary", "counters",
                      "latency", "timeseries"]},
        {"section": "summary", "key": "metric", "value": "value",
         "equal": {"PIO beats ring-over-coherence": "yes",
                   "PIO beats ring-over-PCIe": "yes"}},
        {"section": "latency", "column": "path",
         "includes": ["pio", "pio_cxl"]},
    ],
}


def _matching_row(rows: list, want: dict):
    """The first row whose columns equal want's values, or None."""
    for r in rows:
        if all(str(r.get(k)) == str(v) for k, v in want.items()):
            return r
    return None


def check_report(bench: str, sections: dict, failures: list) -> None:
    """Apply REPORT_CHECKS[bench] to a report's sections."""
    for chk in REPORT_CHECKS.get(bench, []):
        if "sections" in chk:
            missing = [n for n in chk["sections"] if n not in sections]
            if missing:
                failures.append(f"{bench}: missing sections {missing}")
            continue
        name = chk["section"]
        if name not in sections:
            failures.append(f"{bench}: missing section '{name}'")
            continue
        rows = sections[name]["rows"]
        if "row" in chk:
            row = _matching_row(rows, chk["row"])
            than = _matching_row(rows, chk["than"])
            if row is None or than is None:
                failures.append(f"{bench}.{name}: no row for "
                                f"{chk['row']} or {chk['than']}")
                continue
            for col, sign in ([(c, 1) for c in chk.get("higher", [])] +
                              [(c, -1) for c in chk.get("lower", [])]):
                a, b = float(row[col]), float(than[col])
                ok = (a - b) * sign > 0
                print(f"{bench}.{name} {col}: {chk['row']} {a:g} vs "
                      f"{chk['than']} {b:g} -> "
                      f"{'ok' if ok else 'FAILED'}")
                if not ok:
                    failures.append(
                        f"{bench}.{name}: {col} of {chk['row']} ({a:g}) "
                        f"is not {'above' if sign > 0 else 'below'} "
                        f"that of {chk['than']} ({b:g})")
        elif "equal" in chk:
            got = {str(r[chk["key"]]): r[chk["value"]] for r in rows}
            for k, v in chk["equal"].items():
                if str(got.get(k)) != str(v):
                    failures.append(f"{bench}.{name}: '{k}' is "
                                    f"{got.get(k)!r}, expected {v!r}")
                else:
                    print(f"{bench}.{name}: '{k}' = {v!r} -> ok")
        else:
            have = {str(r.get(chk["column"])) for r in rows}
            missing = [v for v in chk["includes"] if str(v) not in have]
            if missing:
                failures.append(f"{bench}.{name}: no row with "
                                f"{chk['column']} in {missing}")
            else:
                print(f"{bench}.{name}: {chk['column']} covers "
                      f"{chk['includes']} -> ok")


def run_gate(report: str, baseline_path: str,
             max_reads_per_pkt: float, tolerance: float,
             section: str = DEFAULT_SECTION,
             lossy: bool = False) -> int:
    with open(report, encoding="utf-8") as f:
        doc = json.load(f)
    sections = doc["sections"]
    c, kinds = counters_of(sections, section, report)
    baseline = None
    if baseline_path:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
        lossy = lossy or bool(baseline.get("lossy"))
    failures = []
    check_invariants(c, max_reads_per_pkt, failures, lossy)
    check_timeseries(sections, section, failures, lossy)
    check_report(doc.get("bench", ""), sections, failures)
    if baseline is not None:
        check_baseline(c, kinds, baseline, tolerance, failures)
        if "coherence" in baseline:
            check_coherence(sections, c, baseline["coherence"],
                            tolerance, failures)
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("counters gate passed")
    return 0


# ---------------------------------------------------------------------------
# Self-test: a clean synthetic report must pass and an injected
# signal-read regression must fail. Registered as a ctest so the gate
# itself cannot silently rot.

def _synthetic_report(signal_reads: float) -> dict:
    rows = [
        {"counter": "ccnic.rx_delivered", "kind": "counter",
         "value": 100000},
        {"counter": "ccnic.signal_reads", "kind": "counter",
         "value": signal_reads},
        {"counter": "ccnic.signal_writes", "kind": "counter",
         "value": 250000},
        {"counter": "ccnic.peak_queue_depth", "kind": "gauge",
         "value": 37},
        {"counter": "transport.retransmits", "kind": "counter",
         "value": 0},
        {"counter": "transport.fast_retransmits", "kind": "counter",
         "value": 0},
    ]
    ts_rows = [
        {"run": 1, "t_us": 25.0, "metric": "ccnic.signal_reads",
         "kind": "counter", "value": 1000, "delta": 1000},
        {"run": 1, "t_us": 50.0, "metric": "transport.retransmits",
         "kind": "counter", "value": 0, "delta": 0},
    ]
    return {
        "bench": "selftest",
        "sections": {
            "counters_lossfree": {
                "columns": ["counter", "kind", "value"],
                "rows": rows,
            },
            "timeseries_lossfree": {
                "columns": ["run", "t_us", "metric", "kind", "value",
                            "delta"],
                "rows": ts_rows,
            },
        },
    }


def selftest() -> int:
    baseline = {
        "section": "counters_lossfree",
        "normalize_by": "ccnic.rx_delivered",
        "tolerance": 0.25,
        "per_packet": {
            "ccnic.signal_reads": 6.7,
            "ccnic.signal_writes": 2.5,
        },
        "zero": ["transport.retransmits",
                 "transport.fast_retransmits"],
    }
    with tempfile.TemporaryDirectory() as td:
        bl = os.path.join(td, "baseline.json")
        with open(bl, "w", encoding="utf-8") as f:
            json.dump(baseline, f)

        clean = os.path.join(td, "clean.json")
        with open(clean, "w", encoding="utf-8") as f:
            json.dump(_synthetic_report(signal_reads=670000), f)
        if run_gate(clean, bl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) != 0:
            print("SELFTEST FAIL: clean report did not pass",
                  file=sys.stderr)
            return 1

        # Inject a 20x signal-read regression: per-packet reads jump
        # from 6.7 to 134, tripping both the absolute bound and the
        # baseline band.
        bad = os.path.join(td, "regressed.json")
        with open(bad, "w", encoding="utf-8") as f:
            json.dump(_synthetic_report(signal_reads=13400000), f)
        if run_gate(bad, bl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: injected signal-read regression "
                  "passed the gate", file=sys.stderr)
            return 1

        # A gauge listed under per_packet must be rejected, not
        # silently diffed as if it were monotonic.
        gauge_bl = dict(baseline)
        gauge_bl["per_packet"] = {"ccnic.peak_queue_depth": 0.1}
        gbl = os.path.join(td, "gauge_baseline.json")
        with open(gbl, "w", encoding="utf-8") as f:
            json.dump(gauge_bl, f)
        if run_gate(clean, gbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: gauge under per_packet passed",
                  file=sys.stderr)
            return 1

        # A retransmit burst visible only in the time series (end
        # total zeroed by a registry reset) must still fail.
        bursty = _synthetic_report(signal_reads=670000)
        bursty["sections"]["timeseries_lossfree"]["rows"].append(
            {"run": 1, "t_us": 75.0,
             "metric": "transport.retransmits", "kind": "counter",
             "value": 5, "delta": 5})
        bpath = os.path.join(td, "bursty.json")
        with open(bpath, "w", encoding="utf-8") as f:
            json.dump(bursty, f)
        if run_gate(bpath, bl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: retransmit burst in timeseries "
                  "passed", file=sys.stderr)
            return 1

        # Section generalization: a fig11-style report gates its plain
        # "counters" section, with PIO counters normalized by the PIO
        # family's own delivered count via a per-entry normalizer.
        def fig11_report(slot_polls: float) -> dict:
            doc = _synthetic_report(signal_reads=670000)
            doc["sections"]["counters"] = doc["sections"].pop(
                "counters_lossfree")
            doc["sections"]["timeseries"] = doc["sections"].pop(
                "timeseries_lossfree")
            doc["sections"]["counters"]["rows"] += [
                {"counter": "pio.rx_delivered", "kind": "counter",
                 "value": 50000},
                {"counter": "pio.slot_polls", "kind": "counter",
                 "value": slot_polls},
            ]
            return doc

        fig_bl = {
            "section": "counters",
            "normalize_by": "ccnic.rx_delivered",
            "tolerance": 0.25,
            "per_packet": {
                "ccnic.signal_reads": 6.7,
                "pio.slot_polls": {"expected": 2.0,
                                   "normalize_by": "pio.rx_delivered"},
            },
            "zero": ["transport.retransmits"],
        }
        fbl = os.path.join(td, "fig11_baseline.json")
        with open(fbl, "w", encoding="utf-8") as f:
            json.dump(fig_bl, f)
        fclean = os.path.join(td, "fig11_clean.json")
        with open(fclean, "w", encoding="utf-8") as f:
            json.dump(fig11_report(slot_polls=100000), f)
        if run_gate(fclean, fbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE, section="counters") != 0:
            print("SELFTEST FAIL: clean sectioned report did not "
                  "pass", file=sys.stderr)
            return 1

        # A PIO slot-poll regression (2 -> 40 polls per delivered
        # packet) must trip both the absolute bound and the
        # per-entry-normalized baseline band.
        fbad = os.path.join(td, "fig11_regressed.json")
        with open(fbad, "w", encoding="utf-8") as f:
            json.dump(fig11_report(slot_polls=2000000), f)
        if run_gate(fbad, fbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE, section="counters") == 0:
            print("SELFTEST FAIL: injected slot-poll regression "
                  "passed the gate", file=sys.stderr)
            return 1

        # A single-family report with no ccnic counters at all must
        # gate cleanly: the invariants and the baseline normalizer
        # fall back to the family that actually ran instead of
        # hard-requiring ccnic.rx_delivered.
        def pio_only_report() -> dict:
            return {
                "bench": "selftest-pio",
                "sections": {
                    "counters": {
                        "columns": ["counter", "kind", "value"],
                        "rows": [
                            {"counter": "pio.rx_delivered",
                             "kind": "counter", "value": 50000},
                            {"counter": "pio.slot_polls",
                             "kind": "counter", "value": 100000},
                            {"counter": "pio.slot_writes",
                             "kind": "counter", "value": 120000},
                            {"counter": "transport.retransmits",
                             "kind": "counter", "value": 0},
                        ],
                    },
                },
            }

        ppath = os.path.join(td, "pio_only.json")
        with open(ppath, "w", encoding="utf-8") as f:
            json.dump(pio_only_report(), f)
        pio_bl = {
            "section": "counters",
            "tolerance": 0.25,
            # No normalize_by: the gate must default per family.
            "per_packet": {"pio.slot_polls": 2.0},
            "zero": ["transport.retransmits"],
        }
        pbl = os.path.join(td, "pio_baseline.json")
        with open(pbl, "w", encoding="utf-8") as f:
            json.dump(pio_bl, f)
        if run_gate(ppath, pbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE, section="counters") != 0:
            print("SELFTEST FAIL: PIO-only report did not pass",
                  file=sys.stderr)
            return 1

        # --write-baseline on the same report must record the PIO
        # normalizer rather than dying on the absent ccnic counter.
        pio_sections = load_sections(ppath)
        pc, pkinds = counters_of(pio_sections, "counters", ppath)
        pout = os.path.join(td, "pio_written.json")
        write_baseline(pc, pkinds, pout, DEFAULT_TOLERANCE,
                       "counters")
        with open(pout, encoding="utf-8") as f:
            written = json.load(f)
        if written.get("normalize_by") != "pio.rx_delivered":
            print("SELFTEST FAIL: written PIO baseline normalizer "
                  f"is {written.get('normalize_by')!r}, expected "
                  "'pio.rx_delivered'", file=sys.stderr)
            return 1

        # Lossy runs (chaos/fault scenarios): retransmits are by
        # design. The plain gate must reject the report, a baseline
        # with "lossy": true must accept it, and the efficiency
        # invariants must still hold even then.
        lossy_doc = _synthetic_report(signal_reads=670000)
        rows = lossy_doc["sections"]["counters_lossfree"]["rows"]
        for row in rows:
            if row["counter"] == "transport.retransmits":
                row["value"] = 148
        lossy_doc["sections"]["timeseries_lossfree"]["rows"].append(
            {"run": 1, "t_us": 75.0,
             "metric": "transport.retransmits", "kind": "counter",
             "value": 148, "delta": 148})
        lpath = os.path.join(td, "lossy.json")
        with open(lpath, "w", encoding="utf-8") as f:
            json.dump(lossy_doc, f)
        if run_gate(lpath, bl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: lossy report passed the "
                  "loss-free gate", file=sys.stderr)
            return 1
        lossy_bl = {k: v for k, v in baseline.items()}
        lossy_bl["lossy"] = True
        lossy_bl["zero"] = []
        lbl = os.path.join(td, "lossy_baseline.json")
        with open(lbl, "w", encoding="utf-8") as f:
            json.dump(lossy_bl, f)
        if run_gate(lpath, lbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) != 0:
            print("SELFTEST FAIL: lossy report rejected despite "
                  "lossy baseline", file=sys.stderr)
            return 1
        # Efficiency invariants survive the lossy relaxation: a
        # signal-read regression must still fail under --lossy.
        lossy_bad = _synthetic_report(signal_reads=13400000)
        lbad = os.path.join(td, "lossy_regressed.json")
        with open(lbad, "w", encoding="utf-8") as f:
            json.dump(lossy_bad, f)
        if run_gate(lbad, lbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: signal-read regression passed "
                  "under lossy baseline", file=sys.stderr)
            return 1

        # Watchdog escalations on a loss-free run must fail even with
        # no baseline at all: recovery firing without injected faults
        # is spurious by definition.
        def escalated_report(resets: float) -> dict:
            doc = _synthetic_report(signal_reads=670000)
            doc["sections"]["counters_lossfree"]["rows"] += [
                {"counter": "watchdog.escalations{stage=retry}",
                 "kind": "counter", "value": resets * 2},
                {"counter": "watchdog.escalations{stage=reset}",
                 "kind": "counter", "value": resets},
            ]
            return doc

        epath = os.path.join(td, "escalated.json")
        with open(epath, "w", encoding="utf-8") as f:
            json.dump(escalated_report(resets=3), f)
        if run_gate(epath, None, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: loss-free escalations passed",
                  file=sys.stderr)
            return 1

        # A lossy baseline bands the escalation count instead: the
        # recorded count passes, a reset storm (3x the band) fails.
        esc_bl = dict(lossy_bl)
        esc_bl["absolute"] = {
            "watchdog.escalations{stage=reset}": 3,
        }
        ebl = os.path.join(td, "esc_baseline.json")
        with open(ebl, "w", encoding="utf-8") as f:
            json.dump(esc_bl, f)
        if run_gate(epath, ebl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) != 0:
            print("SELFTEST FAIL: in-band escalations rejected "
                  "under lossy baseline", file=sys.stderr)
            return 1
        spath = os.path.join(td, "reset_storm.json")
        with open(spath, "w", encoding="utf-8") as f:
            json.dump(escalated_report(resets=9), f)
        if run_gate(spath, ebl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: reset storm passed the absolute "
                  "escalation band", file=sys.stderr)
            return 1

        # Coherence bands: region traffic grouped by prefix and
        # normalized per packet must band like ordinary counters, the
        # attribution floor must hold, and a ping-pong blowout in a
        # should-be-quiet region must fail.
        def coherent_report(ring_reads: float, pingpong: int) -> dict:
            doc = _synthetic_report(signal_reads=670000)
            doc["sections"]["coherence"] = {
                "columns": ["region", "intent", "lines",
                            "remote_reads", "remote_rfos",
                            "invalidations", "migratory", "bytes",
                            "pingpong_lines"],
                "rows": [
                    {"region": "ccnic.tx_ring[q0]",
                     "intent": "two_way", "lines": 128,
                     "remote_reads": ring_reads,
                     "remote_rfos": 50000, "invalidations": 50000,
                     "migratory": 90000, "bytes": 9600000,
                     "pingpong_lines": 0},
                    {"region": "pool.bufs_large", "intent": "owned",
                     "lines": 400, "remote_reads": 120000,
                     "remote_rfos": 40000, "invalidations": 9000,
                     "migratory": 1000, "bytes": 15000000,
                     "pingpong_lines": pingpong},
                    {"region": "unknown", "intent": "-", "lines": 0,
                     "remote_reads": 1000, "remote_rfos": 0,
                     "invalidations": 0, "migratory": 0, "bytes": 0,
                     "pingpong_lines": 0},
                ],
            }
            return doc

        coh_bl = dict(baseline)
        coh_bl["coherence"] = {
            "normalize_by": "ccnic.rx_delivered",
            "min_attribution": 0.95,
            "regions": {
                "ccnic.": {"remote_reads": 1.0,
                           "remote_rfos": 0.5},
                "pool.": {"remote_reads": 1.2, "max_pingpong": 4},
            },
        }
        cbl = os.path.join(td, "coh_baseline.json")
        with open(cbl, "w", encoding="utf-8") as f:
            json.dump(coh_bl, f)
        cclean = os.path.join(td, "coh_clean.json")
        with open(cclean, "w", encoding="utf-8") as f:
            json.dump(coherent_report(ring_reads=100000, pingpong=2),
                      f)
        if run_gate(cclean, cbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) != 0:
            print("SELFTEST FAIL: clean coherence report rejected",
                  file=sys.stderr)
            return 1

        # 3x remote-read blowup on the ring prefix must fail.
        cbad = os.path.join(td, "coh_regressed.json")
        with open(cbad, "w", encoding="utf-8") as f:
            json.dump(coherent_report(ring_reads=300000, pingpong=2),
                      f)
        if run_gate(cbad, cbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: coherence read regression passed",
                  file=sys.stderr)
            return 1

        # Ping-pong lines appearing in the pool region past the band
        # (false sharing creeping in) must fail.
        cpp = os.path.join(td, "coh_pingpong.json")
        with open(cpp, "w", encoding="utf-8") as f:
            json.dump(coherent_report(ring_reads=100000,
                                      pingpong=40), f)
        if run_gate(cpp, cbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: pool ping-pong blowout passed",
                  file=sys.stderr)
            return 1

        # A coherence baseline against a report with no coherence
        # section (profiler not enabled) must fail, not skip.
        if run_gate(clean, cbl, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                    DEFAULT_TOLERANCE) == 0:
            print("SELFTEST FAIL: sectionless report passed a "
                  "coherence baseline", file=sys.stderr)
            return 1

        # --write-baseline must record per-prefix coherence bands
        # when the report carries the section.
        csections = load_sections(cclean)
        cc2, ck2 = counters_of(csections, "counters_lossfree",
                               cclean)
        cout = os.path.join(td, "coh_written.json")
        write_baseline(cc2, ck2, cout, DEFAULT_TOLERANCE,
                       "counters_lossfree", sections=csections)
        with open(cout, encoding="utf-8") as f:
            cwritten = json.load(f)
        wrote = cwritten.get("coherence", {}).get("regions", {})
        if "ccnic." not in wrote or "pool." not in wrote:
            print("SELFTEST FAIL: written baseline lacks coherence "
                  f"prefixes: {sorted(wrote)}", file=sys.stderr)
            return 1

        # --write-baseline --lossy must record the escalation counts
        # it saw as absolute bands.
        esc_sections = load_sections(epath)
        ec, ekinds = counters_of(esc_sections, "counters_lossfree",
                                 epath)
        eout = os.path.join(td, "esc_written.json")
        write_baseline(ec, ekinds, eout, DEFAULT_TOLERANCE,
                       "counters_lossfree", lossy=True)
        with open(eout, encoding="utf-8") as f:
            ewritten = json.load(f)
        if ewritten.get("absolute", {}).get(
                "watchdog.escalations{stage=reset}") != 3:
            print("SELFTEST FAIL: lossy written baseline did not "
                  "record escalation absolutes: "
                  f"{ewritten.get('absolute')!r}", file=sys.stderr)
            return 1

        # Report checks: fig16's publish-batch win and the PIO
        # summary each pass on a clean report and fail when the
        # claim they check is false.
        def fig16_report(b4_mpps: float) -> dict:
            doc = _synthetic_report(signal_reads=670000)
            doc["bench"] = "fig16_batching"
            doc["sections"]["publish_batch_sweep"] = {
                "columns": ["family", "batch", "mpps",
                            "pub_obs_mean_ns"],
                "rows": [
                    {"family": "E810", "batch": 4, "mpps": 99.0,
                     "pub_obs_mean_ns": 10.0},
                    {"family": "CC-NIC", "batch": "off", "mpps": 50.0,
                     "pub_obs_mean_ns": 140.0},
                    {"family": "CC-NIC", "batch": 4,
                     "mpps": b4_mpps, "pub_obs_mean_ns": 100.0},
                ],
            }
            return doc

        def pio_summary_report(pcie_verdict: str) -> dict:
            doc = _synthetic_report(signal_reads=670000)
            doc["bench"] = "pio_smallmsg"
            secs = doc["sections"]
            secs["latency_by_size"] = {"columns": [], "rows": []}
            secs["counters"] = secs["counters_lossfree"]
            secs["timeseries"] = secs["timeseries_lossfree"]
            secs["latency"] = {
                "columns": ["path"],
                "rows": [{"path": "pio"}, {"path": "pio_cxl"},
                         {"path": "ccnic"}]}
            secs["summary"] = {
                "columns": ["metric", "value"],
                "rows": [
                    {"metric": "PIO beats ring-over-coherence",
                     "value": "yes"},
                    {"metric": "PIO beats ring-over-PCIe",
                     "value": pcie_verdict}]}
            return doc

        for label, doc, want in (
                ("fig16 publish-batch win", fig16_report(78.0), 0),
                ("fig16 batch 4 slower than off", fig16_report(40.0), 1),
                ("PIO summary", pio_summary_report("yes"), 0),
                ("PIO losing to PCIe", pio_summary_report("no"), 1)):
            rpath = os.path.join(td, "report_check.json")
            with open(rpath, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            got = run_gate(rpath, None, DEFAULT_MAX_SIGNAL_READS_PER_PKT,
                           DEFAULT_TOLERANCE)
            if got != want:
                print(f"SELFTEST FAIL: {label}: gate returned {got}, "
                      f"expected {want}", file=sys.stderr)
                return 1

    print("counters gate selftest passed")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("report", nargs="?")
    ap.add_argument("--section", default=None,
                    help="counter-snapshot section to gate (default: "
                         "the baseline's 'section' field, else "
                         f"'{DEFAULT_SECTION}')")
    ap.add_argument("--max-signal-reads-per-pkt", type=float,
                    default=DEFAULT_MAX_SIGNAL_READS_PER_PKT)
    ap.add_argument("--baseline",
                    help="baseline JSON to diff per-packet counters "
                         "against")
    ap.add_argument("--tolerance", type=float,
                    default=DEFAULT_TOLERANCE,
                    help="relative band for baseline comparisons "
                         "(overridden by the baseline's own "
                         "'tolerance' field)")
    ap.add_argument("--write-baseline", metavar="OUT",
                    help="write a fresh baseline from this report "
                         "and exit")
    ap.add_argument("--lossy", action="store_true",
                    help="the run injects loss/faults by design: "
                         "allow retransmits (invariant 1 and the "
                         "timeseries rate check are skipped). Also "
                         "implied by a baseline with 'lossy': true; "
                         "with --write-baseline, records the flag "
                         "and pins nothing to zero")
    ap.add_argument("--selftest", action="store_true",
                    help="run the gate's self-checks and exit")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.report:
        ap.error("report path required (or use --selftest)")

    if args.write_baseline:
        section = args.section or DEFAULT_SECTION
        sections = load_sections(args.report)
        c, kinds = counters_of(sections, section, args.report)
        write_baseline(c, kinds, args.write_baseline, args.tolerance,
                       section, args.lossy, sections)
        return 0

    # Section resolution: explicit flag, else the baseline's own
    # "section" field, else the fabric_kvstore default.
    section = args.section
    if section is None and args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            section = json.load(f).get("section")
    if section is None:
        section = DEFAULT_SECTION

    return run_gate(args.report, args.baseline,
                    args.max_signal_reads_per_pkt, args.tolerance,
                    section, args.lossy)


if __name__ == "__main__":
    sys.exit(main())
