"""Trace export: deterministic JSONL, Chrome trace_event, summaries.

The JSONL layout is one JSON object per line, written with sorted keys
and compact separators so two runs of the same seeded workload produce
byte-identical files:

* one ``meta`` record (run parameters + span/metric counts);
* one ``span``/``event`` record per tracer span, in creation order
  (creation order is deterministic — it is simulator execution order);
* one ``metrics`` record (the registry snapshot).

A file may hold several runs back to back (``run_all.py --trace``
concatenates its experiments' traces); every reader splits them at
the ``meta`` records.  ``replay_counts`` is the one analytical path:
it recomputes each run's report roll-up — outcomes and latency per
protocol, conflicts, timeouts, replica faults, fee evictions, blocks
and transactions — from the records alone.  ``chrome_trace`` converts
the span records to the Chrome ``trace_event`` format
(``chrome://tracing`` / Perfetto): one ``pid`` per run, one ``tid``
per trace id, complete ``"X"`` events with microsecond timestamps at
1 tick = 1 ms, instants as ``"i"`` events.  ``summarize`` renders the
human-facing report behind ``python -m repro trace-summary`` — each
run's roll-up and its top-k slowest deals.
"""

from __future__ import annotations

import json

from repro.telemetry.metrics import DealOutcome, tally

_TICK_US = 1000.0  # 1 simulated tick renders as 1 ms on the Chrome scale


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_records(telemetry) -> list[dict]:
    """Every export record of one run, in deterministic order."""
    meta = dict(telemetry.meta)
    meta["spans"] = len(telemetry.tracer.spans)
    records: list[dict] = [{"type": "meta", **meta}]
    records.extend(span.to_record() for span in telemetry.tracer.spans)
    records.append({"type": "metrics", **telemetry.metrics.snapshot()})
    return records


def write_trace_jsonl(telemetry, path: str) -> int:
    """Write the run's trace as JSONL; returns the record count."""
    records = trace_records(telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(_dumps(record))
            handle.write("\n")
    return len(records)


def load_trace(path: str) -> list[dict]:
    """Read a JSONL trace back into its records."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _split_runs(records: list[dict]) -> list[list[dict]]:
    """The records of each run, split where a ``meta`` record starts one."""
    runs: list[list[dict]] = []
    for record in records:
        if record.get("type") == "meta" or not runs:
            runs.append([])
        runs[-1].append(record)
    return runs


def _meta(run: list[dict]) -> dict:
    return run[0] if run[0].get("type") == "meta" else {}


def chrome_trace(records: list[dict]) -> dict:
    """Convert JSONL records to a Chrome ``trace_event`` document."""
    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}
    for pid, run in enumerate(_split_runs(records), start=1):
        name = f"repro-market seed={_meta(run).get('seed', '?')}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        for record in run:
            if record.get("type") not in ("span", "event"):
                continue
            key = (pid, record["trace"])
            if key not in tids:
                tids[key] = len(tids) + 1
                events.append({"name": "thread_name", "ph": "M", "pid": pid,
                               "tid": tids[key], "args": {"name": key[1]}})
            event = {"name": record["name"], "ts": record["start"] * _TICK_US,
                     "pid": pid, "tid": tids[key],
                     "args": dict(record.get("attrs", ()))}
            if record["type"] == "event":
                event.update(ph="i", s="t")
            else:
                end = record.get("end")
                duration = (end - record["start"]) if end is not None else 0.0
                event.update(ph="X", dur=duration * _TICK_US)
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: list[dict], path: str) -> int:
    """Write the Chrome trace_event conversion; returns event count."""
    document = chrome_trace(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return len(document["traceEvents"])


# ----------------------------------------------------------------------
# Replay: every roll-up, recomputed from the records
# ----------------------------------------------------------------------
def _replay(run: list[dict]) -> dict:
    """One run's roll-up, in the :class:`MarketReport`'s terms."""
    roots: list[dict] = []
    priced_out: set[str] = set()
    crashes = recoveries = failovers = 0
    gauges: dict = {}
    for record in run:
        kind, name = record.get("type"), record.get("name", "")
        if kind == "span" and name == "deal":
            roots.append(record)
        elif kind == "span" and name.startswith("down:"):
            crashes += 1
            recoveries += "replayed" in record.get("attrs", {})
        elif kind == "event" and name == "failover":
            failovers += 1
        elif kind == "event" and name == "fee-priced-out":
            priced_out.add(record["trace"])
        elif kind == "metrics":
            gauges = record.get("gauges", {})
    deals = []
    conflicts_by_shard: dict[int, int] = {}
    committed_full = 0
    for root in roots:
        attrs = root.get("attrs", {})
        deal = DealOutcome(
            attrs.get("protocol", "?"), attrs.get("outcome"), attrs.get("reason"),
            root["end"] - root["start"], attrs.get("conflict", False),
            attrs.get("cross_shard", False), attrs.get("sore_loser", False),
        )
        deals.append(deal)
        committed_full += deal.outcome == "committed" and not attrs.get("truncated")
        if deal.conflict:
            shard = attrs.get("shard", 0)
            conflicts_by_shard[shard] = conflicts_by_shard.get(shard, 0) + 1
    counts = tally(deals)
    return {
        "meta": _meta(run),
        **counts,
        "conflicts_by_shard": tuple(sorted(conflicts_by_shard.items())),
        "crashes": crashes,
        "recoveries": recoveries,
        "failovers": failovers,
        "fee_priced_out": len(priced_out),
        "coverage": (counts["committed"], committed_full),
        **{name: gauges.get(f"chain.{name}", 0)
           for name in ("blocks", "txs_executed", "txs_reverted")},
    }


def replay_counts(records: list[dict]) -> list[dict]:
    """One roll-up per run in ``records``, recomputed from the trace.

    Each roll-up carries the run's ``meta`` record and the report's
    quantities under the report's names — ``per_protocol`` rows in
    :attr:`MarketReport.per_protocol`'s layout and every other
    outcome count :func:`~repro.telemetry.metrics.tally` returns
    (``deals`` … ``sore_losers``, read off each root span's
    ``outcome``/``reason`` and its ``conflict``/``cross_shard``/
    ``sore_loser`` flags), ``recoveries``, ``failovers``,
    ``fee_priced_out``, ``blocks``, ``txs_executed``, ``txs_reverted``
    — plus ``crashes`` (the report's ``faults_injected``),
    ``conflicts_by_shard`` ((home shard, count) rows) and
    ``coverage``: (committed deals, of those with an untruncated root
    span).  Latency is a root span's ``end - start``: arrival to
    finish, as the report measures it.
    """
    return [_replay(run) for run in _split_runs(records)]


# ----------------------------------------------------------------------
# Summary (the `python -m repro trace-summary` report)
# ----------------------------------------------------------------------
def _slowest(run: list[dict], top: int) -> list[list[str]]:
    """The run's ``top`` slowest committed deals, with phase timelines."""
    roots: dict[str, dict] = {}
    phases: dict[str, list[dict]] = {}
    for record in run:
        if record.get("type") != "span" or not record["trace"].startswith("deal-"):
            continue
        if record["name"] == "deal":
            roots[record["trace"]] = record
        else:
            phases.setdefault(record["trace"], []).append(record)
    committed = sorted(
        (root for root in roots.values()
         if root.get("attrs", {}).get("outcome") == "committed"),
        key=lambda root: (root["start"] - root["end"], int(root["trace"][5:])),
    )
    return [
        [
            root["trace"],
            root["attrs"].get("protocol", "?"),
            f"{root['end'] - root['start']:.2f}",
            " > ".join(
                f"{phase['name']} {phase['end'] - phase['start']:.2f}"
                for phase in sorted(phases.get(root["trace"], ()),
                                    key=lambda phase: (phase["start"], phase["id"]))
            ),
        ]
        for root in committed[:top]
    ]


def _run_section(run: list[dict], top: int) -> list[str]:
    from repro.analysis.tables import render_table

    counts = _replay(run)
    meta = counts["meta"]
    lines = [
        f"  seed={meta.get('seed', '?')} shards={meta.get('shards', '?')} "
        f"replication={meta.get('replication_factor', '?')} "
        f"spans={meta.get('spans', 0)} horizon={meta.get('end_time', 0.0):.1f} ticks",
        f"  deals traced: {counts['deals']} (committed {counts['committed']}, "
        f"aborted {counts['aborted']}, rejected {counts['rejected']}, "
        f"stuck {counts['stuck']})",
        f"  conflicts {counts['conflicts']}, timeouts {counts['timeouts']}, "
        f"fee-priced-out {counts['fee_priced_out']}",
        f"  blocks / txs: {counts['blocks']} blocks, "
        f"{counts['txs_executed']} txs executed, {counts['txs_reverted']} reverted",
    ]
    if counts["crashes"] or counts["failovers"]:
        lines.append(
            f"  replicas: {counts['crashes']} crashes, "
            f"{counts['recoveries']} recoveries, {counts['failovers']} failovers"
        )
    for protocol, committed, aborted, rejected, p50, p90, p99 in counts["per_protocol"]:
        lines.append(
            f"  [{protocol}] committed {committed}, aborted {aborted}, "
            f"rejected {rejected}; latency p50={p50:.2f} p90={p90:.2f} p99={p99:.2f}"
        )
    if counts["conflicts_by_shard"]:
        lines.append("  conflicts by home shard: " + ", ".join(
            f"shard {shard}: {n}" for shard, n in counts["conflicts_by_shard"]
        ))
    slowest = _slowest(run, top)
    if slowest:
        lines.append(render_table(
            ["deal", "protocol", "ticks", "phase timeline (ticks)"],
            slowest,
            title=f"Top {len(slowest)} slowest committed deals",
        ))
    return lines


def summarize(records: list[dict], top: int = 5) -> str:
    """Render the trace summary: one section per run in ``records``."""
    runs = _split_runs(records)
    lines = ["Trace summary" + (f": {len(runs)} runs" if len(runs) > 1 else "")]
    for number, run in enumerate(runs, 1):
        if len(runs) > 1:
            lines.append(f"Run {number} of {len(runs)}")
        lines.extend(_run_section(run, top))
    return "\n".join(lines)
