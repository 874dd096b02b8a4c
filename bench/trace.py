"""Outside-in span tracer for the benchmark's traced pass.

Nothing under ``src/`` reads a wall clock, so per-layer time has to be
recorded from here.  A :class:`Tracer` keeps spans ``[name, start,
end, parent, weight]`` in memory and instruments the program from
outside only:

* ``Simulator.schedule`` is wrapped so every scheduled callback becomes
  an ``event:<label>`` span, with chain ids and recipients normalised
  (``event:*/block``, ``event:bus->*`` ...);
* public functions and methods (:data:`FUNCTIONS`, :data:`METHODS`)
  become child spans; a function is swapped in every ``repro.*``
  module attribute that *is* the original, so ``from x import f`` call
  sites are covered;
* where a layer's only boundary is a callback, the callable is wrapped
  at its public registration point (``LocalBus.register``,
  ``Network.register``, ``Chain.subscribe``, ``Chain.delta_observer``).

The wrappers draw no randomness and schedule no events, so a traced
run's report fingerprint equals the untraced one (``rep.py`` returns
it and ``run.py`` compares).  :meth:`Tracer.uninstall` restores every
patched attribute.

Self time of a span is its duration minus the part covered by its
child spans; :class:`Summary` computes it, and :func:`layer_metrics`
turns a summary plus the run's deterministic counters into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from collections import defaultdict

# (module, function, span name, weigh(args) or None).  The weight is a
# count taken at the same boundary (signatures in a batch, pairs in a
# multi-exponentiation).
FUNCTIONS = [
    ("repro.crypto.schnorr", "batch_verify_many", "schnorr.batch_verify_many",
     lambda args: sum(len(batch) for batch in args[0])),
    ("repro.crypto.schnorr", "batch_verify", "schnorr.batch_verify",
     lambda args: len(args[0])),
    ("repro.crypto.schnorr", "verify", "schnorr.verify", None),
    ("repro.crypto.schnorr", "sign", "schnorr.sign", None),
    ("repro.crypto.fastexp", "multi_pow", "fastexp.multi_pow",
     lambda args: len(args[0])),
    ("repro.crypto.fastexp", "generator_pow", "fastexp.generator_pow", None),
    ("repro.crypto.fastexp", "base_pow", "fastexp.base_pow", None),
    ("repro.consensus.validators", "batch_verify_quorum",
     "validators.quorum_verify", None),
    ("repro.core.proofs", "verify_status_proof", "proofs.verify", None),
    ("repro.core.proofs", "verify_block_proof", "proofs.verify", None),
    ("repro.core.proofs", "verify_pow_proof", "proofs.verify", None),
    ("repro.crypto.pathsig", "sign_vote", "pathsig.sign", None),
    ("repro.crypto.pathsig", "extend_path_signature", "pathsig.sign", None),
    ("repro.market.invariants", "check_market_invariants",
     "invariants.sweep", None),
]

# (module, class, method, span name).  The method is wrapped on the
# class and on every subclass that overrides it.
METHODS = [
    ("repro.crypto.fastexp", "FixedBaseTable", "__init__", "fastexp.table_build"),
    ("repro.crypto.pathsig", "PathSignature", "verify", "pathsig.verify"),
    # Where a vote's path-signature chain is actually replayed (§5).
    ("repro.core.timelock", "TimelockEscrow", "commit", "pathsig.verify"),
    ("repro.chain.contracts", "Contract", "invoke", "contracts.invoke"),
    ("repro.market.fees", "SealPolicy", "select", "fees.select"),
    ("repro.market.protocols", "DealDriver", "on_registered", "protocols.driver"),
    ("repro.market.protocols", "DealDriver", "on_escrow_receipt", "protocols.driver"),
    ("repro.market.protocols", "DealDriver", "on_patience", "protocols.driver"),
    ("repro.market.protocols", "DealDriver", "on_cbc_block", "protocols.driver"),
    ("repro.sim.network", "LocalBus", "post", "bus.post"),
    ("repro.market.replication", "ShardReplicaGroup", "apply_delta",
     "replication.apply"),
    ("repro.core.executor", "DealExecutor", "run", "executor.run"),
]

_REPLICA_ENDPOINT = re.compile(r"^s\d+/r\d+$")


def _normalise_label(label: str) -> str:
    """Fold per-chain / per-recipient event labels into one name each."""
    if "->" in label:
        return label.split("->", 1)[0] + "->*"
    if label.startswith("replication/"):
        return "replication/" + label[len("replication/"):].split("-", 1)[0] + "-*"
    if label.endswith(("/block", "/mempool-seal")) and label != "cbc/block":
        return "*/" + label.rsplit("/", 1)[1]
    if re.match(r"^shard\d+/defer$", label):
        return "shard*/defer"
    if re.match(r"^p\d+/", label):
        return "party/*"
    return label or "unlabelled"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, weight]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._swaps: list[tuple[object, object]] = []
        self._labels: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, weigh=None):
        """``fn`` as a callable that records one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [
                name, 0.0, 0.0, stack[-1] if stack else -1,
                weigh(args) if weigh is not None else 0,
            ]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _swap(self, old, new) -> None:
        """Rebind every ``repro.*`` module attribute that is ``old``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    def _wrap_method(self, cls, method: str, name: str) -> int:
        """Wrap ``method`` wherever ``cls`` or a subclass defines it."""
        wrapped = 0
        if method in vars(cls):
            self._set(cls, method, self.wrap(vars(cls)[method], name))
            wrapped = 1
        for subclass in cls.__subclasses__():
            wrapped += self._wrap_method(subclass, method, name)
        return wrapped

    def _wrap_registration(self, cls, method: str, name_of) -> None:
        """Wrap the callback passed (last) to ``cls.method``."""
        original = vars(cls)[method]
        tracer = self

        def register(self, *args):
            *head, callback = args
            return original(
                self, *head, tracer.wrap(callback, name_of(*head))
            )

        self._set(cls, method, register)

    def install(self) -> None:
        """Patch the program; call after every ``repro`` import."""
        for module_name, function, name, weigh in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function)
            traced = self.wrap(original, name, weigh)
            self._swaps.append((original, traced))
            self._swap(original, traced)
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            if not self._wrap_method(cls, method, name):
                raise AttributeError(f"{cls_name} defines no method {method!r}")

        from repro.chain.ledger import Chain
        from repro.sim.network import LocalBus, Network
        from repro.sim.simulator import Simulator

        self._wrap_registration(
            LocalBus, "register",
            lambda endpoint: "bus.handler:" + re.sub(r"\d+", "*", endpoint),
        )
        self._wrap_registration(
            Network, "register",
            lambda endpoint: "net.handler:"
            + ("replica" if _REPLICA_ENDPOINT.match(endpoint) else "endpoint"),
        )
        self._wrap_registration(Chain, "subscribe", lambda: "chain.observer")

        schedule = Simulator.schedule
        tracer, labels = self, self._labels

        def traced_schedule(self, delay, callback, label=""):
            name = labels.get(label)
            if name is None:
                name = labels[label] = "event:" + _normalise_label(label)
            return schedule(self, delay, tracer.wrap(callback, name), label)

        self._set(Simulator, "schedule", traced_schedule)

    def attach_market(self, market) -> None:
        """Wrap the replication layer's per-chain delta callbacks.

        ``Chain.delta_observer`` is assigned, not registered through a
        call, so it can only be wrapped once the market exists.
        """
        for chain in market.chains.values():
            if chain.delta_observer is not None:
                self._set(
                    chain, "delta_observer",
                    self.wrap(chain.delta_observer, "replication.delta"),
                )

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for original, traced in self._swaps:
            self._swap(traced, original)
        self._patches.clear()
        self._swaps.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One span per line; times are seconds since the first span.

        ``run_id`` is shared by every span one simulator event (or, for
        set-up work, one top-level phase) caused.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        run_ids: list[int] = []
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, weight) in enumerate(self.spans):
                if parent < 0 or name.startswith("event:"):
                    run_ids.append(index)
                else:
                    run_ids.append(run_ids[parent])
                out.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent,
                    "run_id": run_ids[index], "n": weight,
                }) + "\n")


class Summary:
    """Self time, inclusive time and counts per span name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent, _weight in spans:
            if parent >= 0:
                covered[parent] += end - start
        self._own = [
            (end - start) - covered[index]
            for index, (_name, start, end, _parent, _weight) in enumerate(spans)
        ]
        self._self: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        for own, span in zip(self._own, spans):
            self._self[span[0]] += own
            self._calls[span[0]] += 1

    def _matching(self, patterns: tuple[str, ...]) -> set[str]:
        return {
            name for name in self._self
            if any(
                name.startswith(pattern[:-1]) if pattern.endswith("~")
                else name == pattern
                for pattern in patterns
            )
        }

    def self_s(self, *patterns: str) -> float:
        """Summed self time of spans named by ``patterns``.

        A pattern is an exact span name, or a prefix when it ends with
        ``~`` (labels themselves may contain ``*``).
        """
        return sum((self._self[name] for name in self._matching(patterns)), 0.0)

    def outermost(self, *patterns: str) -> tuple[float, int, int]:
        """(seconds, calls, weight) of matching spans not nested in one.

        Summing only outermost matches keeps an inclusive time from
        counting a span twice when the named functions call each other
        (``batch_verify_many`` falls back to ``batch_verify``).
        """
        names = self._matching(patterns)
        inside = [False] * len(self.spans)
        seconds, calls, weight = 0.0, 0, 0
        for index, (name, start, end, parent, span_weight) in enumerate(self.spans):
            nested = parent >= 0 and inside[parent]
            match = name in names
            inside[index] = nested or match
            if match and not nested:
                seconds += end - start
                calls += 1
                weight += span_weight
        return seconds, calls, weight

    def inclusive_s(self, *patterns: str) -> float:
        return self.outermost(*patterns)[0]

    def calls(self, *patterns: str) -> int:
        return sum(self._calls[name] for name in self._matching(patterns))

    def layers_under(self, phase: str) -> dict[str, float]:
        """Self seconds per layer of every span under ``phase``.

        The layer is the span name's prefix (``event:`` spans map
        through :data:`EVENT_LAYERS`); the phase span's own self time
        is reported as ``sim.simulator``, the event loop that ran it.
        Their sum is the phase's duration.
        """
        inside = [False] * len(self.spans)
        layers: dict[str, float] = defaultdict(float)
        for index, (name, _start, _end, parent, _weight) in enumerate(self.spans):
            inside[index] = name == phase or (parent >= 0 and inside[parent])
            if inside[index]:
                layers[_layer_of(name, phase)] += self._own[index]
        return dict(layers)


# Which layer an event span's own time belongs to.
EVENT_LAYERS = {
    "market/arrival": "market.runtime",
    "market/patience": "market.runtime",
    "market/abort-retry": "market.runtime",
    "shard*/defer": "market.runtime",
    "*/mempool-seal": "market.mempool",
    "market/verify-flush": "consensus.validators",
    "*/block": "chain.ledger",
    "cbc/block": "consensus.bft",
    "market/timelock-terminal": "market.protocols",
    "bus->*": "sim.network",
    "chaos->*": "sim.network",
    "bus-retry->*": "sim.network",
    "deliver->*": "sim.network",
}

PREFIX_LAYERS = {
    "schnorr": "crypto.schnorr",
    "fastexp": "crypto.fastexp",
    "validators": "consensus.validators",
    "proofs": "core.proofs",
    "pathsig": "crypto.pathsig",
    "invariants": "market.invariants",
    "contracts": "chain.contracts",
    "fees": "market.fees",
    "protocols": "market.protocols",
    "bus": "sim.network",
    "chain": "market.runtime",
    "replication": "market.replication",
    "executor": "core.executor",
}


def _layer_of(name: str, phase: str) -> str:
    if name == phase:
        return "sim.simulator"
    if name.startswith("event:"):
        label = name[len("event:"):]
        if label.startswith(("replication/", "fault/")):
            return "market.replication"
        return EVENT_LAYERS.get(label, "core.parties")
    if name.startswith("bus.handler:"):
        return "market.runtime"
    if name.startswith("net.handler:"):
        replica = name == "net.handler:replica"
        return "market.replication" if replica else "core.parties"
    return PREFIX_LAYERS.get(name.split(".", 1)[0], "other")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: Summary, counters: dict) -> dict[str, float]:
    """The span-derived and counter-derived per-layer metrics.

    ``counters`` are the deterministic quantities ``rep.py`` read from
    the run's report and the crypto ``cache_stats()`` deltas.  The four
    ``runtime.*`` metrics that compare repetitions (trace overhead and
    the processes backend) are added by ``run.py``.
    """
    batch_s, batch_calls, batch_sigs = summary.outermost(
        "schnorr.batch_verify_many", "schnorr.batch_verify"
    )
    multi_s, multi_calls, multi_pairs = summary.outermost("fastexp.multi_pow")
    block_events = summary.calls("event:*/block")
    seals = summary.calls("event:*/mempool-seal")
    metrics = {
        "workloads.keygen_s": summary.inclusive_s("workloads.keygen"),
        "workloads.order_sign_s": summary.inclusive_s("workloads.order_sign"),
        "workloads.orders_signed": counters["orders_signed"],
        "runtime.open_s": summary.inclusive_s("runtime.open"),
        "runtime.run_s": summary.inclusive_s("runtime.run"),
        "runtime.admit_s": summary.self_s("event:market/arrival"),
        "runtime.route_s": summary.self_s(
            "bus.handler:~", "chain.observer", "event:shard*/defer",
            "event:market/patience", "event:market/abort-retry",
        ),
        "simulator.events": counters.get(
            "events", summary.calls("event:~")
        ),
        "simulator.self_s": summary.self_s("runtime.run", "executor.run"),
        "mempool.seal_s": summary.self_s("event:*/mempool-seal"),
        "mempool.seals": seals,
        "mempool.steps_per_seal": _ratio(counters.get("steps_sealed", 0), seals),
        "mempool.max_depth": counters.get("max_mempool_depth", 0),
        "fees.select_s": summary.inclusive_s("fees.select"),
        "fees.priced_out": counters.get("fee_priced_out", 0),
        "fees.accrued": counters.get("fees_accrued", 0),
        "validators.flush_s": summary.inclusive_s("event:market/verify-flush"),
        "validators.flushes": counters.get("flushes", 0),
        "validators.batches": counters.get("batches", 0),
        "validators.merge_rate": counters.get("merge_rate", 0.0),
        "validators.isolation_fallbacks": counters.get("isolation_fallbacks", 0),
        "validators.sigs_verified": batch_sigs,
        "validators.quorum_verify_s": summary.inclusive_s("validators.quorum_verify"),
        "schnorr.batch_verify_s": batch_s,
        "schnorr.batch_verify_calls": batch_calls,
        "schnorr.verify_s": summary.inclusive_s("schnorr.verify"),
        "schnorr.verify_calls": summary.calls("schnorr.verify"),
        "schnorr.verify_cache_hit_rate": _ratio(
            counters["verify_hits"],
            counters["verify_hits"] + counters["verify_misses"],
        ),
        "schnorr.sign_s": summary.inclusive_s("schnorr.sign"),
        "schnorr.sign_calls": summary.calls("schnorr.sign"),
        "schnorr.self_s": summary.self_s("schnorr.~"),
        "fastexp.multi_pow_s": multi_s,
        "fastexp.multi_pow_calls": multi_calls,
        "fastexp.multi_pow_pairs": multi_pairs,
        "fastexp.table_build_s": summary.inclusive_s("fastexp.table_build"),
        "fastexp.table_builds": summary.calls("fastexp.table_build"),
        "fastexp.table_hit_rate": _ratio(
            counters["table_hits"],
            counters["table_hits"] + counters["table_misses"],
        ),
        "fastexp.generator_pow_s": summary.inclusive_s("fastexp.generator_pow"),
        "fastexp.base_pow_s": summary.inclusive_s("fastexp.base_pow"),
        "bft.block_s": summary.inclusive_s("event:cbc/block"),
        "bft.blocks": summary.calls("event:cbc/block"),
        "proofs.verify_s": summary.inclusive_s("proofs.verify"),
        "proofs.verify_calls": summary.calls("proofs.verify"),
        "ledger.block_s": summary.self_s("event:*/block"),
        "ledger.blocks": counters.get("blocks", block_events),
        "ledger.txs_executed": counters["txs_executed"],
        "ledger.txs_reverted": counters["txs_reverted"],
        "contracts.invoke_s": summary.self_s("contracts.invoke"),
        "protocols.driver_s": summary.self_s(
            "protocols.driver", "event:market/timelock-terminal"
        ),
        "pathsig.sign_s": summary.inclusive_s("pathsig.sign"),
        "pathsig.verify_s": summary.inclusive_s("pathsig.verify"),
        "bus.post_s": summary.self_s(
            "bus.post", "event:bus->*", "event:chaos->*", "event:bus-retry->*"
        ),
        "bus.delivered": counters.get("bus_delivered", 0),
        "bus.resends": counters.get("bus_resends", 0),
        "bus.dup_suppressed": counters.get("bus_dup_suppressed", 0),
        "bus.chaos_dropped": counters.get("bus_chaos_dropped", 0),
        # Useful deliveries over physical data transmissions (acks
        # excluded): 1.0 on a plain LocalBus, lower under chaos.
        "bus.delivery_ratio": _ratio(
            counters.get("bus_delivered", 0) - counters.get("bus_dup_suppressed", 0),
            summary.calls("bus.post") + counters.get("bus_resends", 0)
            + counters.get("bus_chaos_duplicated", 0),
        ),
        "replication.apply_s": summary.inclusive_s(
            "replication.delta", "replication.apply", "net.handler:replica",
            "event:replication/~", "event:fault/~",
        ),
        "replication.deltas_shipped": counters.get("deltas_shipped", 0),
        "replication.resends": counters.get("deltas_resent", 0),
        "replication.recoveries": counters.get("recoveries", 0),
        "replication.failovers": counters.get("failovers", 0),
        "replication.sore_losers": counters.get("sore_losers", 0),
        "invariants.sweep_s": summary.inclusive_s("invariants.sweep"),
        "executor.run_s": summary.inclusive_s("executor.run"),
        "executor.sig_verifications": counters.get("sig_verifications", 0.0),
    }
    return metrics
