"""Parameter-sweep drivers and asymptotic-fit helpers.

The paper's evaluation states asymptotics (O(m·n²), O(m·(2f+1)),
O(n)Δ, ...).  To check them we sweep a parameter, measure the
operation counts or delays, and fit a power law: ``fit_power_law``
returns the least-squares exponent of ``y ~ x^e`` on log-log axes.
"""

from __future__ import annotations

import math
import os

from repro.core.config import ProtocolConfig, ProtocolKind
from repro.core.executor import DealExecutor, DealResult, auto_config
from repro.core.outcomes import OutcomeReport, evaluate_outcome
from repro.core.parties import CompliantParty


def run_deal(
    spec,
    keys,
    kind: ProtocolKind,
    seed: int = 0,
    config: ProtocolConfig | None = None,
    validators_f: int = 1,
    reconfigurations: int = 0,
    strategies: dict | None = None,
    **executor_kwargs,
) -> DealResult:
    """Run ``spec`` once with one party per ``keys`` entry, in ``keys`` order.

    ``strategies`` casts the parties: it maps a label to the party
    class that label plays, and every label it does not list plays
    :class:`CompliantParty`.
    """
    strategies = strategies or {}
    parties = [
        strategies.get(label, CompliantParty)(keypair, label)
        for label, keypair in keys.items()
    ]
    config = config or auto_config(spec, kind)
    executor = DealExecutor(
        spec,
        parties,
        config,
        seed=seed,
        validators_f=validators_f,
        reconfigurations=reconfigurations,
        **executor_kwargs,
    )
    return executor.run()


def run_case(
    spec, keys, kind: ProtocolKind, strategies: dict | None = None, **run_deal_kwargs
) -> tuple[OutcomeReport, DealResult]:
    """Run a deal against deviators and judge the compliant rest.

    The parties are cast as :func:`run_deal` casts them.  The judged
    set is exactly the parties whose class *is* :class:`CompliantParty`:
    a label cast as ``CompliantParty`` by name is judged, and a
    subclass of it (every deviation strategy) is not.
    """
    strategies = strategies or {}
    result = run_deal(spec, keys, kind, strategies=strategies, **run_deal_kwargs)
    compliant = {
        keypair.address
        for label, keypair in keys.items()
        if strategies.get(label, CompliantParty) is CompliantParty
    }
    return evaluate_outcome(result, compliant), result


def sweep(values, make_record) -> list[dict]:
    """Run ``make_record(value)`` for each value, collecting records.

    ``make_record`` returns a dict; the sweep value is added under
    ``"x"`` if not already present.
    """
    records = []
    for value in values:
        record = make_record(value)
        record.setdefault("x", value)
        records.append(record)
    return records


def _run_shard(payload) -> list[dict]:
    """Worker entry point: run one seed-striped shard serially."""
    make_record, shard_values = payload
    return [make_record(value) for value in shard_values]


def sweep_parallel(values, make_record, jobs: int | None = None) -> list[dict]:
    """Like :func:`sweep`, but fan the points out over worker processes.

    Produces records identical to the serial :func:`sweep` — each
    record must depend only on its sweep value, which holds throughout
    this package because every stochastic choice flows through
    :class:`repro.sim.rng.DeterministicRng` seeded from the sweep value
    (deterministic per-seed RNG), never from global state.

    Points are *sharded by seed index* across the workers: shard ``i``
    takes points ``i, i+jobs, i+2·jobs, ...`` and runs them serially
    inside one task.  Striding (instead of one-point-per-task chunks)
    load-balances sweeps whose cost grows along the axis — E15/E16
    style sweeps hand every worker a mix of cheap and expensive points
    rather than giving the last worker all the heavy ones — and each
    worker reuses the one process-wide crypto table, the generator's,
    over its whole shard.

    ``jobs=None`` (or any non-positive count) uses every CPU;
    ``jobs=1`` (or a single point) falls back to the serial path with
    no worker processes.  ``make_record`` must be picklable (a
    module-level function, or a ``functools.partial`` of one).
    """
    values = list(values)
    if not values:
        return []
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(values))
    if jobs == 1:
        return sweep(values, make_record)
    # Imported only to fork: an inline run never loads the module.
    import multiprocessing

    # Daemonic pool workers (e.g. inside ``run_all.py --jobs``) cannot
    # spawn children; nested fan-out degrades to the serial path, which
    # produces identical records by construction.
    if multiprocessing.current_process().daemon:
        return sweep(values, make_record)
    shards = [values[start::jobs] for start in range(jobs)]
    # fork (where available) lets workers inherit the generator table
    # and already-imported modules; spawn is the portable fallback.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(method)
    with context.Pool(processes=jobs) as pool:
        shard_records = pool.map(
            _run_shard, [(make_record, shard) for shard in shards]
        )
    records: list[dict | None] = [None] * len(values)
    for start, shard in enumerate(shard_records):
        records[start::jobs] = shard
    for value, record in zip(values, records):
        record.setdefault("x", value)
    return records


def fit_power_law(xs, ys) -> float:
    """Least-squares exponent of ``y ~ c·x^e`` (log-log fit).

    Points with non-positive coordinates are dropped.  Returns NaN if
    fewer than two usable points remain.
    """
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        return float("nan")
    import statistics  # ~0.4 MiB of decimal and fractions; only fits use it

    exponent, _intercept = statistics.linear_regression(
        [math.log(x) for x, _ in pairs], [math.log(y) for _, y in pairs]
    )
    return exponent


def fit_linear_slope(xs, ys) -> float:
    """Least-squares slope of ``y ~ a·x + b`` (for Δ-linear checks)."""
    if len(xs) < 2:
        return float("nan")
    import statistics

    slope, _intercept = statistics.linear_regression(
        [float(x) for x in xs], [float(y) for y in ys]
    )
    return slope


def geometric_decay_rate(values) -> float:
    """Mean successive ratio of a positive decreasing series.

    Used by E8 to show attack success decays ~geometrically with
    confirmation depth.  Zero entries terminate the series.
    """
    ratios = []
    for previous, current in zip(values, values[1:]):
        if previous <= 0 or current <= 0:
            break
        ratios.append(current / previous)
    if not ratios:
        return 0.0
    return float(math.exp(sum(math.log(r) for r in ratios) / len(ratios)))
