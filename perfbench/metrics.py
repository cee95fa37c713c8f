"""Arithmetic of the benchmark: percentiles, span self time and the
reductions that turn perfbench_main's raw measurements into metrics.

Kept free of I/O so test_metrics.py can pin every rule on hand-made inputs.
"""

import math
import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it; with fewer samples the highest percentile that still has them
# is used instead (and named in the output).
MIN_SAMPLES_BEYOND = 10


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list: the smallest value with
    at least a share q of the samples at or below it."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("percentile share must be in (0, 1]")
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def tail_share(n, q, min_beyond=MIN_SAMPLES_BEYOND):
    """The share actually reported for a requested tail share q over n
    samples: q itself when at least `min_beyond` samples lie beyond its
    nearest rank, else the highest share that leaves that many beyond.
    None when n is too small for any such share."""
    if n <= min_beyond:
        return None
    if n - math.ceil(q * n - 1e-9) >= min_beyond:
        return q
    return (n - min_beyond) / n


def tail_percentile(sorted_values, q, min_beyond=MIN_SAMPLES_BEYOND):
    """(share used, value) for the tail percentile rule; the median is used
    when there are too few samples for any tail."""
    share = tail_share(len(sorted_values), q, min_beyond)
    if share is None:
        share = 0.5
    return share, percentile(sorted_values, share)


def self_time(span, children):
    """A span's duration minus the part of it that its children cover.

    `span` and each child are (start, end) pairs; children may overlap each
    other and stick out of the parent, so the covered part is the union of
    the children clipped to the parent."""
    start, end = span
    clipped = sorted((max(s, start), min(e, end)) for s, e in children
                     if min(e, end) > max(s, start))
    covered = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


def sweep_simulated_intervals(rows):
    """Intervals a sweep pass actually simulates.

    Each row is a dict with policy, mix, model (index), alpha (index) and
    intervals. Every managed row is simulated; an idle row is the idle
    reference, which the experiment runner simulates once per (alpha, mix)
    and reuses for every model, so each (alpha, mix) counts once."""
    total = 0
    idle_seen = set()
    for row in rows:
        if row["policy"].lower() == "idle":
            key = (row["alpha"], row["mix"])
            if key in idle_seen:
                continue
            idle_seen.add(key)
        total += row["intervals"]
    return total


def _unit_columns(samples, repetitions, units):
    """Each unit's timings over the repetitions.

    `samples` holds `repetitions` consecutive blocks of `units` timings,
    one block per repetition of the same deterministic work, so entry u of
    every block times the same unit (a sweep row, a service step)."""
    if repetitions < 1 or units < 1 or len(samples) != repetitions * units:
        raise ValueError("samples are not repetitions x units")
    return [samples[u::units] for u in range(units)]


def best_per_unit(samples, repetitions, units):
    """Best (smallest) time of each unit over its repetitions."""
    return [min(c) for c in _unit_columns(samples, repetitions, units)]


def median_per_unit(samples, repetitions, units):
    """Median time of each unit over its repetitions."""
    return [statistics.median(c) for c in _unit_columns(samples, repetitions, units)]


# The policies whose decisions run the local optimizer and the global DP
# (the path a service step takes under rm3).
RM_POLICIES = ("RM1", "RM2", "RM3")


def sweep_decision_steps(best_row_ns, rows):
    """Host time per RM decision of each rm1/rm2/rm3 sweep row: the row's
    best time over its RM invocations.

    Per decision, because a row's time grows with its mix's length, which
    differs between seeds. Only the optimizer policies, because the
    baseline partitioners decide 5-10x faster: with them, half the rows of
    the CBP grid would sit in each of two clusters and the median would be
    the edge of one of them."""
    return [t / row["rm_invocations"] for t, row in zip(best_row_ns, rows)
            if row["policy"] in RM_POLICIES]


def scaled_tail(best_sorted, median_sorted, q, min_beyond=MIN_SAMPLES_BEYOND):
    """(share used, value) of a tail percentile whose level comes from the
    units' best times and whose shape comes from their median times:
    p50(best) x p_tail(median) / p50(median).

    A unit's best time is its time on a quiet host only if one of its
    repetitions ran while the host was quiet. When neighbours load the
    memory system most of the time, some of the slowest units miss every
    quiet period, and the tail of the bests is made of them. Every unit has
    a median, and contention slows the units about alike, so the tail's
    ratio to the median is taken over the medians."""
    share, tail = tail_percentile(median_sorted, q, min_beyond)
    return share, percentile(best_sorted, 0.5) * tail / percentile(median_sorted, 0.5)


def intervals_per_s(intervals, best_unit_ns, other_ns):
    """Simulated intervals per host second of a best-case pass: the sum of
    every unit's best time plus the fastest remainder (`other_ns`, one per
    repetition: the pass's time outside its units)."""
    if intervals <= 0 or not best_unit_ns or not other_ns:
        raise ValueError("intervals_per_s needs work and at least one pass")
    return intervals / ((sum(best_unit_ns) + min(other_ns)) * 1e-9)


def reject_rate(rows):
    """Rejected arrivals (queue-full plus qos-aware) over all arrivals."""
    arrivals = sum(r["arrivals"] for r in rows)
    if arrivals <= 0:
        raise ValueError("reject_rate of a grid without arrivals")
    return sum(r["rejected"] for r in rows) / arrivals


def service_violation_rate(rows):
    """Violating intervals over all intervals of the grid."""
    return sum(r["violations"] for r in rows) / sum(r["intervals"] for r in rows)


def service_energy_per_app(rows):
    """Mean core+memory energy per served application over the grid."""
    served = sum(r["served"] for r in rows)
    return sum(r["energy_per_app_j"] * r["served"] for r in rows) / served

