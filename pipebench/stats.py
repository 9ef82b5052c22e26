"""Statistics of the pipeline benchmark: percentiles, self time, and the
comparison of two sets of runs against the bounds in BENCHMARK.json."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so a p95 needs 200 samples.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile q (0 < q < 1) of samples.

    Raises TooFewSamples when fewer than min_beyond samples lie above
    the rank, e.g. a p95 of 199 samples.
    """
    n = len(samples)
    rank = math.ceil(q * n)  # 1-based
    if n == 0 or n - rank < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"at least {min_beyond} are needed")
    return sorted(samples)[max(rank, 1) - 1]


def self_time(parent, children, tolerance=0.05):
    """A span's self time: its duration minus what its children cover.

    The children here are replays timed separately from the parent, so
    their sum can exceed the parent by timer noise; a small excess
    (tolerance as a share of the parent) reads as 0, a larger one is an
    error in the trace.
    """
    covered = sum(children)
    rest = parent - covered
    if rest < 0:
        if -rest > tolerance * parent:
            raise ValueError(
                f"children cover {covered} of a {parent} parent span")
        return 0.0
    return rest


def windowed_rate(walls_s, items_per_wall, window_s):
    """Median throughput over consecutive windows of timed work.

    walls_s are the timed durations of successive units of
    items_per_wall items each. They are cut into windows of at least
    window_s seconds of timed work; the trailing partial window is
    dropped. A window's rate is its items over its time. The median
    keeps a short slowdown of the host out of the figure, where a total
    over the run would carry it.
    """
    rates = []
    time = 0.0
    items = 0
    for wall in walls_s:
        time += wall
        items += items_per_wall
        if time >= window_s:
            rates.append(items / time)
            time = 0.0
            items = 0
    if not rates:
        raise TooFewSamples(
            f"{sum(walls_s):g} s of timed work fills no {window_s:g} s window")
    return statistics.median(rates)


def steal_free(walls, busy_ticks, steal_ticks, window_s):
    """Timed durations with the hypervisor's steal taken out.

    walls are successive timed durations in seconds; busy_ticks and
    steal_ticks are the guest's busy and steal CPU ticks (/proc/stat,
    summed over CPUs) counted across each. They are cut into windows of
    at least window_s seconds of timed work, the last one possibly
    shorter. Each duration is scaled by 1 - its window's steal share
    (steal over busy ticks), the share of CPU time the guest wanted and
    the host gave to another guest. A window without busy ticks is left
    as it is.
    """
    out = []
    start = 0
    time = 0.0
    for i, wall in enumerate(walls):
        time += wall
        if time < window_s and i + 1 < len(walls):
            continue
        busy = sum(busy_ticks[start:i + 1])
        share = sum(steal_ticks[start:i + 1]) / busy if busy > 0 else 0.0
        out.extend(w * (1.0 - share) for w in walls[start:i + 1])
        start = i + 1
        time = 0.0
    return out


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first, second, better):
    """How much worse second's median is than first's, as a share of
    first's (negative when it is better)."""
    a = statistics.median(first)
    b = statistics.median(second)
    change = (b - a) / a
    return change if better == "lower" else -change


def compare(bench, first, second):
    """Checks two run sets against the end-to-end bounds.

    first and second map workload -> list of metric dicts, one per run
    ({"latency_ms": {"value": ...}, ...}). Returns a list of rows
    (workload, metric, spread_first, spread_second, worse, ok).
    Each spread must be within the bound, and the second median may
    not be worse than the first by more than it.
    """
    rows = []
    for workload in sorted(first):
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [run[name]["value"] for run in first[workload]]
            b = [run[name]["value"] for run in second[workload]]
            sa, sb = spread(a), spread(b)
            worse = worse_by(a, b, m["better"])
            ok = worse <= bound and sa <= bound and sb <= bound
            rows.append((workload, name, sa, sb, worse, ok))
    return rows
