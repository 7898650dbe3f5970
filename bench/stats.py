"""Summary statistics shared by the runner, the tracer and the sweep."""

import statistics

TAIL_MARGIN = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def relative_spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def tail(values):
    """(value, percentile, count) of the highest percentile that still has
    at least ten samples beyond it.

    With n samples that is the sample of rank n - 10 (1-based), the
    (n - 10)/n quantile.  Below eleven samples no percentile qualifies
    and the maximum is reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_MARGIN
    if rank < 1:
        return ordered[-1], 100.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a list of (name, start, end, parent_index, ...) records.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [span[2] - span[1] - union_length(kids, span[1], span[2])
            for span, kids in zip(spans, children)]
