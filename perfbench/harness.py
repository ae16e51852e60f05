"""Pure helpers of the perfbench harness: percentiles, the rate-point
acceptance rule, the rescaling to reference host speed and the
per-layer coverage arithmetic.

Kept free of I/O so test_harness.py can check them on known series.
"""

import statistics


def percentile(values, p):
    """Linearly interpolated percentile, p in [0, 100].

    The same definition as the library's Stats.percentile: rank
    p/100 * (n - 1) over the sorted sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError("percentile out of range")
    s = sorted(values)
    rank = p / 100 * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    w = rank - lo
    return s[lo] * (1 - w) + s[hi] * w


def backlog_grows(samples, slack):
    """Whether a backlog series grows over a rate point.

    samples: backlog values (requests sent but not yet served) in time
    order. The backlog grows when the median of the last quarter exceeds
    the median of the first quarter by more than slack requests. Fewer
    than 8 samples cannot show a trend and count as growing.
    """
    if len(samples) < 8:
        return True
    q = len(samples) // 4
    return statistics.median(samples[-q:]) > statistics.median(samples[:q]) + slack


def rate_point(shed, backlog, commit_p99_ms, late_p99_ms, limits):
    """Judge one fixed offered rate.

    Returns (valid, met, reason). A point is invalid when the generator
    itself ran late beyond limits["late_p99_ms"]: its figures say
    nothing about the daemon, so it is neither met nor failed. A valid
    point is met when nothing was shed, the backlog did not grow, and
    the p99 commit latency is within limits["commit_p99_ms"].
    """
    if late_p99_ms > limits["late_p99_ms"]:
        return False, False, "generator late: p99 %.2f ms" % late_p99_ms
    if shed > 0:
        return True, False, "%d requests shed" % shed
    if backlog_grows(backlog, limits["backlog_slack"]):
        return True, False, "backlog grows"
    if commit_p99_ms > limits["commit_p99_ms"]:
        return True, False, "p99 commit %.1f ms over the limit" % commit_p99_ms
    return True, True, "met"


def max_met_rate(points):
    """The highest offered rate among points judged (valid, met).

    points: list of (rate, valid, met). Returns None when no point is
    met.
    """
    met = [rate for rate, valid, ok in points if valid and ok]
    return max(met) if met else None


def at_reference(wall_s, kernel_s, ref_s):
    """A wall time rescaled to reference host speed.

    wall_s is the time some work took and kernel_s the reference
    kernel's mean time while it ran. On a host where the kernel takes
    ref_s, the work would have taken wall_s * ref_s / kernel_s.
    """
    if wall_s <= 0 or kernel_s <= 0:
        raise ValueError("times must be positive")
    return wall_s * ref_s / kernel_s


def coverage(layer_seconds, wall_seconds):
    """Share of a traced run's wall time covered by its layer self times."""
    if wall_seconds <= 0:
        raise ValueError("wall time must be positive")
    return sum(layer_seconds) / wall_seconds


def overhead(traced_wall, plain_wall):
    """Relative cost of the spans: traced wall over untraced wall, minus 1."""
    return traced_wall / plain_wall - 1.0
