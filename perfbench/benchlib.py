"""Helpers shared by the benchmark scripts: percentiles, spreads and the
closed forms the BRP results are checked against."""

import math
import statistics


def tail_percentile(samples, q):
    """The q-th percentile of samples (nearest rank), or None when fewer
    than ten samples lie beyond it: a tail read from fewer is noise."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def quartile_spread(values):
    """(median, (Q3 - Q1) / median) with the quartiles Python's
    statistics.quantiles(values, n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


# The BRP instance of Modest.Brp: frames are lost with probability 0.02
# on channel K and acknowledgements with 0.01 on channel L.
BRP_ATTEMPT_OK = 0.98 * 0.99


def brp_chunk_fail(max_retrans):
    """pc: every one of the MAX + 1 attempts at one chunk fails."""
    return (1.0 - BRP_ATTEMPT_OK) ** (max_retrans + 1)


def brp_p1(n, max_retrans):
    """P1: the sender reports NOK or DK, i.e. some chunk of n fails."""
    return 1.0 - (1.0 - brp_chunk_fail(max_retrans)) ** n


def brp_p2(n, max_retrans):
    """P2: the sender reports DK, i.e. only the last chunk fails."""
    pc = brp_chunk_fail(max_retrans)
    return pc * (1.0 - pc) ** (n - 1)


def within_binomial(count, trials, p, z):
    """Is an observed count of trials within z standard errors of the
    binomial mean trials * p?"""
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(count - trials * p) <= z * sd
