"""Percentile, ratio and span helpers behind perfbench/run.py.

Pure functions over the raw JSON that kspr_perfbench writes, kept apart
from the driver so test_stats.py can check them without a build.
"""

import math
import statistics

# A percentile needs at least this many samples strictly above its rank;
# with fewer it is an error, not a number.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be trusted."""


def percentile(samples, p):
    """Nearest-rank p-th percentile, 0 < p < 100.

    The value at 1-based rank ceil(p/100 * n) of the sorted samples.
    Raises TooFewSamples unless at least MIN_BEYOND samples lie beyond it.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} out of (0, 100)")
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}")
    return xs[rank - 1]


def ratio(numerator, base):
    """numerator / base; 0.0 when the base is 0 (the layer did no work)."""
    if base < 0 or numerator < 0:
        raise ValueError(f"negative ratio operand {numerator}/{base}")
    return numerator / base if base else 0.0


def _sum(counts, keys):
    return sum(counts.get(k, 0) for k in keys)


# Each count ratio as (numerator keys, base keys) over kspr_perfbench's
# work counts. The base is what the layer attempted.
RATIOS = {
    # Look-ahead verdicts (cells reported or pruned early) per bound LP.
    "core.lookahead_yield": (
        ["stats.lookahead_reported", "stats.lookahead_pruned"],
        ["stats.bound_lps"]),
    # Warm-started LP solves among all LP solves.
    "lp.warm_start_ratio": (
        ["stats.lp_warm_starts"],
        ["stats.lp_warm_starts", "stats.lp_cold_starts"]),
    # Cell feasibility tests answered by the cached witness, among tests
    # answered by the witness, the inscribed ball or an LP.
    "cell_tree.witness_hit_ratio": (
        ["stats.witness_hits"],
        ["stats.witness_hits", "stats.lp_skipped_by_ball",
         "stats.feasibility_lps"]),
    # Engine queries answered from the result cache.
    "engine.cache_hit_ratio": (
        ["engine.cache_hits"], ["engine.queries"]),
    # Cached entries kept (restamped) by update sweeps, among kept+dropped.
    "engine.cache_retained_ratio": (
        ["engine.cache_retained"],
        ["engine.cache_retained", "engine.cache_dropped"]),
    # Subscribers proven untouched, among subscribers examined per batch.
    "engine.sub_irrelevant_ratio": (
        ["engine.sub_irrelevant"], ["engine.sub_examined"]),
    # Amortized CTA requests served by a delta advance, among advances
    # plus full context builds.
    "engine.amortized_reuse_ratio": (
        ["engine.amortized_reuses"],
        ["engine.amortized_reuses", "engine.amortized_builds"]),
    # Candidates the router solves over, per candidate merged from shards.
    "shard.solve_yield": (
        ["shard.candidates_solved"], ["shard.candidates_merged"]),
    # Router cache entries kept by update sweeps, among kept+dropped.
    "shard.cache_retained_ratio": (
        ["shard.cache_retained"],
        ["shard.cache_retained", "shard.cache_dropped"]),
}

# Counts reported per computed query (base: solved_queries, the queries
# whose result was computed rather than served from a cache).
PER_SOLVED_QUERY = {
    "lp.bound_lps": "stats.bound_lps",
    "lp.feasibility_lps": "stats.feasibility_lps",
    "lp.finalize_lps": "stats.finalize_lps",
    "cell_tree.nodes": "stats.cell_tree_nodes",
}

# Counts reported per query (base: queries).
PER_QUERY = {
    "net.response_bytes": "net.response_bytes",
}

# Counts reported as run totals.
TOTALS = {
    "net.retries": "net.retries",
    "net.failures": "net.failures",
}


def count_metrics(counts):
    """Every count-derived per-layer metric, by name."""
    out = {}
    for name, (num, base) in RATIOS.items():
        out[name] = ratio(_sum(counts, num), _sum(counts, base))
    for name, key in PER_SOLVED_QUERY.items():
        out[name] = ratio(counts.get(key, 0), counts.get("solved_queries", 0))
    for name, key in PER_QUERY.items():
        out[name] = ratio(counts.get(key, 0), counts.get("queries", 0))
    for name, key in TOTALS.items():
        out[name] = counts.get(key, 0)
    return out


def self_times(spans):
    """Total self time in ms per span name: a span's length minus the part
    its children cover. Spans are [name, start_ns, end_ns, parent, request]
    rows; children of one span never overlap (one client thread)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start - child_ns[i]) / 1e6
    return totals


def request_stages(spans):
    """Per request id: {span name: [durations in ms]} (request >= 0)."""
    out = {}
    for name, start, end, _, request in spans:
        if request >= 0:
            out.setdefault(request, {}).setdefault(name, []).append(
                (end - start) / 1e6)
    return out


def span_metrics(spans):
    """Per-layer times from spans, as means per request over the requests
    that have the stage. shard.scatter_ms is the slowest shard's
    Candidates call; net.transport_ms is a difference: the router's Query
    minus the in-process scatter, merge and solve of the same query."""
    sums = {}
    hits = {}

    def add(name, value):
        sums[name] = sums.get(name, 0.0) + value
        hits[name] = hits.get(name, 0) + 1

    for stages in request_stages(spans).values():
        for name in ("core.solve", "core.finalize", "shard.merge",
                     "shard.solve"):
            if name in stages:
                add(name + "_ms", sum(stages[name]))
        if "shard.candidates" in stages:
            scatter = max(stages["shard.candidates"])
            add("shard.scatter_ms", scatter)
            if "router.query" in stages:
                add("net.transport_ms",
                    sum(stages["router.query"]) - scatter -
                    sum(stages.get("shard.merge", [0.0])) -
                    sum(stages.get("shard.solve", [0.0])))
    return {name: sums[name] / hits[name] for name in sums}


def quartile_spread(values):
    """(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives the
    quartiles: the run-to-run spread the benchmark's bounds follow."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
