"""Pure logic of the repository benchmark, shared by run.py, compare.py
and the tests: percentiles, per-run metrics, the digest check, the
build guard and the pair-comparison verdict.
"""

import statistics

# Percentile ladder in thousandths of a percent (50, 75, ..., 99.999).
_LADDER = (50000, 75000, 90000, 95000, 99000, 99900, 99990, 99999)
_HUNDRED = 100000


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(samples, level):
    """Nearest-rank percentile; level in thousandths of a percent."""
    ordered = sorted(samples)
    rank = -(-level * len(ordered) // _HUNDRED)  # ceil, exact
    return ordered[max(rank, 1) - 1]


def tail_percentile(samples):
    """The highest ladder percentile with at least 10 samples beyond it.

    Returns (percentile, value, sample_count). With fewer than 20
    samples no percentile qualifies and the maximum is returned as
    percentile 100.
    """
    n = len(samples)
    best = None
    for level in _LADDER:
        rank = -(-level * n // _HUNDRED)
        if n - rank >= 10:
            best = level
    if best is None:
        return 100.0, max(samples), n
    return best / 1000.0, percentile(samples, best), n


def run_metrics(rounds, peak_rss_mb):
    """End-to-end metrics of one untraced run from its rounds.

    Every metric is the median over the run's rounds (peak_rss_mb lists
    each round's process peak). Each round has a fixed number of
    requests (cells or service requests), so its tail_percentile() is
    the same percentile on every round, run and commit.
    """
    p50s, tails = [], []
    tail_pct = tail_n = None
    for r in rounds:
        lat = r["latencies_ms"]
        p50s.append(percentile(lat, 50000))
        tail_pct, tail, tail_n = tail_percentile(lat)
        tails.append(tail)
    metrics = {
        "wall_s": median([r["wall_s"] for r in rounds]),
        "setup_s": median([r["setup_s"] for r in rounds]),
        "cpu_s": median([r["cpu_s"] for r in rounds]),
        "peak_rss_mb": median(peak_rss_mb),
        "req_p50_ms": median(p50s),
        "req_tail_ms": median(tails),
        "req_per_s": median([len(r["latencies_ms"]) / r["wall_s"]
                             for r in rounds]),
    }
    return metrics, {"tail_percentile": tail_pct, "tail_samples": tail_n}


def check_digests(rounds, reference):
    """Check every round's cells against the reference digests.

    Sweep rounds (no unit_cells) must produce every reference cell; a
    missing or differing cell is one failed unit. Service rounds fail a
    request that errored or returned any cell whose digest differs.
    Returns (correct, attempted, failed, bad_keys): correct is False
    when any output differs from the reference.
    """
    attempted = failed = 0
    bad = set()
    for r in rounds:
        cells = r["cells"]
        wrong = {k for k, d in cells.items() if reference.get(k) != d}
        bad |= wrong
        if r["unit_cells"]:
            attempted += len(r["unit_cells"])
            for keys in r["unit_cells"]:
                if not keys or any(k in wrong for k in keys):
                    failed += 1
        else:
            attempted += len(reference)
            missing = {k for k in reference if k not in cells}
            bad |= missing
            failed += len(wrong | missing)
    return not bad, attempted, failed, sorted(bad)


def build_valid(summary):
    """Only Release builds with link-time optimization are compared."""
    return (summary.get("build_type") == "Release"
            and str(summary.get("lto", "")).upper() in ("YES", "ON",
                                                        "TRUE", "1"))


def _better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, better, bound):
    """Compare one (metric, workload) pair by choosing-metrics section 8.

    parent and change are lists of per-run values, paired by position.
    Returns a dict with medians, quartiles, the share of pairs the
    change won and the verdict: "improved", "no worse", "worse" or
    "unresolved".
    """
    pq = quartiles(parent)
    cq = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    pmed, cmed = pq[1], cq[1]
    iqr = pq[2] - pq[0]
    spread = iqr / abs(pmed) if pmed else float("inf")
    all_better = all(_better(c, p, better) for c in change for p in parent)
    improved = (_better(cmed, pmed, better) and wins >= 0.9 * len(pairs)
                and abs(cmed - pmed) > iqr)
    worse_by = (cmed - pmed) if better == "lower" else (pmed - cmed)
    if improved:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound * abs(pmed):
        result = "worse"
    else:
        result = "no worse"
    return {
        "parent_median": pmed, "parent_q1": pq[0], "parent_q3": pq[2],
        "change_median": cmed, "change_q1": cq[0], "change_q3": cq[2],
        "pairs": len(pairs), "won_frac": wins / len(pairs) if pairs else 0,
        "parent_spread": spread, "verdict": result,
    }
