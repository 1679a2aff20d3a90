"""Usage/coverage metrics and the precision-recall evaluator.

Every table the pipeline reports is computed here from the catalog, the
corpus aggregate, and (for evaluation) tool-vs-oracle count maps. Each
table is a dict, or a list of dict rows, keyed as the report writes it.
Table percentages round half away from zero to integers; plot data keeps
full precision.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .catalog import ApiCatalog

if TYPE_CHECKING:
    from .usage import CorpusAggregate

SMALL_API_ELOC = 20  # size-bucket boundary

DISTINCT = "distinct"
TOTAL = "total"

BUCKET_UNDER_50 = "under_50"
BUCKET_50_TO_80 = "from_50_to_80"
BUCKET_OVER_80 = "over_80"
# Each coverage bucket's range of coverage percentages, in bucket order.
COV_BUCKET_BOUNDS = {BUCKET_UNDER_50: "[0,50)", BUCKET_50_TO_80: "[50,80)", BUCKET_OVER_80: "[80,100]"}

BUCKET_SMALL = "eloc_le_20"
BUCKET_LARGE = "eloc_gt_20"


def round_pct(value: float) -> int:
    """Round half away from zero, as the summary tables do."""
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def unused_apis(agg: CorpusAggregate, catalog: ApiCatalog) -> dict:
    """APIs no client uses (the retirement-candidate table row)."""
    unused = sorted(n for n in catalog.apis if agg.api_client_counts.get(n, 0) == 0)
    total = len(catalog.apis)
    return {
        "library": catalog.library,
        "total": total,
        "unused": len(unused),
        "unused_pct": round_pct(100.0 * len(unused) / total) if total else 0,
        "unused_names": tuple(unused),
    }


def client_utilisation_distribution(agg: CorpusAggregate) -> dict | None:
    """Per-client utilisation percentages with a box-plot five-number summary;
    None for a corpus of no clients, which has no distribution to report."""
    if not agg.reports:
        return None
    clients = [{"client": r.client_id, "utilisation_pct": r.utilisation_pct} for r in agg.reports]
    values = sorted(c["utilisation_pct"] for c in clients)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = _inclusive_quartiles(values)
    return {
        "library": agg.library,
        "clients": clients,
        "summary": {"min": values[0], "q1": q1, "median": med, "q3": q3, "max": values[-1]},
    }


def _inclusive_quartiles(v: list[float]) -> list[float]:
    """`statistics.quantiles(v, n=4, method="inclusive")` of sorted `v`, two values at
    least, by its own arithmetic, so results match to the bit without loading `statistics`."""
    quartiles = []
    for i in (1, 2, 3):
        j, d = divmod(i * (len(v) - 1), 4)
        quartiles.append((v[j] * (4 - d) + v[j + 1] * d) / 4)
    return quartiles


def use_distribution(agg: CorpusAggregate) -> list[dict]:
    """(client count, total uses) per API, for used APIs only."""
    rows = [
        {"api": api, "client_count": agg.api_client_counts.get(api, 0), "total_uses": uses}
        for api, uses in agg.api_total_uses.items()
        if uses > 0
    ]
    return sorted(rows, key=lambda r: (-r["total_uses"], r["api"]))


def coverage_buckets(catalog: ApiCatalog) -> dict:
    """Partition measured APIs by coverage into the COV_BUCKET_BOUNDS buckets."""
    counts = dict.fromkeys(COV_BUCKET_BOUNDS, 0)
    unmeasured = 0
    for api in catalog.apis.values():
        pct = api.coverage_pct
        if pct is None:
            unmeasured += 1
        elif pct < 50.0:
            counts[BUCKET_UNDER_50] += 1
        elif pct < 80.0:
            counts[BUCKET_50_TO_80] += 1
        else:
            counts[BUCKET_OVER_80] += 1
    rows = [{"library": catalog.library, "bucket": b, "api_count": n} for b, n in counts.items()]
    return {"bucket_bounds": COV_BUCKET_BOUNDS, "rows": rows, "unmeasured": unmeasured}


def size_buckets(catalog: ApiCatalog) -> list[dict]:
    """Small (<= 20 ELOC) vs large APIs, with combined coverage per bucket."""
    rows = []
    annotated = catalog.annotated()
    for bucket, members in (
        (BUCKET_SMALL, [a for a in annotated if a.eloc <= SMALL_API_ELOC]),
        (BUCKET_LARGE, [a for a in annotated if a.eloc > SMALL_API_ELOC]),
    ):
        total_eloc = sum(a.eloc for a in members)
        total_covered = sum(a.covered_lines for a in members)
        rows.append(
            {
                "library": catalog.library,
                "bucket": bucket,
                "api_count": len(members),
                "combined_coverage_pct": (100.0 * total_covered / total_eloc) if total_eloc else None,
                "fully_covered_count": sum(1 for a in members if a.eloc > 0 and a.covered_lines == a.eloc),
            }
        )
    return rows


def used_not_tested(agg: CorpusAggregate, catalog: ApiCatalog) -> dict:
    """APIs clients call that the library test suite never executes.

    Counts measured-and-zero-covered APIs; used APIs missing from coverage
    data entirely are flagged separately rather than conflated with 0%.
    """
    untested = []
    used_unmeasured = 0
    for name, api in catalog.apis.items():
        if agg.api_client_counts.get(name, 0) == 0:
            continue
        if api.eloc is None:
            used_unmeasured += 1
        elif api.covered_lines == 0:
            untested.append(name)
    total = len(catalog.apis)
    return {
        "library": catalog.library,
        "api_count": len(untested),
        "pct_of_catalog": round_pct(100.0 * len(untested) / total) if total else 0,
        "apis": tuple(sorted(untested)),
        "used_unmeasured": used_unmeasured,
    }


def _agreement(tp: int, fp: int, fn: int) -> dict:
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "precision": tp / (tp + fp) if tp + fp > 0 else None,
        "recall": tp / (tp + fn) if tp + fn > 0 else None,
    }


def precision_recall(tool: dict[str, int], oracle: dict[str, int]) -> dict[str, dict]:
    """Tool-vs-oracle agreement in distinct and total modes: each mode's
    tp, fp and fn, and its precision and recall (None on a zero denominator).

    Distinct mode compares the sets of APIs each side reports used; total
    mode compares per-API counts as multisets (shared occurrences are true
    positives, surpluses false positives, deficits false negatives).
    """
    tool_pos = {a for a, c in tool.items() if c > 0}
    oracle_pos = {a for a, c in oracle.items() if c > 0}

    t_tp = t_fp = t_fn = 0
    for api in tool_pos | oracle_pos:
        t = tool.get(api, 0)
        o = oracle.get(api, 0)
        t_tp += min(t, o)
        t_fp += max(0, t - o)
        t_fn += max(0, o - t)

    return {
        DISTINCT: _agreement(len(tool_pos & oracle_pos), len(tool_pos - oracle_pos), len(oracle_pos - tool_pos)),
        TOTAL: _agreement(t_tp, t_fp, t_fn),
    }
