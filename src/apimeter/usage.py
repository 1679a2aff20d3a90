"""Usage results and their artifact form.

A client's `UsageReport` and the `CorpusAggregate` folded from them, and
the JSON each is written as. The `scan` stage writes these artifacts and
the `report` stage reads the corpus back, so neither loads the other's
code to do it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import artifacts
from .artifacts import COUNT, Field, checked, is_count


class UsageReport(NamedTuple):
    client_id: str
    library: str
    uses: dict[str, int]
    catalog_size: int
    sites: list[tuple[str, int, str]] | None = None  # (file, line, api) rows, in listing order

    @property
    def distinct_count(self) -> int:
        return sum(1 for c in self.uses.values() if c > 0)

    @property
    def total_uses(self) -> int:
        return sum(self.uses.values())

    @property
    def utilisation_pct(self) -> float:
        return _utilisation_pct(self.distinct_count, self.catalog_size)


def _utilisation_pct(distinct: int, catalog_size: int) -> float:
    return 100.0 * distinct / catalog_size if catalog_size else 0.0


class CorpusAggregate(NamedTuple):
    library: str
    catalog_size: int
    reports: list[UsageReport]
    api_client_counts: dict[str, int]
    api_total_uses: dict[str, int]
    clients_without_uses: list[str]


def aggregate_reports(library: str, catalog_size: int, reports: list[UsageReport]) -> CorpusAggregate:
    """Fold per-client reports; commutative, so any merge order is valid."""
    ordered = sorted(reports, key=lambda r: r.client_id)
    client_counts: dict[str, int] = {}
    total_uses: dict[str, int] = {}
    without_uses = []
    for report in ordered:
        used = False
        for api, count in report.uses.items():
            if count > 0:
                used = True
                client_counts[api] = client_counts.get(api, 0) + 1
                total_uses[api] = total_uses.get(api, 0) + count
        if not used:
            without_uses.append(report.client_id)
    return CorpusAggregate(library, catalog_size, ordered, client_counts, total_uses, without_uses)


def usage_report_dict(report: UsageReport) -> dict:
    distinct = report.distinct_count
    return {
        "schema_version": artifacts.SCHEMA_VERSION,
        "client": report.client_id,
        "library": report.library,
        "uses": report.uses,
        "distinct": distinct,
        "utilisation_pct": _utilisation_pct(distinct, report.catalog_size),
        "catalog_size": report.catalog_size,
    }


def corpus_dict(agg: CorpusAggregate, clients: list[dict], skipped: list[str]) -> dict:
    """The corpus artifact; `clients` are the usage dicts of `agg.reports`, in its order.

    `agg.clients_without_uses` is in client order, as `aggregate_reports` builds it, and
    `skipped` must be too."""
    return {
        "schema_version": artifacts.SCHEMA_VERSION,
        "library": agg.library,
        "catalog_size": agg.catalog_size,
        "clients": clients,
        "api_client_counts": agg.api_client_counts,
        "api_total_uses": agg.api_total_uses,
        "clients_without_uses": agg.clients_without_uses,
        "skipped_clients": skipped,
    }


_CORPUS = {"library": Field(str, ..., "a string"), "catalog_size": COUNT, "clients": Field(list, ..., "a list")}
# Each of a corpus's `clients`; its `catalog_size` defaults to the corpus's.
_CLIENT = {
    "client": Field(str, ..., "a string"),
    "uses": Field(dict, ..., "an object of non-negative integers", lambda v: all(map(is_count, v.values()))),
}


def corpus_from_dict(doc: dict) -> CorpusAggregate:
    artifacts.check_schema_version(doc)
    top = checked(doc, _CORPUS)
    client_fields = {**_CLIENT, "catalog_size": COUNT._replace(default=top["catalog_size"])}
    by_client: dict[str, UsageReport] = {}
    for i, c in enumerate(top["clients"]):
        c = checked(c, client_fields, scope=f"clients[{i}]")
        # Counted twice, a client would raise its APIs' client counts past the number of clients.
        if c["client"] in by_client:
            raise TypeError(f"clients[{i}].client must be unique: {c['client']!r}")
        by_client[c["client"]] = UsageReport(
            client_id=c["client"], library=top["library"], uses=dict(c["uses"]), catalog_size=c["catalog_size"]
        )
    return aggregate_reports(top["library"], top["catalog_size"], list(by_client.values()))
