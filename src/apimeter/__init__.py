"""apimeter: build-free API usage and test-coverage analysis for C libraries.

Pipeline stages:
  catalog   — exported symbols of shared objects, filtered by header tokens
  clientprep — exclude submodules, vendored library copies, named files
  scan      — lexical call-site detection across client sources
  coverage  — LCOV ingestion and per-API entry-function attribution
  metrics/reports — usage, coverage and divergence tables plus plot data
"""

from .catalog import (
    ApiCatalog,
    ApiSymbol,
    LibrarySpec,
    build_catalog,
    harvest_header_identifiers,
    load_catalog,
    save_catalog,
)
from .clientprep import (
    ClientRecord,
    LibraryInventory,
    build_library_inventory,
    parse_submodule_manifest,
    prepare_client,
)
from .coverage import (
    FileCoverage,
    ImprovementReport,
    Tracefile,
    annotate_catalog_coverage,
    coverage_delta,
    function_extents,
    merge_tracefiles,
    parse_tracefile,
    select_median_run,
)
from .metrics import (
    EvalCounts,
    PrecisionRecall,
    client_utilisation_distribution,
    coverage_buckets,
    precision_recall,
    size_buckets,
    unused_apis,
    use_distribution,
    used_not_tested,
)
from .scan import (
    CorpusAggregate,
    UsageReport,
    UseSite,
    find_api_uses,
    scan_client,
    strip_comments,
)

__version__ = "0.1.0"

__all__ = [
    "ApiCatalog",
    "ApiSymbol",
    "ClientRecord",
    "CorpusAggregate",
    "EvalCounts",
    "FileCoverage",
    "ImprovementReport",
    "LibraryInventory",
    "LibrarySpec",
    "PrecisionRecall",
    "Tracefile",
    "UsageReport",
    "UseSite",
    "annotate_catalog_coverage",
    "build_catalog",
    "build_library_inventory",
    "client_utilisation_distribution",
    "coverage_buckets",
    "coverage_delta",
    "find_api_uses",
    "function_extents",
    "harvest_header_identifiers",
    "load_catalog",
    "merge_tracefiles",
    "parse_submodule_manifest",
    "parse_tracefile",
    "precision_recall",
    "prepare_client",
    "save_catalog",
    "scan_client",
    "select_median_run",
    "size_buckets",
    "strip_comments",
    "unused_apis",
    "use_distribution",
    "used_not_tested",
]
