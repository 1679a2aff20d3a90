"""apimeter: build-free API usage and test-coverage analysis for C libraries.

Pipeline stages:
  catalog   — exported symbols of shared objects, filtered by header tokens
  clientprep — exclude submodules, vendored library copies, named files
  scan      — lexical call-site detection across client sources
  coverage  — LCOV ingestion and per-API entry-function attribution
  metrics/reports — usage, coverage and divergence tables plus plot data
"""

__version__ = "0.1.0"
