"""WarpGate reproduction: semantic join discovery for cloud data warehouses.

Reproduces Cong et al., *WarpGate: A Semantic Join Discovery System for
Cloud Data Warehouses* (CIDR 2023) as a self-contained Python library:

* :class:`repro.service.DiscoveryService` — the recommended entry point:
  a session-based serving facade with typed requests/responses,
  incremental index mutation (``add_table`` / ``drop_table`` /
  ``refresh_column`` without a full re-index), batch search, a
  thread-safe read path, and a stdlib JSON-over-HTTP server
  (``python -m repro serve``);
* :class:`repro.core.WarpGate` — the embedding + SimHash-LSH discovery
  core the service wraps, over a simulated, scan-metered cloud data
  warehouse;
* :class:`repro.baselines.Aurum` / :class:`repro.baselines.D3L` — the two
  comparison systems;
* :mod:`repro.datasets` — deterministic regenerations of the NextiaJD
  testbeds, Spider, the Sigma Sample Database, and the web-table
  pretraining corpus;
* :mod:`repro.eval` — the paper's metrics and experiment runner.

Quickstart::

    from repro import DiscoveryService, generate_testbed

    corpus = generate_testbed("XS")
    service = DiscoveryService()
    service.open(corpus.connector())
    response = service.search(corpus.queries[0].ref, k=5)
    print(response.describe())

The one-shot library flow (``WarpGate().index_corpus(...)`` then
``.search(...)``) keeps working unchanged underneath.
"""

import importlib

__version__ = "1.0.0"

# Public names resolve on first access (PEP 562), so importing one
# subsystem — the HTTP server, say — does not load the baselines (and
# networkx behind Aurum), the datasets or the evaluation harness.
_EXPORTS = {
    "Aurum": "repro.baselines",
    "D3L": "repro.baselines",
    "DiscoveryResult": "repro.core",
    "DiscoveryService": "repro.service",
    "IndexStats": "repro.service",
    "JoinCandidate": "repro.core",
    "LookupService": "repro.core",
    "SearchRequest": "repro.service",
    "SearchResponse": "repro.service",
    "ServiceError": "repro.service",
    "WarpGate": "repro.core",
    "WarpGateConfig": "repro.core",
    "evaluate_system": "repro.eval",
    "generate_sigma_sample_database": "repro.datasets",
    "generate_spider_corpus": "repro.datasets",
    "generate_testbed": "repro.datasets",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
