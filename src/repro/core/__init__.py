"""WarpGate core: the paper's primary contribution.

:class:`WarpGate` implements the two pipelines of Figure 2 — indexing
(scan → embed → SimHash LSH) and search (embed query → LSH probe → ranked
join candidates) — over a metered warehouse connector, with pluggable
sampling, embedding model, aggregation, and search backend.
:class:`LookupService` reproduces the Sigma Workbooks "Add column via
lookup" integration (Figure 3), including the cardinality-preserving join.
"""

from repro.core.candidates import DiscoveryResult, JoinCandidate, TimingBreakdown
from repro.core.config import WarpGateConfig
from repro.core.lookup import LookupRecommendation, LookupService
from repro.core.profiles import EmbeddingCache
from repro.core.system import IndexReport, JoinDiscoverySystem
from repro.core.warpgate import WarpGate

__all__ = [
    "DiscoveryResult",
    "EmbeddingCache",
    "IndexReport",
    "JoinCandidate",
    "JoinDiscoverySystem",
    "LookupRecommendation",
    "LookupService",
    "TimingBreakdown",
    "WarpGate",
    "WarpGateConfig",
]
