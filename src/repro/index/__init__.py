"""Similarity-index substrate.

WarpGate's search step (§3.1.2) hashes column embeddings into a SimHash
(random hyperplane) LSH index approximating cosine similarity.  This package
provides that index plus the alternatives the paper discusses, all built on
one columnar substrate:

* :class:`VectorArena` / :class:`ColumnarIndex` — the shared columnar
  store: contiguous ``float32`` vector matrix, packed ``uint64`` SimHash
  band keys, tombstone deletion with threshold-triggered compaction, and
  the batched (one-GEMM) ``search_batch`` ranking path;
* :class:`SimHashLSHIndex` — the production index (banded SimHash, exact
  cosine re-ranking of candidates);
* :class:`ExactCosineIndex` — brute-force verification arm;
* :class:`PivotFilterIndex` — §5.2.3's block-and-verify direction
  (pivot-based metric filtering, after PEXESO);
* :class:`MinHashIndex` / :class:`MinHashSignature` — Jaccard machinery
  used by the Aurum and D3L baselines;
* :func:`load_npz_arrays` — zero-copy ``np.memmap`` reads of uncompressed
  ``.npz`` members (the durable store's segment reader).
"""

from repro.index.arena import ColumnarIndex, VectorArena
from repro.index.exact import ExactCosineIndex
from repro.index.lsh import SimHashLSHIndex
from repro.index.minhash import MinHashIndex, MinHashSignature
from repro.index.mmapio import load_npz_arrays
from repro.index.pivot import PivotFilterIndex
from repro.index.simhash import (
    SimHashFamily,
    hamming_distance,
    pack_band_keys,
    signature_cosine,
)

__all__ = [
    "ColumnarIndex",
    "ExactCosineIndex",
    "MinHashIndex",
    "MinHashSignature",
    "PivotFilterIndex",
    "SimHashFamily",
    "SimHashLSHIndex",
    "VectorArena",
    "hamming_distance",
    "load_npz_arrays",
    "pack_band_keys",
    "signature_cosine",
]
