"""Seeded corpora the workloads run on, owned by the benchmark.

``lake`` wraps ``repro.datasets.generate_testbed`` (the paper's NextiaJD
shape); ``wide`` and the extract tables are generated here.  Every run
prints :func:`digest`, so a change to ``repro.datasets`` that shifts a
workload shows up as a different corpus, not as a speed-up.
"""

from __future__ import annotations

import hashlib

import numpy as np

from bench.workload import (
    ADHOC_DATABASE,
    CORPUS_SEED,
    WIDE_COLUMNS_PER_TABLE,
    WIDE_DATABASE,
)
from repro.datasets import generate_testbed
from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.warehouse.catalog import Warehouse

__all__ = ["add_extracts", "digest", "lake", "wide"]

_WIDE_VALUES = 32
_WIDE_VOCABULARY = 600
_WIDE_COMMON = 14  # words of the vocabulary that every text column leans on
_WIDE_COMMON_DRAWS = 27
_WIDE_REDRAWN = 8  # values a partner column does not share with its source
_SYLLABLES = tuple(
    consonant + vowel for consonant in "bdfgklmnprstvz" for vowel in "aeiou"
)


def lake(seed: int, *, rows_scale: float, tables: int | None = None) -> Warehouse:
    """The NextiaJD-style testbed S, optionally cut to its first ``tables``."""
    warehouse = generate_testbed("S", seed=seed, rows_scale=rows_scale).warehouse
    if tables is None:
        return warehouse
    cut = Warehouse(warehouse.name)
    for position, (database, table) in enumerate(warehouse.table_refs()):
        if position < tables:
            cut.add_table(database, table)
    return cut


def add_extracts(
    warehouse: Warehouse, seed: int, *, copies: int, fraction: float, min_rows: int
) -> int:
    """Add ``copies`` row-subsampled extracts of every table; returns the count.

    An extract keeps ``fraction`` of its source's rows, in random order so
    a head-sampled scan of it is a uniform sample of the source, and never
    fewer than ``min_rows`` (or all) of them, so every query scan fetches
    the same number of rows whatever the table's size.  Copy 0 is drawn
    with ``CORPUS_SEED`` (the probe set asks about it, the same rows on
    every run); the others with ``seed``.  Extracts land in the ``adhoc``
    database and are *not* indexed: they are the tables a user uploads and
    asks "what does this join with".
    """
    probe_rng = np.random.default_rng([CORPUS_SEED, 0xE7])
    rng = np.random.default_rng([seed, 0xE7])
    added = 0
    for _database, table in list(warehouse.table_refs()):
        rows = table.row_count
        keep = min(rows, max(min_rows, int(rows * fraction)))
        for copy in range(copies):
            indices = (probe_rng if copy == 0 else rng).permutation(rows)[:keep].tolist()
            warehouse.add_table(
                ADHOC_DATABASE, table.take(indices).rename(f"{table.name}__x{copy:02d}")
            )
            added += 1
    return added


def _vocabulary(rng: np.random.Generator) -> list[str]:
    words: set[str] = set()
    while len(words) < _WIDE_VOCABULARY:
        picks = rng.integers(0, len(_SYLLABLES), size=int(rng.integers(2, 5)))
        words.add("".join(_SYLLABLES[pick] for pick in picks))
    return sorted(words)


def wide(seed: int, *, columns: int) -> Warehouse:
    """``columns`` short categorical columns over a shared vocabulary, 16 per table.

    A text column is 27 draws from 14 common words plus 5 from the other
    586, so any two columns are similar enough (cosine ~0.6) that most of
    the index is a SimHash candidate for any query, while 32 cached words
    embed almost for free: the probe is the request.  Column ``i`` in the
    first half has a planted partner ``i + columns/2`` (always another
    table): the same values with 8 redrawn, reshuffled.  Every 8th pair is
    small-range integers.
    """
    if columns % (2 * WIDE_COLUMNS_PER_TABLE):
        raise ValueError(f"columns must be a multiple of {2 * WIDE_COLUMNS_PER_TABLE}")
    rng = np.random.default_rng([seed, 0x71DE])
    vocabulary = np.array(_vocabulary(rng))
    common, specific = vocabulary[:_WIDE_COMMON], vocabulary[_WIDE_COMMON:]
    half = columns // 2
    values: list[list[object]] = [[] for _ in range(columns)]
    dtypes: list[DataType] = [DataType.STRING] * columns
    for index in range(half):
        if index % 8 == 7:
            low = int(rng.integers(0, 5000))
            source = rng.integers(low, low + 60, size=_WIDE_VALUES)
            partner = source.copy()
            partner[:_WIDE_REDRAWN] = rng.integers(low, low + 60, size=_WIDE_REDRAWN)
            dtypes[index] = dtypes[index + half] = DataType.INTEGER
        else:
            source = rng.permutation(
                np.concatenate(
                    [
                        common[rng.integers(0, len(common), size=_WIDE_COMMON_DRAWS)],
                        specific[
                            rng.integers(0, len(specific), size=_WIDE_VALUES - _WIDE_COMMON_DRAWS)
                        ],
                    ]
                )
            )
            partner = source.copy()
            partner[:_WIDE_REDRAWN] = specific[rng.integers(0, len(specific), size=_WIDE_REDRAWN)]
        values[index] = source.tolist()
        values[index + half] = rng.permutation(partner).tolist()
    warehouse = Warehouse("wide")
    for first in range(0, columns, WIDE_COLUMNS_PER_TABLE):
        warehouse.add_table(
            WIDE_DATABASE,
            Table(
                f"t{first // WIDE_COLUMNS_PER_TABLE:05d}",
                [
                    Column(f"c{position:02d}", values[first + position], dtypes[first + position])
                    for position in range(WIDE_COLUMNS_PER_TABLE)
                ],
            ),
        )
    return warehouse


def digest(warehouse: Warehouse) -> str:
    """Hash of every column ref, its row count and its first three values."""
    hasher = hashlib.sha256()
    for database, table in sorted(
        warehouse.table_refs(), key=lambda pair: (pair[0], pair[1].name)
    ):
        for column in table.columns:
            hasher.update(
                f"{database}.{table.name}.{column.name}:{table.row_count}:"
                f"{column.head(3)!r}\n".encode()
            )
    return hasher.hexdigest()[:16]
