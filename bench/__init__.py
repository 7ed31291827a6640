"""The repo benchmark: HTTP serving workloads with an outside-in per-layer trace.

Run ``python bench/run.py`` from the repository root; see ``bench/README.md``.
"""
