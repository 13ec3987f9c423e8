"""Repository benchmark: four closed-loop workloads with end-to-end and per-layer metrics.

Entry point: ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
