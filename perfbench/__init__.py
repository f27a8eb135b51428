"""Benchmark for masksched: seeded workloads, end-to-end metrics and a traced
per-layer run. Run it with ``python3 perfbench/run.py --workload NAME``."""
