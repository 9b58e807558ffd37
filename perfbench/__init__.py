"""Benchmark for treeres: seeded workloads, correctness checks, tracing."""
