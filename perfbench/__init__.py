"""Benchmark of the efdp parser: workloads, tracing and the run entry point."""
