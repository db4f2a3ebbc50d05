"""Benchmark of tromkit: workloads, span tracing and the run entry point."""
