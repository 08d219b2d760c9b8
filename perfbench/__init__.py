"""Benchmark of record for the serving simulator and the offline policy path."""
