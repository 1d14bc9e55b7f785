"""Benchmark of the cedlite kernel; see README.md and run.py."""
