"""Benchmark harness for the rankone-gap CLI; see README.md."""
