"""Sweep-level benchmark for the repro simulator (see perfbench/README.md)."""
