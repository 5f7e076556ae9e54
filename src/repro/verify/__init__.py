"""Differential correctness harness (reference oracle + plan invariants)."""
