"""Execution engine: physical operators, fragments, variants, interpreter."""
