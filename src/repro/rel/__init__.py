"""Relational algebra: expressions, logical operators, traits, conversion."""
