"""Catalog: column types, table schemas, indexes and statistics."""
