"""Partitioned storage behind pluggable adapters: tables, partitions, indexes."""
