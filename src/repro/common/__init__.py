"""Shared infrastructure: configuration, constants and errors."""
