"""Core public API: the simulated Ignite+Calcite cluster."""
