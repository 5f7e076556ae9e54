"""perfbench: the wall-clock benchmark of the Ignite+Calcite reproduction.

Self-contained: it drives the engine only through its public surface and
nothing under ``src/`` imports it.  ``perfbench/run.py`` is the one entry
point; ``perfbench/README.md`` is the manual.
"""
