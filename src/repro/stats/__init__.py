"""Statistics and cardinality estimation (the Calcite metadata providers)."""

# perfbench imports this no-op from the package (each cluster owns its sketches).
from repro.stats.sketch_registry import reset_sketch_state  # noqa: F401
