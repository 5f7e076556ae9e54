"""Cost model: Cost objects, CostModel, distribution factor (Alg. 2)."""
