"""Query planning: Hep rewriting, Volcano cost-based stage, physical DP."""
