"""Space/time tradeoff analysis for conjunctive queries with access patterns."""

__version__ = "0.1.0"
