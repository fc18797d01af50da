"""Repository benchmark: ``python -m bench {measure,run,compare}`` (see README.md)."""
