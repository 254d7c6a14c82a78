"""The repository's performance benchmark (see perf/README.md)."""
