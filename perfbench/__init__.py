"""The repository benchmark: workloads, layer tracing and metrics."""
