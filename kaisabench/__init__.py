"""KAISA training benchmark: workloads, layer probes and the run command (see run.py)."""
