"""Simulated cluster: task scheduling and workload simulation."""
