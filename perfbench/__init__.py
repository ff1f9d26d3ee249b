"""Solver benchmark for gradedfve: fixed workloads, end-to-end metrics and a
traced run that breaks a pass down by module.  Entry point: ``run.py``."""
