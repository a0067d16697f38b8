"""End-to-end and per-layer benchmark of glasstrie; run ``perfbench/run.py``."""
