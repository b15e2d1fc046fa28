"""End-to-end and per-layer benchmark of the two-phase ``wuw`` path.

Run ``python3 wuwbench/run.py --help`` from the repository root.
"""
