"""Closed-loop, single-client benchmark of mircv_ray's build and query paths.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
