"""The repository benchmark: four SWEB workloads, end to end and by layer.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
