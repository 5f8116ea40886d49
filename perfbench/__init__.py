"""Socket-level serving benchmark for the qunits search server.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
