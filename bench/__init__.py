"""Benchmark harness for the realforms package.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``bench/README.md``.
"""
