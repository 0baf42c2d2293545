"""Layered campaign benchmark for the ShadowBinding reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
``perfbench/README.md`` for the workloads, the metrics and the checks.
"""
