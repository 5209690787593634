"""End-to-end, layer-attributed benchmark of the RX index.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in its own process and prints one JSON
result line; see :mod:`perfbench.run`.
"""
