"""End-to-end benchmark of the simulator: four serving workloads.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds one workload from the repo's public builders,
serves it through ``cluster.serve()`` and prints one JSON result line.
See ``perfbench/README.md`` for the workloads and metrics.
"""
