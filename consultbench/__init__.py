"""The consultation benchmark: cold search, warm verify, open-loop wire.

``python3 consultbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the library in ``src/`` and
prints one JSON result line; see ``consultbench/README.md``.
"""
