"""End-to-end and per-layer benchmark of the lotforge solver.

Run it from the repository root:

    python3 perfbench/run.py --workload random-mid --seed 1 --seconds 10 --trace 0

`workloads` builds each workload's inputs from the seed and checks every
op's output; `tracing` wraps the solver's layers from outside to derive
per-layer times and counts; `run` measures and prints one JSON result.
"""
