"""Scalar reference oracles the identity tests and perf gates compare against.

Production code keeps one fast path per capability; the slow, obviously
correct version of each lives here.  Importable from ``tests/`` and
``benchmarks/`` alike (run from the repository root).
"""
