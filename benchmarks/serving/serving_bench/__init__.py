"""Open-loop TCP serving benchmark for the repro query server.

``run.py`` (one directory up) is the entry point; the modules here are its
parts: :mod:`inputs` and :mod:`workloads` own every generated input,
:mod:`sut` starts the server under test as a subprocess, :mod:`loadgen`
drives it, :mod:`verify` checks answers against the centralized oracle,
:mod:`ladder` is the traced per-layer run and :mod:`report` prints.
"""
