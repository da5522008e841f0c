"""The repository benchmark: the experiment suite, timed end to end and
split by layer.  See ``README.md`` in this directory and
``BENCHMARK.json`` at the repository root."""
