"""perfbench's own tests: ``python -m pytest perfbench/tests -q``.

Not collected by the repository's tier-1 run (``testpaths = tests``).
"""
