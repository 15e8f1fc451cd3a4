"""Hypothesis profiles: ``--hypothesis-profile=ci`` makes property tests
draw the same examples on every run, so a CI result cannot flake."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
