"""Shared test settings.

The ``ci`` hypothesis profile derandomizes the property tests, so a failure
in CI reproduces from its log: ``pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
