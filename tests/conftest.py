"""Suite-wide hypothesis profiles.

``ci`` is what the server-smoke CI job reruns the marshal differential
and wire-fuzz suites under (``--hypothesis-profile=ci``): a fixed, much
larger example budget than tier-1's default.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, derandomize=True)
