"""Runtime test configuration: hypothesis fuzz profiles.

The default profile keeps local/tier-1 runs fast.  CI's dedicated
wire-fuzz job exports ``HYPOTHESIS_PROFILE=ci-fuzz`` to push a much
larger example budget through the codec and ring-parser fuzz suites; tests that pin ``max_examples`` explicitly keep their pins
— only unpinned settings scale with the profile.
"""

import os

from hypothesis import settings

settings.register_profile("default", settings())
settings.register_profile(
    "ci-fuzz", max_examples=1000, deadline=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
