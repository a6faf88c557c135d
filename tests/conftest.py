"""Settings shared by every test module.

Property tests run under a fixed hypothesis profile: derandomized, so every
run draws the same examples, without a per-example deadline, and with a
bounded number of examples so that the suite's runtime stays bounded.
"""

from hypothesis import settings

settings.register_profile(
    "erlangreg", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("erlangreg")
