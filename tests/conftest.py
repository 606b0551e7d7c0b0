"""Suite-wide settings: one hypothesis profile for every property test.

``derandomize`` makes each run draw the same examples, so a failure
reproduces from the test name alone and the example database is not
needed.  ``deadline`` is off because a mixture fit's time per example
depends on the host, not on the code under test.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("flattop", derandomize=True, deadline=None, database=None)
    settings.load_profile("flattop")
