import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci prints the @reproduce_failure blob of a failing
# example, so a failure seen only in CI can be replayed locally. Every other
# setting keeps Hypothesis' default and each test's own @settings.
settings.register_profile("ci", print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
