"""Test-wide settings."""

from hypothesis import settings

# every property test draws the same examples on every run and writes no
# example database
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
