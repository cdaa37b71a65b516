"""Shared test settings: one fixed hypothesis profile, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile(
    "regkit", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("regkit")
