"""Hypothesis profile for the suite: derandomized, no deadline, no example database."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
