"""Hypothesis profile for the suite: derandomized, no deadline, no example database."""
import warnings

from hypothesis import settings

# hypothesis imports this module when a @given test fails, to report the failing
# example; there its import of libcst warns with a DeprecationWarning, which
# `filterwarnings = ["error"]` turns into INTERNALERROR, so no later test runs.
# Imported once here, with that warning ignored, it is already loaded then.
# Without libcst the import fails here and there alike, and hypothesis goes on.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

pytest_plugins = ["pytester"]

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
