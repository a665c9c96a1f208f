"""Import Hypothesis's failure-report patcher once, with its DeprecationWarning ignored.

When a Hypothesis test fails, the report imports hypothesis.extra._patching, which imports
libcst and, through it, mypy_extensions.TypedDict; that raises a DeprecationWarning, which the
suite's filterwarnings turns into an error, and pytest stopped with INTERNALERROR before it
printed the falsifying example or ran the next test. Imported here first, the module is cached.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
