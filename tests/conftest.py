import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches constants it reads from the source under its home
# directory while tests are collected; keep that cache out of the
# checkout. The directory is removed when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
