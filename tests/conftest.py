import sys
from pathlib import Path

# allow running the tests without installing the package
src = Path(__file__).resolve().parent.parent / "src"
if str(src) not in sys.path:
    try:
        import dl2  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(src))

from hypothesis import settings

# property tests draw a fixed sequence of examples, so Tier-1 is reproducible
settings.register_profile("dl2", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("dl2")
