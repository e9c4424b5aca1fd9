"""Hypothesis profiles. The default is hypothesis's own; `ci` draws about
2,000 examples per property, for runs that can afford them:

    python -m pytest tests/test_index.py --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
