import pytest
from hypothesis import settings

from geonav import DensitySpec

# every property test replays the same examples and has no time limit
settings.register_profile("geonav", derandomize=True, deadline=None)
settings.load_profile("geonav")


@pytest.fixture
def count_density_calls(monkeypatch):
    """``count_density_calls(limit)`` makes every density rule of the Euler
    walks (``DensitySpec.scalar``) count its calls and raise RuntimeError
    after ``limit`` of them, so a walk that would run for hours fails at
    once; it returns the list that grows by one item a call."""
    def install(limit):
        calls = []
        scalar = DensitySpec.scalar

        def counted(self):
            f = scalar(self)

            def f_counted(x, y):
                calls.append(None)
                if len(calls) > limit:
                    raise RuntimeError("the walk took its first steps")
                return f(x, y)

            return f_counted

        monkeypatch.setattr(DensitySpec, "scalar", counted)
        return calls

    return install
