import pytest
from hypothesis import HealthCheck, settings

from zerosums import config

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def verification_mode():
    """Run both unique-factorization algorithms and compare, in every test.

    Every upper-case field of the config is restored after the test, and a
    test that leaves one changed fails: later tests, and the benchmark's
    in-process worker, assume the defaults.
    """
    saved = {name: value for name, value in vars(config).items() if name.isupper()}
    config.VERIFICATION_MODE = True
    yield
    config.VERIFICATION_MODE = saved["VERIFICATION_MODE"]
    changed = sorted(
        name for name, value in saved.items() if getattr(config, name) != value
    )
    for name in changed:
        setattr(config, name, saved[name])
    if changed:
        pytest.fail(f"the test left config fields changed: {', '.join(changed)}")
