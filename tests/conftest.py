import functools
import importlib
import pkgutil
import sys

import pytest
from hypothesis import HealthCheck, settings

import zerosums
from zerosums import config, factorization

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

# In-process tests compare every is_ufim answer on a multiset of at most this
# many elements with the intersection-closure oracle, whose subset listing
# grows as 2^l.
CROSS_CHECK_LIMIT = 20


def cross_checked(is_ufim, oracle):
    """is_ufim, with its answer on an input of at most CROSS_CHECK_LIMIT
    elements compared with oracle's; AssertionError when they differ."""

    @functools.wraps(is_ufim)
    def wrapper(ms, *args, **kwargs):
        answer = is_ufim(ms, *args, **kwargs)
        if ms.size <= CROSS_CHECK_LIMIT:
            other = oracle(ms)
            if other != answer:
                raise AssertionError(
                    f"unique-factorization tests disagree on {ms!r}: "
                    f"peeling={answer}, intersection={other}"
                )
        return answer

    return wrapper


def install_cross_check():
    """Replace is_ufim at every binding in the zerosums modules, as the
    benchmark's tracer installs its wrappers, so library callers (K1 and N1
    witness checks, constructions, decompositions) are checked too."""
    for module in pkgutil.iter_modules(zerosums.__path__):
        if module.name != "__main__":
            importlib.import_module(f"zerosums.{module.name}")
    original = factorization.is_ufim
    wrapper = cross_checked(original, factorization.is_ufim_by_intersection)
    for name, module in list(sys.modules.items()):
        if name == "zerosums" or name.startswith("zerosums."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


install_cross_check()


@pytest.fixture(autouse=True)
def config_restored():
    """Every upper-case field of the config is restored after the test, and a
    test that leaves one changed fails: later tests, and the benchmark's
    in-process worker, assume the defaults.
    """
    saved = {name: value for name, value in vars(config).items() if name.isupper()}
    yield
    changed = sorted(
        name for name, value in saved.items() if getattr(config, name) != value
    )
    for name in changed:
        setattr(config, name, saved[name])
    if changed:
        pytest.fail(f"the test left config fields changed: {', '.join(changed)}")
