"""The suite's cross-check of is_ufim: every in-process call on a multiset
of at most CROSS_CHECK_LIMIT elements is compared with the
intersection-closure oracle (conftest.py), at every binding the library
calls it through."""

import inspect
import sys

import pytest

from conftest import CROSS_CHECK_LIMIT, cross_checked
from zerosums import IndexedMultiset, factorization, is_ufim, normalize_group

C4 = normalize_group([4])


def ones(n):
    return IndexedMultiset.from_elements(normalize_group([n]), [[1]] * n, max_size=n)


def test_a_disagreeing_pair_raises():
    pair = IndexedMultiset.from_elements(C4, [[1], [3]])
    checked = cross_checked(lambda ms: True, lambda ms: False)
    with pytest.raises(AssertionError, match="disagree"):
        checked(pair)
    assert cross_checked(lambda ms: False, lambda ms: False)(pair) is False


def test_the_oracle_is_not_called_past_the_limit():
    def oracle(ms):
        raise RuntimeError("called")

    checked = cross_checked(lambda ms: True, oracle)
    assert checked(ones(CROSS_CHECK_LIMIT + 1)) is True
    with pytest.raises(RuntimeError):
        checked(ones(CROSS_CHECK_LIMIT))


def test_every_binding_of_is_ufim_is_cross_checked():
    peel = inspect.unwrap(factorization.is_ufim)
    assert peel is not factorization.is_ufim
    bindings = {
        (name, key)
        for name, module in sys.modules.items()
        if name == "zerosums" or name.startswith("zerosums.")
        for key, value in vars(module).items()
        if inspect.unwrap(value) is peel
    }
    unchecked = {(name, key) for name, key in bindings
                 if getattr(sys.modules[name], key) is peel}
    assert unchecked == set()
    # The package, its defining module, and the two library callers.
    assert {name for name, _ in bindings} >= {
        "zerosums", "zerosums.factorization", "zerosums.constructions",
        "zerosums.invariants",
    }


def test_is_ufim_takes_one_argument():
    assert list(inspect.signature(is_ufim).parameters) == ["ms"]
    with pytest.raises(TypeError):
        is_ufim(IndexedMultiset.from_elements(C4, [[1], [3]]), verify=True)
