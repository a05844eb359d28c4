"""Unit and property tests for the content model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import HIGH_COMPRESSION
from repro.content import (
    Content,
    random_content,
    text_content,
)


def test_random_content_deterministic():
    assert random_content(1024, seed=5).md5 == random_content(1024, seed=5).md5


def test_random_content_differs_by_seed():
    assert random_content(1024, seed=1).data != random_content(1024, seed=2).data


def test_random_content_exact_size():
    for size in (0, 1, 100, 65_536, 65_537):
        assert random_content(size).size == size


def test_text_content_exact_size_and_ascii():
    content = text_content(10_000, seed=3)
    assert content.size == 10_000
    content.data.decode("ascii")  # must not raise


def test_random_content_incompressible():
    content = random_content(100_000, seed=1)
    assert content.md5  # a known digest: priced through the wire-size memo
    assert HIGH_COMPRESSION.ratio(content) > 0.99


def test_text_content_compressible():
    content = text_content(100_000, seed=1)
    assert HIGH_COMPRESSION.ratio(content) < 0.6
    assert content.cached_md5 is None  # priced directly, never hashed


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        random_content(-1)
    with pytest.raises(ValueError):
        text_content(-1)


def test_append_concatenates():
    a = random_content(100, seed=1)
    b = random_content(50, seed=2)
    joined = a.append(b)
    assert joined.size == 150
    assert joined.data == a.data + b.data


def test_concat_self_doubles():
    content = random_content(64, seed=4)
    doubled = content.concat_self()
    assert doubled.data == content.data * 2


def test_modify_byte_changes_exactly_one_byte():
    content = random_content(1000, seed=7)
    modified = content.modify_byte(123)
    diffs = [i for i, (x, y) in enumerate(zip(content.data, modified.data))
             if x != y]
    assert diffs == [123]
    assert modified.size == content.size


def test_modify_byte_out_of_range():
    with pytest.raises(IndexError):
        random_content(10).modify_byte(10)


def test_modify_random_byte_deterministic_and_differs():
    content = random_content(1000, seed=9)
    first = content.modify_random_byte(seed=1)
    second = content.modify_random_byte(seed=1)
    assert first.data == second.data
    assert first.data != content.data


def test_modify_random_byte_on_empty_rejected():
    with pytest.raises(ValueError):
        random_content(0).modify_random_byte()


def test_equality_and_hash_follow_bytes():
    a = random_content(128, seed=1)
    b = Content(bytes(a.data))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Content(b"other")


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_generation_deterministic_property(size, seed):
    assert random_content(size, seed=seed).data == random_content(size, seed=seed).data


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=20))
@settings(max_examples=30, deadline=None)
def test_slice_matches_python_slice(size, seed):
    content = random_content(size, seed=seed)
    assert content.slice(1, size // 2).data == content.data[1:1 + size // 2]
