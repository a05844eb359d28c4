"""Fixtures shared across test modules."""

import hashlib

import pytest


@pytest.fixture
def md5_calls(monkeypatch):
    """Every ``hashlib.md5(...)`` call made while the test runs, as a list
    of the byte lengths hashed — a timing-free measure of digest work.
    ``src/`` always spells the call ``hashlib.md5``, so patching the module
    attribute sees all of them."""
    real = hashlib.md5
    calls = []

    def counting(data=b"", **kwargs):
        calls.append(len(data))
        return real(data, **kwargs)

    monkeypatch.setattr(hashlib, "md5", counting)
    return calls
