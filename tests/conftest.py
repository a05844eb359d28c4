"""Fixtures shared across test modules."""

import hashlib
import zlib

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


@pytest.fixture
def zlib_calls(monkeypatch):
    """Every ``zlib.compress(...)`` call made while the test runs, as a list
    of the byte lengths compressed — the DEFLATE work behind wire sizes.
    ``src/`` always spells the call ``zlib.compress``."""
    real = zlib.compress
    calls = []

    def counting(data, *args, **kwargs):
        calls.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(zlib, "compress", counting)
    return calls
