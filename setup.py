"""Legacy shim so `python setup.py develop` works offline (no wheel pkg).

Metadata lives in pyproject.toml.
"""
from setuptools import setup

setup()
