"""Packaging for the ``repro`` library (the RX index reproduction).

The importable package lives under ``src/repro``.  Install it with
``pip install -e .`` (or ``python setup.py develop`` where pip's isolated
build environment is unavailable offline); the version is read from
``repro.__version__`` so it is declared once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
