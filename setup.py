"""Setuptools metadata for the ``repro`` package under ``src/``.

The package is the RbSyn reproduction (engine, apps, benchmarks and
evaluation harnesses); it has no third-party runtime dependency.  There is
no ``pyproject.toml``: this file holds all of the metadata.  Install it with
``pip install .`` (or ``pip install -e .`` for an editable install); the
tests and scripts also run without installing, with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="rbsyn-repro",
    version="0.1.0",
    description="A reproduction of RbSyn: type- and effect-guided program synthesis",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
