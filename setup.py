"""Setuptools shim for environments whose pip/setuptools cannot build
editable installs from pyproject.toml alone (e.g. missing `wheel`).

`pip install -e .` uses pyproject.toml where possible; otherwise
`python setup.py develop` or `PYTHONPATH=src` are equivalent.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
