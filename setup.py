"""Setuptools entry point for the ``repro`` package (src layout).

Installs ``src/repro`` and its only runtime dependency, numpy::

    pip install .
    python setup.py develop   # editable install without the ``wheel`` package
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Risk-profiling-based defenses against evasion attacks on CGM "
        "glucose forecasters"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
