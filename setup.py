"""Packaging for the ``repro`` library.

The sources live under ``src/``; ``pip install -e .`` installs the ``repro``
package (and with it ``python -m repro``) and its numpy/scipy runtime
dependencies.  The test and benchmark tools are in ``requirements.txt``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="Reproduction of Tailors: overbooking buffer capacity for "
                "sparse tensor algebra accelerators",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)
