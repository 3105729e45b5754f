"""Packaging metadata for the `repro` library.

Editable install::

    pip install -e .                 # normal environments
    python setup.py develop          # offline fallback (no `wheel` package)

After installing, ``import repro`` works without the ``PYTHONPATH=src``
hack the tier-1 test command uses.
"""

import os

from setuptools import find_packages, setup

_here = os.path.abspath(os.path.dirname(__file__))
_readme = os.path.join(_here, "README.md")
long_description = ""
if os.path.exists(_readme):
    with open(_readme, encoding="utf-8") as fh:
        long_description = fh.read()

setup(
    name="repro-matrix-free-fv",
    version="1.1.0",
    description=(
        "Reproduction of 'Matrix-Free Finite Volume Kernels on a Dataflow "
        "Architecture' (SC 2024): a matrix-free TPFA FV CG solver on a "
        "simulated wafer-scale fabric, a GPU device model, and calibrated "
        "performance models"
    ),
    long_description=long_description,
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest>=7", "hypothesis>=6", "scipy"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Topic :: Scientific/Engineering",
    ],
)
