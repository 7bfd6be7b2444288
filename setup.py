"""Setup script: the project metadata for ``pip install -e .``.

Everything is stdlib-only, so this file is the whole packaging story; it
keeps working on offline machines that lack the ``wheel`` package required
by PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
