"""Setup shim for offline / legacy-setuptools environments.

The offline environment carries an older setuptools without PEP-517 wheel
support; this file enables ``pip install -e . --no-build-isolation`` there.
The library depends only on numpy.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dynamic-graphs",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
