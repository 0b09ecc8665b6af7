from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Hashing modulo alpha-equivalence (PLDI 2021) - full reproduction",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed", "core/*.c"]},
    entry_points={"console_scripts": ["repro-alpha-hash=repro.cli:main"]},
)
