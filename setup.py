from setuptools import setup
setup(install_requires=["numpy", "scipy"])
