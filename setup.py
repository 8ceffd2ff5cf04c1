from setuptools import setup
setup(install_requires=["numpy", "scipy"],
      package_data={"repro.nn": ["_adam.c"], "repro.ml": ["_kmeans.c"]})
