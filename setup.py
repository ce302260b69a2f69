# The compiled kernels; if they fail to build, chaoslab runs its numpy kernels.
from setuptools import Extension, setup

setup(ext_modules=[Extension("chaoslab._kernels", ["src/chaoslab/_kernels.c"], optional=True)])
