import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_report_header(config):
    # the numpy backend runs the lattice RK4 loops hundreds of times slower
    import chaoslab
    return f"chaoslab kernels backend: {chaoslab.BACKEND}"


@pytest.fixture
def rng():
    return np.random.default_rng(20230517)


def both_backends():
    """The kernel modules available in this environment."""
    from chaoslab import _kernels_py
    mods = [_kernels_py]
    try:
        from chaoslab import _kernels
        mods.append(_kernels)
    except ImportError:
        pass
    return mods


@pytest.fixture(params=both_backends(), ids=lambda m: m.BACKEND)
def kernel_backend(request):
    return request.param
