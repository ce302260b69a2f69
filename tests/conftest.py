import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_report_header(config):
    # the numpy backend runs the lattice RK4 loops hundreds of times slower
    import chaoslab
    return f"chaoslab kernels backend: {chaoslab.BACKEND}"


@pytest.fixture
def rng():
    return np.random.default_rng(20230517)


@pytest.fixture(scope="session")
def session_kernels(tmp_path_factory):
    """chaoslab._kernels built once per session from src/chaoslab/_kernels.c,
    or the numpy twins chaoslab._kernels_py where no C compiler exists.

    `setup.py build_ext` writes the extension into a temporary directory and
    nothing under src/, so chaoslab.BACKEND stays what the installation
    gives.  The module is loaded from there without replacing any
    chaoslab._kernels in sys.modules.
    """
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        from chaoslab import _kernels_py
        return _kernels_py
    out = tmp_path_factory.mktemp("kernels")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out / "obj")],
        cwd=ROOT, capture_output=True, text=True)
    built = list(out.glob("chaoslab/_kernels*"))
    if build.returncode != 0 or len(built) != 1:
        pytest.fail(f"building chaoslab._kernels failed:\n{build.stdout}\n{build.stderr}")
    saved = sys.modules.get("chaoslab._kernels")
    spec = importlib.util.spec_from_file_location("chaoslab._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if saved is None:
        sys.modules.pop("chaoslab._kernels", None)
    else:
        sys.modules["chaoslab._kernels"] = saved
    return module


@pytest.fixture(scope="session")
def compiled_kernels(session_kernels):
    """The session-built extension; skips where no C compiler exists."""
    if session_kernels.BACKEND != "compiled":
        pytest.skip("no C compiler to build chaoslab._kernels")
    return session_kernels


@pytest.fixture(params=["python", "compiled"])
def kernel_backend(request):
    """Each kernel module: the numpy twins and the session-built extension."""
    if request.param == "compiled":
        return request.getfixturevalue("compiled_kernels")
    from chaoslab import _kernels_py
    return _kernels_py
