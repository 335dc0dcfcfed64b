"""Suite-wide pytest hooks: every run names the numpy and scipy builds and
the BLAS thread count that the suite's bit-equalities held under (sparse
outputs' last bits also depend on SuperLU and ``scipy.sparse.csgraph``)."""

import os

import numpy as np
import scipy


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}, scipy {scipy.__version__}, BLAS {blas['name']}, OPENBLAS_NUM_THREADS={threads}"


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q hides the header
        terminalreporter.write_line(_environment())
