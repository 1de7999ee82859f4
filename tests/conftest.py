"""Run the suite with BLAS on one thread unless the environment says otherwise.

The tests' matrices are small, so threaded BLAS only adds contention: on a
machine with few cores, oversubscribed threads made the tests several times
slower. The variables must be set before numpy is first imported, which
this file is, so it runs ahead of every test module; subprocesses the tests
start inherit them. An explicit setting still wins.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
