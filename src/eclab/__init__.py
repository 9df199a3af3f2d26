"""Signaling-game experiments with a differentiable-stack receiver."""

__version__ = "0.1.0"

# BLAS/OpenMP thread-count variables, read once when numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
