"""Online test-time adaptation for a toy promptable segmenter.

Importing the package only applies the allocator policy below; the API is in the submodules."""

__version__ = "0.1.0"

import ctypes
import platform

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# A training step allocates and frees the same temporaries every time, many
# of them 128-341 KiB. Under glibc's default dynamic thresholds the free
# heap top they leave is trimmed back to the kernel, and the next step
# page-faults it in again. Setting either parameter turns the dynamic
# thresholds off and fixes the other at its default, so both are set: a
# trim threshold alone would leave the mmap threshold at 128 KiB, and every
# array that large (the attention scores, exactly 128 KiB, and the last
# upstage's 256 KiB arrays) would get a fresh mmap on every call. With
# these values blocks up to 32 MiB (the most glibc accepts on 64-bit) come
# from the heap, and up to 1 GiB of free heap top is kept.
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 2**30
# Every thread that allocates would otherwise get an arena of its own (up
# to eight per core), and since the trim threshold keeps each arena's freed
# top, each keeps its own high-water mark: four strategies adapting in four
# threads held four sets of step temporaries. Threads run ttaseg work one at
# a time under the GIL, so a single shared arena costs no lock contention.
ARENA_MAX = 1


def _set_allocator_policy():
    """Apply the settings above through glibc's ``mallopt``; returns its
    three results, or None where the C library is not glibc or has no
    ``mallopt``."""
    if platform.libc_ver()[0] != "glibc":
        return None
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
            mallopt(_M_ARENA_MAX, ARENA_MAX))


MALLOPT_RESULTS = _set_allocator_policy()
