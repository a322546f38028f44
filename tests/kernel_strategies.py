"""Hypothesis strategies shared by the differential suites.

:func:`fuzz_specs` draws kernels from the descriptor space well beyond
the 25 calibrated ones: instruction mix (compute-only and zero-DRAM-byte
kernels included), occupancy limiters, divergence, L2 behaviour, a
window of one to eight requests and launch sizes on both sides of the
event simulator's wave cap.
"""

from hypothesis import strategies as st

from repro.perf.kernelspec import KernelSpec
from repro.platform.calibration import (default_calibration,
                                        pitcairn_calibration)

#: The two calibrated platforms, by name.
CALIBRATIONS = {"hd7970": default_calibration(),
                "pitcairn": pitcairn_calibration()}

#: Launch sizes (workitems) on both sides of the wave cap: 2**14 and
#: fewer stay under a cap of 8-64 waves per CU at most CU counts, 2**19
#: and more exceed it at every count, so admissions run.
LAUNCH_SIZES = (64, 1 << 14, 1 << 19, 1 << 21, 1 << 22)


@st.composite
def fuzz_specs(draw):
    """A kernel from the descriptor space (see the module docstring)."""
    mem = draw(st.sampled_from(
        ("memory", "memory", "compute-only", "zero-bytes")))
    if mem == "compute-only":
        fetch = write = 0.0
    else:
        fetch = draw(st.integers(1, 16)) * draw(st.sampled_from((1.0, 0.7)))
        write = float(draw(st.integers(0, 4)))
    bytes_per_access = st.sampled_from((4.0, 8.0, 16.0, 1.0))
    return KernelSpec(
        name="Fuzz.Kernel",
        total_workitems=draw(st.sampled_from(LAUNCH_SIZES))
        + draw(st.integers(0, 63)),
        workgroup_size=draw(st.sampled_from((256, 128, 64))),
        valu_insts_per_item=float(draw(st.integers(1, 400))),
        vfetch_insts_per_item=fetch,
        vwrite_insts_per_item=write,
        bytes_per_fetch=0.0 if mem == "zero-bytes" else draw(
            bytes_per_access),
        bytes_per_write=0.0 if mem == "zero-bytes" else draw(
            bytes_per_access),
        # 128 and 96 registers leave two waves per SIMD: eight resident
        # slots refilled by admissions, where ties meet reordered slots.
        vgprs_per_workitem=draw(st.sampled_from(
            (128, 96, 128, 96, 64, 32, 256, 16))),
        sgprs_per_wave=draw(st.integers(8, 102)),
        lds_bytes_per_workgroup=draw(st.sampled_from(
            (0, 0, 4096, 8192, 16384))),
        branch_divergence=draw(st.floats(0.0, 0.9)),
        l2_hit_rate=draw(st.floats(0.0, 0.95)),
        l2_thrash_sensitivity=draw(st.floats(0.0, 1.0)),
        outstanding_per_wave=draw(st.floats(0.5, 8.4)),
        access_efficiency=draw(st.floats(0.3, 1.0)),
    )
