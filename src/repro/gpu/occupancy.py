"""Kernel occupancy calculation (Sections 2.2 and 3.5, Figure 7).

Occupancy measures how many wavefronts can be resident per SIMD relative to
the architectural maximum of 10. Residency is limited by whichever shared
resource runs out first:

* **VGPRs** — each wave needs ``vgprs_per_workitem`` registers per lane out
  of the SIMD's 256-entry file. The paper's example: ``Sort.BottomScan``
  uses 66 VGPRs -> floor(256/66) = 3 waves per SIMD -> 30% occupancy.
* **SGPRs** — scalar registers are allocated per wave from a shared file.
* **LDS** — allocated per workgroup from the CU's 64 KB.
* **workgroup slots** — a CU tracks at most ``max_workgroups_per_cu`` groups.

The LDS and workgroup limits are per-CU; they are converted to a per-SIMD
wave limit by dividing across the CU's SIMDs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from repro.errors import KernelSpecError
from repro.gpu.architecture import GpuArchitecture


class OccupancyLimits(NamedTuple):
    """Per-limiter maximum waves per SIMD (before taking the minimum)."""

    architectural: int
    vgpr: int
    sgpr: int
    lds: int
    workgroup_slots: int

    def binding(self) -> str:
        """Name of the limiter that binds (smallest limit, ties broken in
        the order architectural, vgpr, sgpr, lds, workgroup_slots)."""
        pairs = [
            ("architectural", self.architectural),
            ("vgpr", self.vgpr),
            ("sgpr", self.sgpr),
            ("lds", self.lds),
            ("workgroup_slots", self.workgroup_slots),
        ]
        return min(pairs, key=lambda kv: kv[1])[0]


class OccupancyResult(NamedTuple):
    """Computed occupancy for one kernel on one architecture."""

    waves_per_simd: int
    limits: OccupancyLimits

    @property
    def occupancy(self) -> float:
        """Kernel occupancy as a fraction of the architectural maximum."""
        return self.waves_per_simd / self.limits.architectural

    @property
    def limiting_resource(self) -> str:
        """The resource that bounds residency (e.g. ``"vgpr"``)."""
        return self.limits.binding()


def compute_occupancy(
    arch: GpuArchitecture,
    vgprs_per_workitem: int,
    sgprs_per_wave: int,
    lds_bytes_per_workgroup: int,
    workgroup_size: int,
) -> OccupancyResult:
    """Compute the wavefront residency of a kernel on ``arch``.

    Occupancy depends only on the architecture and the kernel's resource
    requests — never on the (n_cu, f_cu, f_mem) operating point — so the
    result is memoized: a 450-point grid sweep computes it exactly once.

    Args:
        arch: the GPU machine description.
        vgprs_per_workitem: vector registers allocated per workitem.
        sgprs_per_wave: scalar registers allocated per wavefront.
        lds_bytes_per_workgroup: LDS allocated per workgroup (0 if unused).
        workgroup_size: workitems per workgroup.

    Returns:
        An :class:`OccupancyResult` with the per-limiter breakdown.

    Raises:
        KernelSpecError: if a resource request exceeds the physical file or
            a size is non-positive where it must be positive.
    """
    return _compute_occupancy_cached(
        arch, vgprs_per_workitem, sgprs_per_wave,
        lds_bytes_per_workgroup, workgroup_size,
    )


@lru_cache(maxsize=4096)
def _compute_occupancy_cached(
    arch: GpuArchitecture,
    vgprs_per_workitem: int,
    sgprs_per_wave: int,
    lds_bytes_per_workgroup: int,
    workgroup_size: int,
) -> OccupancyResult:
    if workgroup_size <= 0:
        raise KernelSpecError("workgroup_size must be positive")
    if vgprs_per_workitem <= 0:
        raise KernelSpecError("vgprs_per_workitem must be positive")
    if vgprs_per_workitem > arch.vgprs_per_simd:
        raise KernelSpecError(
            f"kernel requests {vgprs_per_workitem} VGPRs/workitem; "
            f"file holds {arch.vgprs_per_simd}"
        )
    if sgprs_per_wave <= 0:
        raise KernelSpecError("sgprs_per_wave must be positive")
    if sgprs_per_wave > arch.sgprs_per_wave_file:
        raise KernelSpecError(
            f"kernel requests {sgprs_per_wave} SGPRs/wave; "
            f"file holds {arch.sgprs_per_wave_file}"
        )
    if lds_bytes_per_workgroup < 0:
        raise KernelSpecError("lds_bytes_per_workgroup must be non-negative")
    if lds_bytes_per_workgroup > arch.lds_per_cu:
        raise KernelSpecError(
            f"kernel requests {lds_bytes_per_workgroup} B of LDS/workgroup; "
            f"CU has {arch.lds_per_cu}"
        )

    arch_limit = arch.max_waves_per_simd
    vgpr_limit = arch.vgprs_per_simd // vgprs_per_workitem
    # Waves limited by how many whole waves' worth of SGPRs fit in the
    # per-SIMD scalar budget (per-wave file size x architectural max waves).
    sgpr_budget = arch.sgprs_per_wave_file * arch.max_waves_per_simd
    sgpr_limit = sgpr_budget // sgprs_per_wave

    waves_per_workgroup = math.ceil(workgroup_size / arch.wavefront_width)
    if lds_bytes_per_workgroup > 0:
        groups_by_lds = arch.lds_per_cu // lds_bytes_per_workgroup
    else:
        groups_by_lds = arch.max_workgroups_per_cu
    groups_per_cu = min(groups_by_lds, arch.max_workgroups_per_cu)
    # Convert per-CU workgroup residency to waves per SIMD.
    lds_limit = max(0, (groups_by_lds * waves_per_workgroup) // arch.simds_per_cu) \
        if lds_bytes_per_workgroup > 0 else arch_limit
    slot_limit = max(1, (groups_per_cu * waves_per_workgroup) // arch.simds_per_cu)

    limits = OccupancyLimits(
        architectural=arch_limit,
        vgpr=max(0, vgpr_limit),
        sgpr=max(0, sgpr_limit),
        lds=max(0, lds_limit),
        workgroup_slots=slot_limit,
    )
    waves = min(limits.architectural, limits.vgpr, limits.sgpr,
                limits.lds, limits.workgroup_slots)
    if waves < 1:
        raise KernelSpecError(
            "kernel cannot fit a single wavefront per SIMD: "
            f"limits={limits}"
        )
    return OccupancyResult(waves_per_simd=waves, limits=limits)
