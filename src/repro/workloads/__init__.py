"""The paper's workload set.

Fourteen applications / twenty-five kernels covering the HPC and
scientific-computing behaviours of Section 6:

* SHOC: MaxFlops, DeviceMemory, Sort, SPMV, Stencil,
* Rodinia: LUD, CFD, SRAD, Streamcluster, B+Tree (BPT),
* Exascale proxies: CoMD, XSBench, miniFE,
* Graph500.

Each kernel is a calibrated :class:`~repro.perf.kernelspec.KernelSpec`
(instruction mix, registers, divergence, locality) wrapped with a phase
schedule describing how it changes across application iterations.
"""
