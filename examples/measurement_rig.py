"""The measurement path: DAQ sampling and run-to-run variance.

The paper's numbers come from a National Instruments DAQ card sampling
card power at 1 kHz, with each application run multiple times to average
out run-to-run variance (Section 6). This example reproduces that
measurement path end to end:

1. run an application and sample its power trace with the simulated DAQ,
2. compare DAQ-integrated energy against the analytic value,
3. enable run-to-run noise and show how averaging across repeats recovers
   the deterministic measurement.

Run:  python examples/measurement_rig.py
"""

import statistics

from repro import (
    BaselinePolicy,
    BatchSessionRunner,
    get_application,
    make_hd7970_platform,
)
from repro.platform.hd7970 import HardwarePlatform
from repro.power.daq import DaqCard


def main() -> None:
    platform = make_hd7970_platform()
    app = get_application("Streamcluster")
    runner = BatchSessionRunner(platform)
    run = runner.run(app, BaselinePolicy(platform.config_space))

    # 1-2. Sample the run's power trace at 1 kHz like the paper's rig.
    daq = DaqCard(sampling_frequency=1000.0, noise_std=0.8, seed=42)
    trace = daq.sample_segments(run.trace.power_segments())
    print(f"run duration: {run.metrics.time * 1e3:.1f} ms, "
          f"{len(trace.samples)} DAQ samples")
    print(f"analytic energy:      {run.metrics.energy:7.3f} J")
    print(f"DAQ-integrated energy:{trace.energy():7.3f} J "
          f"({trace.energy() / run.metrics.energy - 1:+.2%})")
    print(f"DAQ average power:    {trace.average_power():7.1f} W "
          f"(analytic {run.metrics.avg_power:.1f} W)")

    # 3. Run-to-run variance: the paper "ran each application multiple
    #    times and recorded the average".
    print("\nrun-to-run variance (2% execution-time noise):")
    times = []
    for seed in range(8):
        noisy = HardwarePlatform(noise_std_fraction=0.02, seed=seed)
        noisy_run = BatchSessionRunner(noisy).run(
            app, BaselinePolicy(noisy.config_space)
        )
        times.append(noisy_run.metrics.time)
        print(f"  run {seed}: {noisy_run.metrics.time * 1e3:7.2f} ms")
    mean = statistics.mean(times)
    spread = statistics.pstdev(times) / mean
    print(f"mean {mean * 1e3:.2f} ms, relative spread {spread:.2%}, "
          f"deterministic value {run.metrics.time * 1e3:.2f} ms "
          f"({mean / run.metrics.time - 1:+.2%} after averaging)")


if __name__ == "__main__":
    main()
