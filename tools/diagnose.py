"""Dev diagnostic: per-kernel controller behaviour under Harmonia."""
from repro.core.baseline import BaselinePolicy
from repro.core.harmonia import HarmoniaPolicy
from repro.platform.hd7970 import make_hd7970_platform
from repro.runtime.session import BatchSessionRunner
from repro.sensitivity.predictor import train_predictors
from repro.workloads.registry import all_applications
from repro.units import MHZ

p = make_hd7970_platform()
apps = all_applications()
report = train_predictors(p, apps)
space = p.config_space
runner = BatchSessionRunner(p)

for app in apps:
    hm = HarmoniaPolicy(space, report.compute, report.bandwidth)
    run = runner.run(app, hm)
    base = runner.run(app, BaselinePolicy(space))
    print(f"\n=== {app.name}: ed2_imp={(base.metrics.ed2-run.metrics.ed2)/base.metrics.ed2:+.1%} "
          f"perf={(base.metrics.time/run.metrics.time-1):+.1%} pwr={1-run.metrics.avg_power/base.metrics.avg_power:+.1%}")
    for k in app.kernels:
        recs = run.trace.records_for_kernel(k.name)
        stats = hm.stats(k.name)
        # online snapshot at first & last obs
        snap0 = hm._cg.snapshot(recs[0].result.counters)
        snapN = hm._cg.snapshot(recs[-1].result.counters)
        cfgs = {}
        for r in recs:
            d = r.config.describe()
            cfgs[d] = cfgs.get(d, 0) + r.time
        tot = sum(cfgs.values())
        top = sorted(cfgs.items(), key=lambda kv: -kv[1])[:3]
        tops = ", ".join(f"{c}:{t/tot:.0%}" for c, t in top)
        print(f"  {k.name:28s} bins0=({snap0.compute_bin.value},{snap0.bandwidth_bin.value}) "
          f"s=({snap0.compute:.2f},{snap0.bandwidth:.2f}) cg={stats.cg_actions} fg={stats.fg_actions} ph={stats.phase_changes} | {tops}")
