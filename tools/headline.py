"""Dev tool: full evaluation headline vs the paper's numbers."""
import math
from repro.analysis.evaluation import EvaluationHarness
from repro.core.baseline import BaselinePolicy
from repro.core.harmonia import HarmoniaPolicy
from repro.core.oracle import OraclePolicy
from repro.core.variants import ComputeDvfsOnlyPolicy, make_cg_only_policy
from repro.platform.hd7970 import make_hd7970_platform
from repro.sensitivity.predictor import train_predictors
from repro.workloads.registry import all_applications

p = make_hd7970_platform()
apps = all_applications()
report = train_predictors(p, apps)
space = p.config_space
harness = EvaluationHarness(p, BaselinePolicy(space))
policies = [
    make_cg_only_policy(space, report.compute, report.bandwidth),
    HarmoniaPolicy(space, report.compute, report.bandwidth),
    OraclePolicy(p),
    ComputeDvfsOnlyPolicy(space, report.compute, report.bandwidth),
]
summary = harness.evaluate(apps, policies)
print(f"{'app':14s} {'ED2cg':>7s} {'ED2hm':>7s} {'ED2or':>7s} {'prfhm':>7s} {'prfcg':>7s} {'pwrhm':>7s} {'enehm':>7s}")
for app in apps:
    c = {pol: summary.comparison(app.name, pol) for pol in ("cg-only", "harmonia", "oracle")}
    print(f"{app.name:14s} {c['cg-only'].ed2_improvement:7.1%} {c['harmonia'].ed2_improvement:7.1%} "
          f"{c['oracle'].ed2_improvement:7.1%} {c['harmonia'].performance_delta:7.1%} "
          f"{c['cg-only'].performance_delta:7.1%} {c['harmonia'].power_saving:7.1%} {c['harmonia'].energy_improvement:7.1%}")
for ex in (False, True):
    tag = "geomean2" if ex else "geomean1"
    print(f"{tag:14s} "
          f"cg={summary.geomean_ed2('cg-only', ex):6.1%} hm={summary.geomean_ed2('harmonia', ex):6.1%} "
          f"or={summary.geomean_ed2('oracle', ex):6.1%} dvfs={summary.geomean_ed2('dvfs-only', ex):6.1%} | "
          f"perf hm={summary.geomean_performance('harmonia', ex):+.2%} cg={summary.geomean_performance('cg-only', ex):+.2%} "
          f"dvfs={summary.geomean_performance('dvfs-only', ex):+.2%} | pwr hm={summary.geomean_power('harmonia', ex):5.1%}")
print("\npaper: hm 12% avg / 36% max(BPT), cg ~6%, oracle gap <=3%; perf hm -0.36% avg / -3.6% max(SC), cg -2.2% avg / -27% max(SC); pwr 12% avg / 19% max(Stencil); dvfs-only 3% ED2, -1% perf")
