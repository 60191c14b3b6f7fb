"""Time the aggregators, alone and inside the full reconstruction pipeline.

A reduced grid so the demo finishes in under a minute; `setfusion bench`
runs the full default grid.
"""

from setfusion.bench import BenchConfig, run_bench

cfg = BenchConfig(n_grid=(1, 8, 24), inner_loops=2,
                  aggregators=("attsets_fc", "mean", "max", "gru"))
report = run_bench(cfg)

print(report.to_csv())
print(f"medians of {report.repeats} repetitions after {report.warmups} warmups")
print(report.environment)

print("\nthings to notice:")
gru1 = report.cell("gru", 1)["agg_only_ms"]
gru24 = report.cell("gru", 24)["agg_only_ms"]
print(f"  gru aggregation scales with set size: {gru1:.3f} ms at N=1 -> {gru24:.3f} ms at N=24")
for n in cfg.n_grid:
    att = report.cell("attsets_fc", n)["full_forward_ms"]
    mean = report.cell("mean", n)["full_forward_ms"]
    print(f"  full pipeline at N={n:>2}: attention {att:.3f} ms vs mean pooling {mean:.3f} ms "
          f"(ratio {att / mean:.2f})")
