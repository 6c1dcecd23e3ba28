#!/usr/bin/env python3
"""Run the three benchmark experiments at demo scale and write their CSVs.

Full-scale protocols (5000-signal track, 500 Monte-Carlo runs per sea
state) are what the `altismooth bench` subcommand runs by default; here the
counts are trimmed so the demo finishes in a few seconds.  Each report's
columns are the keys of its suite's rows, in order.
"""

from pathlib import Path

from altismooth import bench
from altismooth.blockio import write_report_csv

out_dir = Path("demo_reports")
out_dir.mkdir(exist_ok=True)

print("filter-length sweep (1200-signal track)...")
table1 = bench.run_table1(num_signals=1200, m_list=(50, 100, 300), seed=0)
print(f"  input RSNR {table1['input_rsnr_db']:.2f} dB")
for row in table1["rows"]:
    print(f"  length {row['filter_length']:4d}: {row['rsnr_db']:.2f} dB, "
          f"{row['ms_per_signal']:.3f} ms/signal")
write_report_csv(out_dir / "table1.csv", list(table1["rows"][0]), table1["rows"])

print("\nRSNR vs sea state (60 runs per SWH)...")
table2 = bench.run_table2(swh_list=(0.5, 2.0, 8.0), runs=60, seed=0)
for row in table2["rows"]:
    print(f"  swh {row['swh']:3.1f} m: SVD {row['rsnr_svd']:.2f} dB, "
          f"denoiser {row['rsnr_sse']:.2f} dB")
write_report_csv(out_dir / "table2.csv", list(table2["rows"][0]), table2["rows"])

print("\nretracking RMSE comparison (30 runs, swh = 2 m)...")
fig4 = bench.run_fig4(swh_list=(2.0,), runs=30, seed=0)
row = fig4["rows"][0]
for q in ("swh", "tau", "pu"):
    print(f"  rmse({q}): LS {row[f'rmse_{q}_ls']:.4f}  "
          f"SVD-LS {row[f'rmse_{q}_svd']:.4f}  "
          f"denoise-LS {row[f'rmse_{q}_sse']:.4f}")
write_report_csv(out_dir / "fig4.csv", list(fig4["rows"][0]), fig4["rows"])

print(f"\nreports written to {out_dir}/ "
      "(the CLI equivalent: altismooth bench --suite table1 --out reports)")
