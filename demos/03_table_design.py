"""From band spreads to quantization steps: the piece-wise linear mapping
and the comparison baselines.

Run:  python demos/03_table_design.py
"""

import numpy as np

from statjpeg import PlmParams, derive_plm_table, rm_hf_table, same_q_table, segment_bands, standard_table
from statjpeg.tables import format_grid

# --- the mapping itself ------------------------------------------------------
params = PlmParams()  # the stock defaults
print("spread -> step under the default parameters:")
for d in (0, 5, 19.9, 20, 35, 60, 61, 78, 100, 250):
    q = derive_plm_table(np.full(64, float(d)), params).values[0]
    branch = "small" if d <= params.t1 else ("middle" if d <= params.t2 else "large")
    print(f"  delta {d:6.1f} ({branch:>6}-spread branch) -> Q {q:3d}")
floor_delta = (params.c - params.q_min) / params.k3
print(f"note the floor at q_min={params.q_min} once delta exceeds "
      f"({params.c:g}-{params.q_min})/{params.k3:g} = {floor_delta:.2f}")

# --- a natural-looking spread profile ----------------------------------------
# strong DC, decaying AC energy: roughly what photographic corpora produce
decay = np.linspace(0, 15, 64)[::-1].copy()
decay[0] = 200.0
decay[1], decay[8], decay[9] = 70.0, 55.0, 30.0
table = derive_plm_table(decay, params)
print("\ndesigned table for a synthetic spread profile:")
print(format_grid(table))

# --- band segmentation: where the energy actually lives ----------------------
by_magnitude = segment_bands(decay, "magnitude")
by_position = segment_bands(decay, "position")
print("\nlow-frequency set by magnitude:", sorted(by_magnitude.lf))
print("low-frequency set by position: ", sorted(by_position.lf))
print("(magnitude-based segmentation follows measured spread, not layout)")

# --- the baselines ------------------------------------------------------------
print("\nbaselines:")
print("standard table at QF 50 (Annex-K base):")
print(format_grid(standard_table(50)))
print("\nuniform step 4 ('same step everywhere'):")
print(format_grid(same_q_table(4)))
rm = rm_hf_table(standard_table(100), 3)
print(f"\nhigh-frequency removal keeps the base table and zeroes "
      f"zig-zag positions {rm.provenance['drop_zigzag']} at quantization")
