"""Reference noise system walkthrough.

Each noise-bit's logic-high state is a random telegraph wave: +1 or -1
per clock cycle with probability 0.5. The logic-low state is squeezed to
the constant 1, so only the M high waveforms need a generator. Run this
script to see the waveforms, the vacuum property, and the orthogonality
statistics that make them usable as a basis.
"""

import numpy as np

from noiselogic import check_orthogonality, generate_reference_system

M, T, SEED = 4, 10_000, 7

sys = generate_reference_system(M, T, seed=SEED)
print(f"reference system: M={M} noise-bits, T={T} clocks, seed={SEED}")

# the first 20 clock cycles of each high reference
for i in range(1, M + 1):
    head = " ".join(f"{v:+d}" for v in sys.high(i).samples[:20])
    print(f"  high_{i}: {head} ...")
print(f"  low   : {' '.join(f'{v:+d}' for v in sys.low.samples[:20])} (constant)")

# determinism: the same seed rebuilds the same waveforms, sample for sample
again = generate_reference_system(M, T, seed=SEED)
print("\nbit-identical regeneration:", all(sys.high(i) == again.high(i) for i in range(1, M + 1)))

# vacuum property: any RTW times itself collapses to the constant 1
r = sys.high(2)
print("self-product is the constant-1 vacuum:", r * r == sys.low)

# products of distinct references are again +/-1 telegraph waves
r12 = sys.high(1) * sys.high(2)
print("product of two references stays +/-1:", r12.is_binary())

# zero mean and zero cross-correlation, within the 4/sqrt(T) window
print(f"\nper-trace means (bound {4 / np.sqrt(T):.4f}):")
for i in range(1, M + 1):
    print(f"  high_{i}: {sys.high(i).samples.mean():+.4f}")

report = check_orthogonality(sys)
print(f"pairwise cross-correlations (bound {report.bound:.4f}):")
for pair in report.pairs:
    print(f"  ({pair.i},{pair.k}): {pair.correlation:+.4f}  [{pair.status}]")
print("orthogonality check passed:", report.ok)
