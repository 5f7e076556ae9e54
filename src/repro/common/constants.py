"""Cost-model and simulation constants.

The paper's cost model (Section 4.2) builds every operator cost from a small
set of shared constants so costs remain comparable across operators:

* ``RPTC`` — row pass-through cost: CPU work to move one tuple through an
  operator.
* ``RCC`` — row comparison cost: CPU work to compare two rows (sorting,
  merge-join advance, hash-bucket verification).
* ``HAC`` — hash cost: CPU work to hash one row (hash join §5.1.2, hash
  aggregation).
* ``AFS`` — average field size in bytes; the legacy cost model (Eq. 4)
  multiplies cardinality by row width by ``AFS`` for memory/network
  components, which is exactly the unit mismatch Section 4.2 fixes.

The simulation constants convert accumulated work units into simulated
seconds.  Their absolute values are arbitrary (the paper's absolute numbers
came from Xeon E5-2620v2 machines); only ratios matter for reproducing the
*shape* of the results.
"""

from __future__ import annotations

# --- Cost-model constants (dimensionless work units) -----------------------

#: Row pass-through cost: handling one tuple inside an operator.
RPTC = 1.0

#: Row comparison cost: comparing two rows.
RCC = 0.6

#: Hash cost: hashing one row's key.
HAC = 0.4

#: Average field size in bytes (used by the *legacy* memory/network cost).
AFS = 8.0

# --- Simulation constants ---------------------------------------------------

#: Query-execution slots per site: Ignite's per-site thread pool, not the
#: paper's 24 cores, calibrated (DESIGN.md) so Table 3's contention knee —
#: IC+M's 2x threads overtake the pool between 2 and 4 clients — matches.
CORES_PER_SITE = 4

#: Work units a single core retires per simulated second.
CORE_UNITS_PER_SECOND = 200_000.0

#: Simulated network cost, in work units, to ship one byte between sites.
#: Modelled on 10 GbE being fast relative to per-tuple CPU work but not free.
NETWORK_UNITS_PER_BYTE = 0.02

#: Fixed per-message network overhead in work units (framing, syscalls).
NETWORK_UNITS_PER_MESSAGE = 50.0

#: Rows per network message when a sender batches its output.
NETWORK_ROWS_PER_MESSAGE = 128

#: Work units charged per row for crossing a splitter/duplicator boundary in
#: a variant fragment (Section 5.3.2 notes the full partition is read by all
#: threads and the split/collect machinery adds overhead).
VARIANT_SPLIT_UNITS_PER_ROW = 0.22

#: Fixed work units for setting up one variant fragment (thread + buffers).
VARIANT_SETUP_UNITS = 1_400.0

#: Work units for a fragment's fixed startup (scheduling, codegen analogue).
FRAGMENT_SETUP_UNITS = 1_000.0

#: Simulated-seconds limit per query; the analogue of the paper's 4 h
#: wall-clock cap that baseline Q17/Q19/Q21 plans exceeded.  Scaled to the
#: mini data sizes: ~10-300x a well-planned query's latency, as the paper's
#: 4 h cap was relative to second-to-minute query times.
RUNTIME_LIMIT_SECONDS = 15.0

#: Below this much per-site work, a fragment is not worth splitting into
#: variant fragments: the setup and re-read overheads exceed any gain, so
#: the engine keeps it single-threaded (a per-site runtime decision).
VARIANT_MIN_UNITS = 2_200.0
