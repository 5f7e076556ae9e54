"""The paper's headline experiment in miniature: IC vs IC+ vs IC+M on TPC-H.

    python examples/tpch_showdown.py [scale_factor]

Loads the mini TPC-H data set into all three system variants on four
sites and prints the failure modes the baseline exhibits (planning
failures for Q2/Q5/Q9, runtime-limit timeouts for Q17/Q19/Q21 from SF 0.5
up) and the per-query speedups of the improved systems — Figures 7 and 8
of the paper, the same objects ``repro-bench failures|figure7|figure8``
print.
"""

import sys

from repro.bench.reporting import PaperRun


def main(scale_factor: float = 0.5) -> None:
    print(f"TPC-H (mini) at scale factor {scale_factor}, 4 sites\n")
    run = PaperRun((scale_factor,), (4,))
    for artefact in (run.failures(), run.figure7(), run.figure8()):
        print(artefact.to_text())
        print()
    print("Baseline failure modes (Section 1 of the paper):")
    print("  planning_failed : single-phase optimisation exhausts the budget")
    print("  timeout         : nested-loop plans exceed the runtime limit")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
