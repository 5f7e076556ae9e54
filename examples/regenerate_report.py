"""Regenerate the paper's evaluation artefacts into a markdown report.

    python examples/regenerate_report.py [output.md] [--quick]

Asks one :class:`repro.bench.reporting.PaperRun` for the failure matrix,
Figures 7/8/11 and Table 3 and writes their ``to_markdown()`` into one
self-contained document.  ``--quick`` uses small scale factors (~1
minute); the default uses the paper-aligned mini SFs 0.5 and 1.0 (several
minutes).
"""

import sys
import time

from repro.bench.reporting import PaperRun


def main(
    path: str = "RESULTS.md",
    scale_factors=(0.5, 1.0),
    sites=(4, 8),
    clients=(2, 4, 8),
) -> None:
    run = PaperRun(scale_factors, sites)
    steps = [
        # The Q17/Q19/Q21 timeouts need the paper's smallest SF.
        ("failure matrix", lambda: run.failures(scale_factor=0.5)),
        ("figure 7", run.figure7),
        ("figure 8", run.figure8),
        ("table 3", lambda: run.table3(clients, scale_factor=max(scale_factors))),
        ("figure 11", run.figure11),
    ]
    started = time.time()
    sections = []
    for number, (label, produce) in enumerate(steps, 1):
        print(f"{number}/{len(steps)} {label} ...")
        sections.append(produce().to_markdown())

    body = (
        "# Reproduced evaluation artefacts\n\n"
        f"Generated in {time.time() - started:.0f}s at mini scale factors "
        f"{list(scale_factors)}, {list(sites)} sites.\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    with open(path, "w") as handle:
        handle.write(body)
    print(f"wrote {path}")


if __name__ == "__main__":
    paths = [a for a in sys.argv[1:] if not a.startswith("--")]
    quick = "--quick" in sys.argv
    main(*paths[:1], scale_factors=(0.1, 0.2) if quick else (0.5, 1.0))
