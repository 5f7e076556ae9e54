"""Table 3 in miniature: Average Query Latency under concurrent clients.

    python examples/multi_client_workload.py

Closed-loop terminals submit randomised TPC-H queries for 300 simulated
seconds; concurrent queries contend for each site's execution slots.
Watch IC+M win at two clients and fall behind IC+ at four and eight, when
its doubled thread count oversubscribes the per-site pool — the paper's
Section 6.3 CPU-contention effect.  Prints the object ``repro-bench
table3`` prints.
"""

from repro.bench.reporting import AQL_WORKLOAD, PaperRun


def main(scale_factor=0.5, sites=(4, 8), clients=(2, 4, 8)) -> None:
    # Per the paper, the six queries the baseline cannot run are disabled
    # for every system "to ensure a fair comparison".
    print(f"Workload: {len(AQL_WORKLOAD)} TPC-H queries "
          f"({', '.join(AQL_WORKLOAD)})\n")
    print(PaperRun((scale_factor,), sites).table3(clients).to_text())


if __name__ == "__main__":
    main()
