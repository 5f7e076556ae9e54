"""Benchmarks: TPC-H, SSB, the response-time / AQL measurements and the
paper-artefact producer (:mod:`repro.bench.reporting`)."""
